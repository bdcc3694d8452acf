"""The process-pool executor: shm publication, lifecycle, and edge paths.

The differential suite (``test_service_differential.py``) already pins
process-mode answers to the single-engine oracle across every (shards x
backend x query kind) cell; this file pins everything *around* the
answers:

* the arena's shared-memory pack/attach codec round-trips exactly,
* publications republish only touched shards and never leak ``/dev/shm``
  segments — not after ``close()``, not after a failed publish, not
  after a SIGKILL'd worker,
* ``close()`` is idempotent and post-close operations raise
  :class:`~repro.errors.ServiceError` in BOTH executor modes,
* ``ColumnarArena.restore`` of a pre-compact snapshot cannot resurrect
  tombstoned uids or mismap live slots under churn,
* non-finite geometry (NaN/inf smuggled past ``__post_init__`` via
  ``object.__setattr__`` or unpickling) is rejected at mutation ingress
  before the WAL, the wire, or a checkpoint can see it.
"""

from __future__ import annotations

import math
import os
import signal
import time

import pytest

import repro
from repro.durability.checkpoint import load_checkpoint, write_checkpoint
from repro.durability.wal import _encode_record
from repro.engine.engine import SpatialEngine
from repro.engine.mutations import Delete, Insert, Move, validate_finite_geometry
from repro.engine.queries import KNNQuery, RangeQuery, SpatialJoin, Walkthrough
from repro.errors import EngineError, ProtocolError, ServiceError
from repro.geometry.aabb import AABB
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3
from repro.neuro.circuit import generate_circuit
from repro.objects import BoxObject
from repro.server.protocol import encode_frame
from repro.service import ShardedEngine, active_segment_names
from repro.service.procpool import SEGMENT_PREFIX
from repro.storage.arena import KIND_SEGMENT, ColumnarArena

from tests.conftest import grid_boxes, write_v1_checkpoint

EXECUTORS = ("thread", "process")


@pytest.fixture(scope="module")
def circuit():
    return generate_circuit(n_neurons=6, seed=99)


def service_for(circuit, executor, **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("max_queued", 64)
    return ShardedEngine.from_circuit(circuit, executor=executor, **kwargs)


def crafted_segment(uid: int, **overrides) -> Segment:
    """A Segment whose validated ``__post_init__`` never saw ``overrides``.

    Models the two real bypasses — unpickling and direct
    ``object.__setattr__`` — both of which keep the stale *finite*
    cached AABB computed from the original fields.
    """
    seg = Segment(uid=uid, p0=Vec3(0.0, 0.0, 0.0), p1=Vec3(1.0, 0.0, 0.0), radius=0.5)
    for name, value in overrides.items():
        object.__setattr__(seg, name, value)
    return seg


# -- the shm codec -----------------------------------------------------------
class TestPackCodec:
    def test_round_trip_preserves_live_order_and_columns(self, circuit):
        arena = ColumnarArena.from_objects(list(circuit.segments()))
        arena.tombstone(arena.uids[3])
        stamp, copy = ColumnarArena.from_packed(arena.pack_payload(epoch=17))
        assert stamp == 17
        assert copy.live_objects() == arena.live_objects()
        snap, copy_snap = arena.snapshot(), copy.snapshot()
        for column in ("uids", "kinds", "bounds", "p0", "p1", "radius",
                       "neuron", "branch", "order"):
            assert getattr(snap, column) == getattr(copy_snap, column)

    def test_round_trip_is_bit_exact_on_tricky_floats(self):
        seg = Segment(
            uid=1, p0=Vec3(-0.0, 1e-308, 2.0 ** -1022),
            p1=Vec3(1e308, -1e-300, 0.1), radius=5e-324,
        )
        arena = ColumnarArena.from_objects([seg])
        _, copy = ColumnarArena.from_packed(arena.pack_payload())
        assert copy.p0[0] == arena.p0[0]
        assert copy.p1[0] == arena.p1[0]
        assert copy.radius[0] == arena.radius[0]
        # -0.0 must survive as -0.0, not 0.0.
        assert math.copysign(1.0, copy.p0[0][0]) == -1.0
        assert copy.kinds[0] == KIND_SEGMENT

    def test_opaque_rows_are_refused(self):
        class Opaque:
            uid = 7
            aabb = AABB(0, 0, 0, 1, 1, 1)

        arena = ColumnarArena.from_objects([Opaque()])
        with pytest.raises(EngineError, match="opaque object uid 7"):
            arena.pack_payload()

    def test_bad_magic_rejected(self):
        with pytest.raises(EngineError, match="magic"):
            ColumnarArena.from_packed(b"NOTMAGIC" + b"\x00" * 64)


# -- restore under churn (pre-compact snapshots) ------------------------------
class TestRestoreUnderChurn:
    def box(self, uid, lo):
        return BoxObject(uid=uid, box=AABB(lo, lo, lo, lo + 1, lo + 1, lo + 1))

    def test_pre_compact_snapshot_restores_exactly(self):
        arena = ColumnarArena.from_objects(grid_boxes(3))
        arena.tombstone(0)
        snap = arena.snapshot()  # rows recorded BEFORE the compaction
        survivors = list(arena.live_objects())

        # Churn that rewrites row positions: more tombstones, a compact
        # (swap-remove reshuffles rows), inserts reusing freed slots.
        for uid in (5, 11, 17):
            arena.tombstone(uid)
        arena.compact()
        arena.append(self.box(500, 90.0))
        arena.replace(self.box(500, 95.0))

        arena.restore(snap)
        assert arena.live_objects() == survivors
        assert arena.num_dead == 0
        # Tombstoned-then-churned uids stay dead; transient uids are gone.
        assert 0 not in arena and 500 not in arena
        # The uid -> row mapping is coherent: every live uid resolves to
        # the row that actually holds it.
        for obj in survivors:
            assert arena.object(obj.uid) == obj

    def test_restore_bumps_epoch_and_invalidates_views(self):
        arena = ColumnarArena.from_objects(grid_boxes(2))
        snap = arena.snapshot()
        arena.tombstone(3)
        epoch = arena.epoch
        view_before = arena.bounds_view()
        arena.restore(snap)
        assert arena.epoch > epoch
        assert 3 in arena
        assert arena.bounds_view() is not view_before

    def test_duplicate_uids_rejected(self):
        arena = ColumnarArena.from_objects(grid_boxes(2))
        snap = arena.snapshot()
        forged = type(snap)(
            epoch=snap.epoch,
            uids=(7,) * len(snap.uids),
            kinds=snap.kinds, bounds=snap.bounds, p0=snap.p0, p1=snap.p1,
            radius=snap.radius, neuron=snap.neuron, branch=snap.branch,
            order=snap.order,
        )
        with pytest.raises(EngineError, match="duplicate uids"):
            arena.restore(forged)

    def test_index_reads_after_restore_cannot_resurrect(self):
        engine = SpatialEngine(grid_boxes(3), page_capacity=8)
        window = AABB(-1.0, -1.0, -1.0, 200.0, 200.0, 200.0)
        engine.execute(RangeQuery(window, strategy="flat"))  # build + warm
        snap = engine.arena.snapshot()
        engine.apply_many([Delete(5), Insert(self.box(600, 50.0)), Delete(600)])
        engine.arena.compact()
        engine.arena.restore(snap)
        engine.invalidate_indexes()
        got = set(engine.execute(RangeQuery(window, strategy="flat")).payload)
        assert got == {o.uid for o in grid_boxes(3)}
        assert 600 not in got


# -- process-mode lifecycle ---------------------------------------------------
class TestProcessLifecycle:
    def test_close_is_idempotent_and_post_close_raises(self, circuit):
        for executor in EXECUTORS:
            service = service_for(circuit, executor)
            window = circuit.bounding_box()
            assert service.execute(RangeQuery(window)).num_results > 0
            service.close()
            service.close()  # double close: no-op, no error
            with pytest.raises(ServiceError, match="closed"):
                service.execute(RangeQuery(window))
            with pytest.raises(ServiceError, match="closed"):
                service.apply_many([Delete(circuit.segments()[0].uid)])

    def test_context_manager_closes_and_unlinks(self, circuit):
        with service_for(circuit, "process") as service:
            names = active_segment_names()
            assert len(names) == service.num_shards
        assert active_segment_names() == []

    def test_no_segments_leak_after_close(self, circuit):
        service = service_for(circuit, "process")
        service.execute(SpatialJoin(eps=1.0))
        service.close()
        assert active_segment_names() == []

    def test_failed_publish_leaks_nothing(self):
        class Opaque:
            def __init__(self, uid):
                self.uid = uid
                self.aabb = AABB(uid, 0, 0, uid + 1, 1, 1)

        with pytest.raises(EngineError, match="opaque"):
            ShardedEngine.from_objects(
                [Opaque(i) for i in range(8)], num_shards=2, executor="process"
            )
        assert active_segment_names() == []

    def test_mutations_republish_only_touched_shards(self, circuit):
        with service_for(circuit, "process") as service:
            before = active_segment_names()
            victim = circuit.segments()[0].uid
            service.apply_many([Delete(victim)])
            after = active_segment_names()
            assert len(after) == service.num_shards
            carried = set(before) & set(after)
            # At least one untouched shard carried its segment over, and
            # at least one shard was republished under a new generation.
            assert carried and set(after) - set(before)

    def test_mutation_ingress_rejects_opaque_in_process_mode(self):
        class Opaque:
            def __init__(self, uid):
                self.uid = uid
                self.aabb = AABB(uid, 0, 0, uid + 1, 1, 1)

        objects = [
            BoxObject(uid=i, box=AABB(i, 0, 0, i + 1, 1, 1)) for i in range(8)
        ]
        with ShardedEngine.from_objects(
            objects, num_shards=2, executor="process"
        ) as service:
            with pytest.raises(ServiceError, match="opaque"):
                service.apply_many([Insert(Opaque(100))])
            # The rejected batch changed nothing; the service still answers.
            assert service.execute(
                RangeQuery(AABB(-1, -1, -1, 50, 50, 50))
            ).num_results == len(objects)

    def test_sigkilled_worker_does_not_poison_the_service(self, circuit):
        with service_for(circuit, "process") as service:
            window = circuit.bounding_box()
            expected = service.execute(RangeQuery(window)).payload
            pool = service._procpool._pool
            assert pool is not None
            victim_pid = next(iter(pool._processes))
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            got = None
            while time.monotonic() < deadline:
                try:
                    got = service.execute(RangeQuery(window)).payload
                    break
                except ServiceError:  # pool replacement raced the kill
                    time.sleep(0.05)
            assert got == expected
        assert active_segment_names() == []

    def test_spawn_start_method_answers_identically(self, circuit):
        window = circuit.bounding_box()
        with service_for(circuit, "thread") as reference:
            expected = reference.execute(RangeQuery(window)).payload
        with service_for(
            circuit, "process", num_shards=2, mp_start="spawn"
        ) as service:
            assert service.execute(RangeQuery(window)).payload == expected
        assert active_segment_names() == []

    def test_unknown_executor_and_start_method_rejected(self, circuit):
        with pytest.raises(ServiceError, match="executor"):
            ShardedEngine.from_circuit(circuit, num_shards=2, executor="fibers")
        with pytest.raises(ServiceError, match="start method"):
            ShardedEngine.from_circuit(
                circuit, num_shards=2, executor="process", mp_start="teleport"
            )

    def test_walk_and_knn_through_processes(self, circuit):
        world = circuit.bounding_box()
        windows = (
            AABB.from_center_extent(world.center(), 100.0),
            world,
        )
        with service_for(circuit, "thread") as reference:
            expected_walk = reference.execute(Walkthrough(windows)).payload
            expected_knn = reference.execute(KNNQuery(world.center(), 9)).payload
        with service_for(circuit, "process") as service:
            assert service.execute(Walkthrough(windows)).payload == expected_walk
            assert service.execute(KNNQuery(world.center(), 9)).payload == expected_knn

    def test_segment_names_carry_the_module_prefix(self, circuit):
        with service_for(circuit, "process"):
            assert all(n.startswith(SEGMENT_PREFIX) for n in active_segment_names())


# -- non-finite geometry at mutation ingress ----------------------------------
class TestNonFiniteIngress:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"radius": float("nan")},
            {"radius": float("inf")},
            {"p0": Vec3(float("nan"), 0.0, 0.0)},
            {"p1": Vec3(0.0, float("-inf"), 0.0)},
        ],
        ids=["nan-radius", "inf-radius", "nan-p0", "inf-p1"],
    )
    def test_validate_finite_geometry_checks_raw_fields(self, overrides):
        bad = crafted_segment(uid=4242, **overrides)
        # The cached AABB is stale but finite — exactly the hole: a
        # bounds-only check would wave this object through.
        assert all(math.isfinite(v) for v in (
            bad.aabb.min_x, bad.aabb.min_y, bad.aabb.min_z,
            bad.aabb.max_x, bad.aabb.max_y, bad.aabb.max_z,
        ))
        with pytest.raises(EngineError, match="non-finite"):
            validate_finite_geometry(bad)

    def test_single_engine_rejects_on_insert_and_move(self):
        engine = SpatialEngine(grid_boxes(2), page_capacity=8)
        bad = crafted_segment(uid=999, radius=float("nan"))
        with pytest.raises(EngineError, match="non-finite"):
            engine.apply(Insert(bad))
        assert 999 not in engine.arena
        live_uid = grid_boxes(2)[0].uid
        moved = crafted_segment(uid=live_uid, radius=float("inf"))
        with pytest.raises(EngineError, match="non-finite"):
            engine.apply(Move(live_uid, moved))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sharded_service_rejects_before_the_wal(self, circuit, executor):
        bad = crafted_segment(uid=31337, radius=float("nan"))
        with service_for(circuit, executor) as service:
            epoch = service.epoch
            with pytest.raises(EngineError, match="non-finite"):
                service.apply_many([Insert(bad)])
            assert service.epoch == epoch  # nothing published
            assert 31337 not in {o.uid for o in service.objects}

    def test_durable_engine_rejects_before_the_wal(self, tmp_path):
        durable = repro.create(grid_boxes(2), tmp_path / "d", page_capacity=8)
        live_uid = grid_boxes(2)[0].uid
        for mutation in (
            Insert(crafted_segment(uid=31337, radius=float("inf"))),
            Move(live_uid, crafted_segment(uid=live_uid, radius=float("nan"))),
        ):
            with pytest.raises(EngineError, match="non-finite"):
                durable.apply_many([mutation])
        assert durable.epoch == 0  # nothing acknowledged ...
        assert durable.wal.last_seq == 0  # ... and nothing logged
        assert 31337 not in {o.uid for o in durable.objects}
        durable.close()

    def test_wal_encoder_is_strict_json(self):
        bad = crafted_segment(uid=77, p0=Vec3(float("nan"), 0.0, 0.0))
        with pytest.raises(ValueError):
            _encode_record(1, [Insert(bad)])

    def test_wire_frames_are_strict_json(self):
        with pytest.raises(ProtocolError, match="strict JSON"):
            encode_frame({"k": "q", "x": float("inf")})

    @pytest.mark.parametrize("format", ["binary", "json"])
    def test_checkpoints_round_trip_tricky_finite_floats(self, tmp_path, format):
        seg = Segment(
            uid=1000, p0=Vec3(-0.0, 1e-308, 0.25), p1=Vec3(1e12, -1e-300, 0.75),
            radius=2.0 ** -30,
        )
        writer = write_checkpoint if format == "binary" else write_v1_checkpoint
        path = writer(tmp_path / format, grid_boxes(2) + [seg], epoch=0, wal_seq=0)
        loaded, _ = load_checkpoint(path)
        back = {o.uid: o for o in loaded}[1000]
        assert back.p0 == seg.p0 and back.p1 == seg.p1
        assert back.radius == seg.radius
