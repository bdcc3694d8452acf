"""Columnar arena storage: parity, churn, binary checkpoints, front-door API.

The arena's structure-of-arrays columns are the engine's source of truth;
these tests pin the redesign's contracts:

* an arena-first engine answers every query kind identically to an
  object-first engine, under both kernel backends,
* tombstone/compact churn never resurrects a deleted uid — not even
  through a warm buffer pool, and restoring a pre-compact snapshot never
  mismaps live slots,
* the v2 binary columnar checkpoint round-trips, coexists with v1 JSON
  checkpoints in one directory, and falls back across formats on damage,
* ``repro.create`` / ``repro.open`` are the only durable entry points;
  the pre-1.4 constructors are gone.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import kernels
from repro.durability.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.durability.recovery import checkpoints_path
from repro.engine.engine import SpatialEngine
from repro.errors import CheckpointMismatchError, DurabilityError, EngineError
from repro.geometry.aabb import AABB
from repro.neuro.circuit import generate_circuit
from repro.objects import BoxObject
from repro.storage.arena import (
    KIND_BOX,
    KIND_SEGMENT,
    BoundsView,
    ColumnarArena,
)

from tests.conftest import grid_boxes, write_v1_checkpoint

BACKENDS = kernels.available_backends()


def box(uid: int, lo: float, size: float = 1.0) -> BoxObject:
    return BoxObject(uid=uid, box=AABB(lo, lo, lo, lo + size, lo + size, lo + size))


class TestColumnarArena:
    def test_round_trip_materialization(self, small_circuit):
        objects = list(small_circuit.segments()) + [box(10_000, 500.0)]
        arena = ColumnarArena.from_objects(objects)
        assert len(arena) == len(objects)
        assert arena.num_live == len(objects)
        assert arena.live_objects() == objects
        assert arena.kinds.count(KIND_SEGMENT) == len(objects) - 1
        assert arena.kinds.count(KIND_BOX) == 1
        for obj in objects[:5]:
            assert arena.object(obj.uid) == obj
            assert arena.aabb_of(obj.uid) == obj.aabb

    def test_tombstone_is_terminal(self):
        arena = ColumnarArena.from_objects(grid_boxes(2))
        before = arena.epoch
        removed = arena.tombstone(3)
        assert removed.uid == 3
        assert arena.epoch == before + 1
        assert 3 not in arena
        assert arena.get(3) is None
        assert 3 not in [o.uid for o in arena.live_objects()]
        assert arena.num_dead == 1
        with pytest.raises(EngineError, match="unknown uid 3"):
            arena.tombstone(3)

    def test_replace_retargets_live_row(self):
        arena = ColumnarArena.from_objects(grid_boxes(2))
        moved = box(3, 40.0)
        old = arena.replace(moved)
        assert old.uid == 3 and old != moved
        assert arena.object(3) == moved
        # Live order is preserved: the replacement sits where uid 3 sat.
        assert [o.uid for o in arena.live_objects()] == [o.uid for o in grid_boxes(2)]

    def test_compact_reclaims_rows_without_epoch_bump(self):
        arena = ColumnarArena.from_objects(grid_boxes(3))
        live_before = {o.uid for o in arena.live_objects()}
        for uid in (0, 5, 11):
            arena.tombstone(uid)
        survivors = arena.live_objects()
        epoch = arena.epoch
        reclaimed = arena.compact()
        assert reclaimed == 3
        assert arena.epoch == epoch  # content unchanged: no invalidation
        assert arena.num_dead == 0
        assert arena.live_objects() == survivors
        assert {o.uid for o in survivors} == live_before - {0, 5, 11}

    def test_snapshot_round_trip_is_independent(self):
        arena = ColumnarArena.from_objects(grid_boxes(2))
        arena.tombstone(1)
        snap = arena.snapshot()
        restored = ColumnarArena.from_snapshot(snap)
        assert restored.live_objects() == arena.live_objects()
        restored.tombstone(2)
        assert 2 in arena  # COW: the copy's mutation never leaks back
        assert 2 not in restored

    def test_rows_for_unknown_uid(self):
        arena = ColumnarArena.from_objects(grid_boxes(2))
        with pytest.raises(EngineError, match="unknown uid 99"):
            arena.rows_for([0, 99])

    def test_bounds_view_pack_is_memoized_per_backend(self):
        view = ColumnarArena.from_objects(grid_boxes(2)).bounds_view()
        assert isinstance(view, BoundsView)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                assert view.packed() is view.packed()

    def test_world_folds_live_bounds_only(self):
        arena = ColumnarArena.from_objects([box(0, 0.0), box(1, 100.0)])
        arena.tombstone(1)
        world = arena.world()
        assert world.max_x < 100.0

    def test_bounds_array_follows_the_bounds_column(self):
        arena = ColumnarArena.from_objects(grid_boxes(3))

        def check(arena: ColumnarArena) -> None:
            array = arena.bounds_array()
            assert array.dtype == np.float64 and array.shape == (len(arena.bounds), 6)
            assert array.tobytes() == np.array(arena.bounds, dtype=np.float64).tobytes()
            live = np.array(arena.live_bounds())
            world = arena.world()
            assert world.bounds() == (*live[:, :3].min(axis=0), *live[:, 3:].max(axis=0))

        check(arena)
        snap = arena.snapshot()
        arena.append(box(100, 90.0))
        check(arena)
        arena.tombstone(4)
        check(arena)
        arena.replace(box(5, -20.0))
        check(arena)
        arena.compact()
        check(arena)
        arena.append(box(101, 95.0))
        check(arena)
        arena.restore(snap)
        check(arena)
        check(ColumnarArena.from_snapshot(arena))

    def test_columns_share_tuples_only_with_the_live_object(self, small_circuit):
        segment = small_circuit.segments()[0]
        arena = ColumnarArena.from_objects([segment])
        assert arena.p0[0] is segment.p0 and arena.p1[0] is segment.p1
        assert arena.bounds_of(segment) is arena.bounds[0]
        newer = box(segment.uid, 900.0)  # another version of the same uid
        assert arena.bounds_of(newer) == newer.aabb.bounds()
        arena.replace(newer)
        assert arena.bounds_of(segment) == segment.aabb.bounds()
        assert arena.bounds_of(newer) is arena.bounds[1]

    def test_flat_pages_share_arena_bounds_and_follow_the_index(self):
        def layout(index):
            pages = [index.disk.peek(pid) for pid in index.disk.page_ids()]
            return [(p.page_id, p.object_uids, p.mbr, p.bounds.bounds) for p in pages]

        engine = SpatialEngine(grid_boxes(4), page_capacity=8)
        arena = engine.arena
        for _, uids, _, rows in layout(engine.flat_index()):
            for uid, bounds in zip(uids, rows):
                assert bounds is arena.bounds[arena.rows_for([uid])[0]]
        # One flush rewrites a page for the first move while its page-mates'
        # move and delete are still pending: each row must describe the
        # index's object, never the arena's newer state, so the layout is
        # the one a flush after every single mutation gives.
        first, second, third = layout(engine.flat_index())[0][1][:3]
        lo = arena.aabb_of(first).bounds()
        shrunk = AABB(*(v + 0.25 for v in lo[:3]), *(v - 0.25 for v in lo[3:]))
        batch = [
            repro.Move(first, BoxObject(uid=first, box=shrunk)),
            repro.Move(second, box(second, 30.0)),
            repro.Delete(third),
        ]
        stepwise = SpatialEngine(grid_boxes(4), page_capacity=8)
        stepwise.flat_index()
        for mutation in batch:
            stepwise.apply(mutation)
            stepwise.flat_index()
        engine.apply_many(batch)
        engine.flat_index().validate()
        assert layout(engine.flat_index()) == layout(stepwise.flat_index())


@pytest.mark.parametrize("backend", BACKENDS)
class TestArenaParity:
    """Object-first and arena-first engines must answer identically."""

    def _engines(self, circuit, **kwargs):
        objects = circuit.segments()
        object_first = SpatialEngine(objects, circuit=circuit, **kwargs)
        arena_first = SpatialEngine(
            ColumnarArena.from_objects(objects), circuit=circuit, **kwargs
        )
        return object_first, arena_first

    def test_range_knn_join_walk_parity(self, backend, medium_circuit):
        with kernels.use_backend(backend):
            a, b = self._engines(medium_circuit, page_capacity=32)
            world = medium_circuit.bounding_box()
            window = AABB.from_center_extent(world.center(), 120.0)

            for strategy in ("flat", "rtree"):
                qa = a.execute(repro.RangeQuery(window, strategy=strategy)).payload
                qb = b.execute(repro.RangeQuery(window, strategy=strategy)).payload
                assert qa == qb
                ka = a.execute(repro.KNNQuery(world.center(), 12, strategy=strategy))
                kb = b.execute(repro.KNNQuery(world.center(), 12, strategy=strategy))
                assert ka.payload == kb.payload

            ja = a.execute(repro.SpatialJoin(eps=1.5)).payload
            jb = b.execute(repro.SpatialJoin(eps=1.5)).payload
            assert sorted(ja) == sorted(jb)

            windows = tuple(
                AABB.from_center_extent(
                    (world.center()[0] + dx, world.center()[1], world.center()[2]), 60.0
                )
                for dx in (-40.0, 0.0, 40.0, 80.0)
            )
            wa = a.execute(repro.Walkthrough(windows, strategy="scout")).payload
            wb = b.execute(repro.Walkthrough(windows, strategy="scout")).payload
            fingerprint = lambda m: [  # noqa: E731 - local shorthand
                (s.result_size, s.pages_needed, s.cache_hits, s.cache_misses)
                for s in m.steps
            ]
            assert fingerprint(wa) == fingerprint(wb)
            assert wa.total_prefetched == wb.total_prefetched

    def test_parity_survives_a_mutation_batch(self, backend, medium_circuit):
        with kernels.use_backend(backend):
            a, b = self._engines(medium_circuit, page_capacity=32)
            world = medium_circuit.bounding_box()
            window = AABB.from_center_extent(world.center(), 150.0)
            uids = [o.uid for o in a.objects]
            batch = [
                repro.Insert(box(max(uids) + 1, world.center()[0])),
                repro.Delete(uids[7]),
                repro.Move(uids[3], box(uids[3], world.center()[0] + 5.0)),
            ]
            for engine in (a, b):
                engine.execute(repro.RangeQuery(window))  # build before mutating
                engine.apply_many(batch)
            assert a.execute(repro.RangeQuery(window)).payload == (
                b.execute(repro.RangeQuery(window)).payload
            )
            assert a.objects == b.objects


@pytest.mark.parametrize("backend", BACKENDS)
class TestMutationChurn:
    def test_tombstone_never_resurrects_through_warm_pool(self, backend):
        with kernels.use_backend(backend):
            engine = SpatialEngine(grid_boxes(4), page_capacity=8, pool_capacity=64)
            window = AABB(-1.0, -1.0, -1.0, 10.0, 10.0, 10.0)
            query = repro.RangeQuery(window, strategy="flat")  # paged path: warm pool
            baseline = set(engine.execute(query).payload)
            pool_stats = engine.buffer_pool().stats
            assert pool_stats.demand_hits + pool_stats.demand_misses > 0

            # Churn: insert a transient object, delete it plus a resident
            # one, all between queries on the now-warm structures.
            engine.apply_many(
                [
                    repro.Insert(box(500, 4.5)),
                    repro.Delete(500),
                    repro.Delete(13),
                ]
            )
            after = set(engine.execute(query).payload)
            assert after == baseline - {13}
            assert 500 not in after

            # Compaction reshuffles rows but must not change any answer.
            engine.arena.compact()
            assert set(engine.execute(query).payload) == after
            knn = engine.execute(repro.KNNQuery((4.5, 4.5, 4.5), 6)).payload
            assert 13 not in [uid for uid, _ in knn]
            assert 500 not in [uid for uid, _ in knn]

    def test_reinsert_after_delete_is_the_new_object(self, backend):
        with kernels.use_backend(backend):
            engine = SpatialEngine(grid_boxes(3), page_capacity=8)
            window = AABB(-100.0, -100.0, -100.0, 100.0, 100.0, 100.0)
            engine.execute(repro.RangeQuery(window))
            engine.apply(repro.Delete(5))
            replacement = box(5, 50.0)
            engine.apply(repro.Insert(replacement))
            assert engine.arena.object(5) == replacement
            hits = engine.execute(
                repro.RangeQuery(AABB(49.0, 49.0, 49.0, 52.0, 52.0, 52.0))
            ).payload
            assert hits == [5]


class TestRestoreUnderChurn:
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
        arena.append(box(500, 90.0))
        arena.replace(box(500, 95.0))

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
        engine.execute(repro.RangeQuery(window, strategy="flat"))  # build + warm
        snap = engine.arena.snapshot()
        engine.apply_many([repro.Delete(5), repro.Insert(box(600, 50.0)), repro.Delete(600)])
        engine.arena.compact()
        engine.arena.restore(snap)
        engine.invalidate_indexes()
        got = set(engine.execute(repro.RangeQuery(window, strategy="flat")).payload)
        assert got == {o.uid for o in grid_boxes(3)}
        assert 600 not in got


class TestBinaryCheckpoint:
    def test_binary_round_trip_from_arena(self, tmp_path):
        arena = ColumnarArena.from_objects(
            list(generate_circuit(n_neurons=3, seed=5).segments())
        )
        path = write_checkpoint(tmp_path, arena, epoch=3, wal_seq=3)
        assert (path / "columns.bin").exists()
        manifest = read_manifest(path)
        assert manifest.format_version == 2
        objects, loaded = load_checkpoint(path)
        # At-rest order is the Hilbert page clustering; content must match.
        assert sorted(objects, key=lambda o: o.uid) == sorted(
            arena.live_objects(), key=lambda o: o.uid
        )
        assert loaded.epoch == 3

    def test_v1_json_checkpoint_is_still_read(self, tmp_path):
        objects = grid_boxes(2)
        path = write_v1_checkpoint(tmp_path, objects, epoch=1, wal_seq=1)
        assert read_manifest(path).format_version == 1
        loaded, _ = load_checkpoint(path)
        assert sorted(o.uid for o in loaded) == sorted(o.uid for o in objects)

    def test_corrupt_binary_detected(self, tmp_path):
        path = write_checkpoint(tmp_path, grid_boxes(2), epoch=0, wal_seq=0)
        data_file = path / "columns.bin"
        blob = bytearray(data_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        data_file.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_damaged_binary_falls_back_to_older_json(self, tmp_path):
        objects = grid_boxes(2)
        write_v1_checkpoint(tmp_path, objects, epoch=1, wal_seq=1)
        newer = write_checkpoint(tmp_path, objects + [box(100, 9.0)], epoch=2, wal_seq=2)
        (newer / "columns.bin").write_bytes(b"RPRCOL2\n garbage")
        loaded, manifest = latest_checkpoint(tmp_path)
        assert manifest.epoch == 1
        assert sorted(o.uid for o in loaded) == sorted(o.uid for o in objects)

    def test_mixed_format_directory_recovers_exactly(self, tmp_path):
        root = tmp_path / "model"
        durable = repro.create(grid_boxes(3), root)  # binary checkpoint, epoch 0
        durable.apply(repro.Insert(box(200, 20.0)))  # epoch 1 == WAL seq 1
        # An old-format writer checkpoints the same directory in v1 JSON.
        write_v1_checkpoint(checkpoints_path(root), durable.objects, epoch=1, wal_seq=1)
        durable.apply(repro.Insert(box(201, 22.0)))  # epoch 2, WAL only
        expected = sorted(o.uid for o in durable.objects)
        durable.close()

        formats = {
            read_manifest(path).format_version
            for _, path in list_checkpoints(checkpoints_path(root))
        }
        assert formats == {1, 2}

        reopened = repro.open(root)
        assert reopened.epoch == 2
        assert sorted(o.uid for o in reopened.objects) == expected
        reopened.close()

        past = repro.open(root, durable=False, at_epoch=1)
        assert past.last_recovery.epoch == 1
        assert 201 not in {o.uid for o in past.objects}


class TestFrontDoorAPI:
    def test_create_in_memory(self, medium_circuit):
        engine = repro.create(medium_circuit.segments(), circuit=medium_circuit)
        assert isinstance(engine, SpatialEngine)
        assert engine.num_objects == len(medium_circuit.segments())

    def test_create_sharded_in_memory(self):
        service = repro.create(grid_boxes(3), sharded=True, num_shards=2)
        try:
            assert service.num_shards == 2
        finally:
            service.close()

    def test_create_then_open_durable(self, tmp_path):
        root = tmp_path / "d"
        durable = repro.create(grid_boxes(2), root)
        durable.apply(repro.Insert(box(50, 30.0)))
        epoch = durable.epoch
        durable.close()
        reopened = repro.open(root)
        assert reopened.epoch == epoch
        assert 50 in {o.uid for o in reopened.objects}
        reopened.close()

    def test_durable_engine_is_a_spatial_engine_with_a_wal(self, tmp_path):
        """One write contract: a durable single engine and a durable sharded
        service count the same history as the same epochs."""
        history = [[repro.Insert(box(300, 40.0))], [], [repro.Delete(300), repro.Delete(1)]]
        single = repro.create(grid_boxes(3), tmp_path / "one")
        service = repro.create(grid_boxes(3), tmp_path / "svc", sharded=True, num_shards=2)
        try:
            assert isinstance(single, SpatialEngine)
            assert single.wal is not None
            for batch in history:
                assert single.apply_many(batch).stats.epoch == service.apply_many(batch).stats.epoch
            assert single.epoch == service.epoch == 2  # the empty batch is no epoch
            assert single.wal.last_seq == service.wal.last_seq == 2
        finally:
            single.close()
            service.close()
        reopened = repro.open(tmp_path / "one")
        with reopened:
            assert isinstance(reopened, SpatialEngine)
            assert reopened.wal is not None and reopened.epoch == 2
        assert repro.open(tmp_path / "one", durable=False).epoch == 2

    def test_open_read_only_attaches_recovery_record(self, tmp_path):
        root = tmp_path / "d"
        repro.create(grid_boxes(2), root).close()
        engine = repro.open(root, durable=False)
        assert isinstance(engine, SpatialEngine)
        assert engine.last_recovery.epoch == 0
        assert "epoch 0" in engine.last_recovery.describe()

    def test_create_sharded_durable_then_resume(self, tmp_path):
        root = tmp_path / "svc"
        service = repro.create(grid_boxes(3), root, sharded=True, num_shards=2)
        service.apply_many([repro.Insert(box(300, 40.0))])
        service.close()
        resumed = repro.open(root, sharded=True)
        try:
            assert resumed.epoch == 1
            assert 300 in {o.uid for o in resumed.objects}
        finally:
            resumed.close()

    def test_guard_rails(self, tmp_path):
        with pytest.raises(DurabilityError, match="wal_kwargs requires a durability root"):
            repro.create(grid_boxes(2), wal_kwargs={})
        with pytest.raises(DurabilityError, match="num_shards requires sharded=True"):
            repro.create(grid_boxes(2), num_shards=2)
        with pytest.raises(DurabilityError, match="holds no checkpoints"):
            repro.open(tmp_path / "nothing", sharded=True)
        root = tmp_path / "svc"
        repro.create(grid_boxes(2), root, sharded=True, num_shards=2).close()
        with pytest.raises(DurabilityError, match="already holds checkpoints"):
            repro.create(grid_boxes(2), root, sharded=True)
        with pytest.raises(DurabilityError, match="read-only"):
            repro.open(root, sharded=True, at_epoch=0)
        with pytest.raises(DurabilityError, match="wal_kwargs requires durable=True"):
            repro.open(root, durable=False, wal_kwargs={})

    def test_empty_dataset_still_rejected(self):
        with pytest.raises(EngineError, match="non-empty dataset"):
            repro.create([])


class TestDeprecatedShims:
    """The pre-1.4 entry points are removed; the front door is warning-free."""

    def test_removed_entry_points_are_gone(self):
        import repro.durability
        import repro.neuro

        for name in (
            "durable_sharded",
            "recover_sharded",
            "open_at_epoch",
            "DurableEngine",
            "checkpoint_engine",
            "checkpoint_sharded",
        ):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.durability, name), name
        # One way in: no circuit-directory model format, and no second
        # constructor family beside repro.create / repro.open.
        for name in ("save_circuit", "load_circuit"):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.neuro, name), name
        for cls in (repro.SpatialEngine, repro.ShardedEngine):
            for name in ("from_circuit", "from_objects", "generate", "open"):
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"
        assert not hasattr(repro.SpatialEngine, "save")

    def test_front_door_is_warning_free(self, tmp_path, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            root = tmp_path / "d"
            repro.create(grid_boxes(2), root).close()
            repro.open(root).close()
            repro.open(root, durable=False)
