"""Metamorphic mutation-oracle suite: live data can never corrupt an answer.

Seeded random interleavings of :class:`Insert` / :class:`Delete` /
:class:`Move` run against a :class:`SpatialEngine` (incremental FLAT and
R-tree maintenance) and a :class:`ShardedEngine` (epoch-versioned
copy-on-write views) while all four query kinds are checked after every
batch against a brute-force oracle over a plain ``dict`` model of the
dataset.  Every (kernel backend x shard count x query kind) cell sees at
least ``N_MUTATIONS`` mutations.

On failure the harness prints the seed, the step and the full mutation
corpus applied so far, so the exact interleaving replays with::

    REPRO_KERNELS=<backend> pytest tests/test_mutation_oracle.py -k <cell>

Metamorphic relations are additionally checked directly: an inserted
object must appear in every window covering it, a deleted uid must vanish
from all of them, and a moved uid must relocate atomically.
"""

from __future__ import annotations

import math

import pytest

from repro import kernels
from repro.engine import (
    Delete,
    Insert,
    KNNQuery,
    Move,
    RangeQuery,
    SpatialEngine,
    SpatialJoin,
    Walkthrough,
)
from repro.errors import EngineError, ServiceError
from repro.geometry.aabb import AABB
from repro.objects import BoxObject
from repro.service import ShardedEngine
from repro.utils.rng import derive_seed, make_rng

BACKENDS = kernels.available_backends()
SHARD_COUNTS = (1, 2, 4)
#: Mutations every oracle cell must survive (the acceptance floor is 200).
N_MUTATIONS = 200
BATCH_SIZE = 8
WORLD = 60.0
N_OBJECTS = 96

# Guards against Python >= 3.12's "This process ... is multi-threaded, use of
# fork() may lead to deadlocks in the child" DeprecationWarning from
# multiprocessing.  This module runs thread-mode services only, and on Python
# 3.11 it raises no DeprecationWarning at all (it passes without this mark
# under -W error::DeprecationWarning), so the mark hides nothing there.
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# -- the independent oracle ----------------------------------------------------
def point_box_distance(box: AABB, point) -> float:
    """Euclidean point-to-AABB distance, written from scratch on purpose."""
    dx = max(box.min_x - point.x, 0.0, point.x - box.max_x)
    dy = max(box.min_y - point.y, 0.0, point.y - box.max_y)
    dz = max(box.min_z - point.z, 0.0, point.z - box.max_z)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def boxes_within(a: AABB, b: AABB, eps: float) -> bool:
    """The join filter predicate: expanded-AABB overlap, per axis."""
    return (
        a.min_x - eps <= b.max_x
        and b.min_x <= a.max_x + eps
        and a.min_y - eps <= b.max_y
        and b.min_y <= a.max_y + eps
        and a.min_z - eps <= b.max_z
        and b.min_z <= a.max_z + eps
    )


def brute_range(model: dict[int, BoxObject], window: AABB) -> list[int]:
    return sorted(uid for uid, o in model.items() if o.aabb.intersects(window))


def brute_knn(model: dict[int, BoxObject], point, k: int) -> list[tuple[float, int]]:
    ranked = sorted(
        (round(point_box_distance(o.aabb, point), 9), uid) for uid, o in model.items()
    )
    return ranked[:k]


def brute_join(
    side_a: list[BoxObject], side_b: list[BoxObject], eps: float
) -> list[tuple[int, int]]:
    return sorted(
        (a.uid, b.uid)
        for a in side_a
        for b in side_b
        if boxes_within(a.aabb, b.aabb, eps)
    )


def canonical_knn(payload) -> list[tuple[float, int]]:
    return [(round(distance, 9), uid) for uid, distance in payload]


# -- the seeded mutation source ------------------------------------------------
class MutationScript:
    """Deterministic interleaving generator plus the oracle's model.

    Tracks the live dataset in a plain dict (the ground truth every check
    compares against) and logs each batch so a failing cell can print its
    exact corpus.
    """

    def __init__(self, seed: int, n_objects: int = N_OBJECTS) -> None:
        self.seed = seed
        init_rng = make_rng(derive_seed(seed, "oracle", "init"))
        self.model: dict[int, BoxObject] = {}
        for uid in range(n_objects):
            self.model[uid] = self._random_object(uid, init_rng)
        self.next_uid = n_objects
        self.rng = make_rng(derive_seed(seed, "oracle", "ops"))
        self.query_rng = make_rng(derive_seed(seed, "oracle", "queries"))
        self.corpus: list[list] = []

    @staticmethod
    def _random_object(uid: int, rng) -> BoxObject:
        center = tuple(float(v) for v in rng.uniform(0.0, WORLD, size=3))
        extent = float(rng.uniform(0.8, 5.0))
        return BoxObject(uid=uid, box=AABB.from_center_extent(center, extent))

    def initial_objects(self) -> list[BoxObject]:
        return list(self.model.values())

    def next_batch(self, size: int = BATCH_SIZE) -> list:
        batch = []
        for _ in range(size):
            draw = float(self.rng.uniform(0.0, 1.0))
            if draw >= 0.4 and len(self.model) <= 8:
                draw = 0.0  # keep the dataset alive: insert instead
            if draw < 0.4:
                obj = self._random_object(self.next_uid, self.rng)
                self.next_uid += 1
                self.model[obj.uid] = obj
                batch.append(Insert(obj))
            elif draw < 0.7:
                uids = sorted(self.model)
                uid = uids[int(self.rng.integers(0, len(uids)))]
                del self.model[uid]
                batch.append(Delete(uid))
            else:
                uids = sorted(self.model)
                uid = uids[int(self.rng.integers(0, len(uids)))]
                obj = self._random_object(uid, self.rng)
                self.model[uid] = obj
                batch.append(Move(uid, obj))
        self.corpus.append(batch)
        return batch

    def random_window(self) -> AABB:
        center = tuple(float(v) for v in self.query_rng.uniform(0.0, WORLD, size=3))
        extent = float(self.query_rng.uniform(6.0, 45.0))
        return AABB.from_center_extent(center, extent)

    def random_point(self):
        window = self.random_window()
        return window.center()

    def dump(self, step: int) -> str:
        """The failure corpus: seed + every batch applied so far."""
        lines = [f"seed={self.seed} failing_step={step} corpus:"]
        for position, batch in enumerate(self.corpus):
            lines.append(f"  batch {position}: {batch!r}")
        return "\n".join(lines)


def split_sides(model: dict[int, BoxObject]) -> tuple[list[BoxObject], list[BoxObject]]:
    evens = [o for uid, o in sorted(model.items()) if uid % 2 == 0]
    odds = [o for uid, o in sorted(model.items()) if uid % 2 == 1]
    return evens, odds


# -- checks, one per query kind ------------------------------------------------
def check_range(execute, script: MutationScript, step: int) -> None:
    windows = [script.random_window(), AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)]
    for window in windows:
        expected = brute_range(script.model, window)
        got = execute(RangeQuery(window))
        assert got == expected, (
            f"range mismatch for window {window!r}:\n"
            f"missing={sorted(set(expected) - set(got))[:12]} "
            f"extra={sorted(set(got) - set(expected))[:12]}\n{script.dump(step)}"
        )


def check_knn(execute, script: MutationScript, step: int) -> None:
    point = script.random_point()
    for k in (1, 5, len(script.model) + 3):
        expected = brute_knn(script.model, point, k)
        got = canonical_knn(execute(KNNQuery(point, k)))
        assert got == expected, (
            f"knn mismatch at {point!r} k={k}:\nexpected={expected[:8]}\n"
            f"got={got[:8]}\n{script.dump(step)}"
        )


def check_join(execute, script: MutationScript, step: int) -> None:
    side_a, side_b = split_sides(script.model)
    if not side_a or not side_b:
        return
    eps = 2.0
    expected = brute_join(side_a, side_b, eps)
    got = sorted(execute(SpatialJoin(eps=eps, side_a=tuple(side_a), side_b=tuple(side_b))))
    assert got == expected, (
        f"join mismatch (|A|={len(side_a)}, |B|={len(side_b)}):\n"
        f"missing={sorted(set(expected) - set(got))[:8]} "
        f"extra={sorted(set(got) - set(expected))[:8]}\n{script.dump(step)}"
    )


def check_walk_sharded(execute, script: MutationScript, step: int) -> None:
    windows = tuple(script.random_window() for _ in range(3))
    expected = [brute_range(script.model, window) for window in windows]
    got = execute(Walkthrough(windows))
    assert got == expected, f"walk mismatch over {windows!r}\n{script.dump(step)}"


def check_walk_single(engine: SpatialEngine, script: MutationScript, step: int) -> None:
    windows = tuple(script.random_window() for _ in range(3))
    expected = [len(brute_range(script.model, window)) for window in windows]
    metrics = engine.execute(Walkthrough(windows)).payload
    got = [s.result_size for s in metrics.steps]
    assert got == expected, (
        f"walk result sizes mismatch over {windows!r}: {got} != {expected}\n"
        f"{script.dump(step)}"
    )


# -- the single-engine oracle --------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["range", "knn", "join", "walk"])
class TestEngineOracle:
    """Incremental FLAT + R-tree maintenance vs the brute-force model."""

    def test_mutation_interleaving(self, backend, kind):
        with kernels.use_backend(backend):
            script = MutationScript(seed=derive_seed(2013, "engine", backend, kind))
            engine = SpatialEngine.from_objects(
                script.initial_objects(), page_capacity=12, pool_capacity=16
            )
            # Warm every structure so the interleaving exercises incremental
            # maintenance (page rewrites, splits, node packs, pool frames),
            # never a cold rebuild.
            whole = AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)
            engine.execute(RangeQuery(whole, strategy="flat"))
            engine.execute(RangeQuery(whole, strategy="rtree"))

            applied = 0
            step = 0
            while applied < N_MUTATIONS:
                batch = script.next_batch()
                engine.apply_many(batch)
                applied += len(batch)
                step += 1
                if kind == "range":
                    for strategy in ("flat", "rtree"):
                        expected = brute_range(script.model, whole)
                        got = sorted(
                            engine.execute(RangeQuery(whole, strategy=strategy)).payload
                        )
                        assert got == expected, (
                            f"[{strategy}] full-window mismatch\n{script.dump(step)}"
                        )
                        window = script.random_window()
                        expected = brute_range(script.model, window)
                        got = sorted(
                            engine.execute(RangeQuery(window, strategy=strategy)).payload
                        )
                        assert got == expected, (
                            f"[{strategy}] window mismatch {window!r}\n{script.dump(step)}"
                        )
                elif kind == "knn":
                    point = script.random_point()
                    for strategy in ("flat", "rtree"):
                        for k in (1, 7, len(script.model) + 2):
                            expected = brute_knn(script.model, point, k)
                            got = canonical_knn(
                                engine.execute(KNNQuery(point, k, strategy=strategy)).payload
                            )
                            assert got == expected, (
                                f"[{strategy}] knn mismatch k={k}\n{script.dump(step)}"
                            )
                elif kind == "join":
                    check_join(
                        lambda q: engine.execute(q).payload, script, step
                    )
                else:
                    check_walk_single(engine, script, step)
            # Structural invariants survive the whole interleaving.
            engine.flat_index().validate()
            engine.object_rtree().validate()
            assert engine.telemetry.mutations_applied == applied


# -- the sharded-service oracle ------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", ["range", "knn", "join", "walk"])
class TestShardedOracle:
    """Epoch-versioned sharded writes vs the brute-force model."""

    def test_mutation_interleaving(self, backend, shards, kind):
        with kernels.use_backend(backend):
            script = MutationScript(
                seed=derive_seed(2013, "sharded", backend, shards, kind)
            )
            with ShardedEngine.from_objects(
                script.initial_objects(),
                num_shards=shards,
                page_capacity=12,
                max_queued=64,
            ) as service:
                applied = 0
                step = 0
                epoch_before = service.epoch
                while applied < N_MUTATIONS:
                    batch = script.next_batch()
                    result = service.apply_many(batch)
                    applied += len(batch)
                    step += 1
                    assert result.stats.epoch == epoch_before + step
                    assert result.num_objects == len(script.model)

                    def execute(query):
                        got = service.execute(query)
                        assert got.stats.epoch == result.stats.epoch
                        return got.payload

                    if kind == "range":
                        check_range(execute, script, step)
                    elif kind == "knn":
                        check_knn(execute, script, step)
                    elif kind == "join":
                        check_join(execute, script, step)
                    else:
                        check_walk_sharded(execute, script, step)
                snap = service.telemetry.snapshot()
                assert snap["mutations_applied"] == applied
                assert snap["mutation_batches"] == step
                assert snap["current_epoch"] == service.epoch
                assert (
                    snap["inserts"] - snap["deletes"]
                    == len(script.model) - N_OBJECTS
                )


# -- metamorphic relations, stated directly ------------------------------------
class TestMetamorphicRelations:
    def test_insert_appears_everywhere_it_should(self):
        script = MutationScript(seed=7)
        engine = SpatialEngine.from_objects(script.initial_objects(), page_capacity=12)
        obj = BoxObject(uid=10_000, box=AABB.from_center_extent((30.0, 30.0, 30.0), 4.0))
        covering = AABB.from_center_extent((30.0, 30.0, 30.0), 20.0)
        before = engine.execute(RangeQuery(covering)).payload
        assert obj.uid not in before
        engine.apply(Insert(obj))
        after = engine.execute(RangeQuery(covering)).payload
        assert sorted(after) == sorted([*before, obj.uid])

    def test_delete_vanishes_from_every_window(self):
        script = MutationScript(seed=8)
        engine = SpatialEngine.from_objects(script.initial_objects(), page_capacity=12)
        victim = script.initial_objects()[0]
        whole = AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)
        assert victim.uid in engine.execute(RangeQuery(whole)).payload
        engine.apply(Delete(victim.uid))
        assert victim.uid not in engine.execute(RangeQuery(whole)).payload
        tight = victim.aabb.expanded(0.5)
        assert victim.uid not in engine.execute(RangeQuery(tight)).payload

    def test_move_relocates_atomically(self):
        script = MutationScript(seed=9)
        engine = SpatialEngine.from_objects(script.initial_objects(), page_capacity=12)
        victim = script.initial_objects()[3]
        target = BoxObject(
            uid=victim.uid, box=AABB.from_center_extent((200.0, 200.0, 200.0), 2.0)
        )
        engine.apply(Move(victim.uid, target))
        old_spot = engine.execute(RangeQuery(victim.aabb.expanded(0.5))).payload
        new_spot = engine.execute(
            RangeQuery(AABB.from_center_extent((200.0, 200.0, 200.0), 10.0))
        ).payload
        assert victim.uid not in old_spot
        assert new_spot == [victim.uid]

    def test_invalid_mutations_are_rejected(self):
        script = MutationScript(seed=10)
        engine = SpatialEngine.from_objects(script.initial_objects(), page_capacity=12)
        with pytest.raises(EngineError):
            engine.apply(Insert(script.initial_objects()[0]))  # duplicate uid
        with pytest.raises(EngineError):
            engine.apply(Delete(999_999))  # unknown uid
        with pytest.raises(EngineError):
            engine.apply(Move(999_999, BoxObject(uid=999_999, box=AABB(0, 0, 0, 1, 1, 1))))
        with pytest.raises(EngineError):
            Move(1, BoxObject(uid=2, box=AABB(0, 0, 0, 1, 1, 1)))  # uid mismatch

    def test_sharded_batch_is_all_or_nothing(self):
        script = MutationScript(seed=11)
        with ShardedEngine.from_objects(
            script.initial_objects(), num_shards=2, page_capacity=12
        ) as service:
            whole = AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)
            before = service.execute(RangeQuery(whole)).payload
            epoch_before = service.epoch
            fresh = BoxObject(uid=5_000, box=AABB.from_center_extent((5.0, 5.0, 5.0), 2.0))
            with pytest.raises(ServiceError):
                service.apply_many([Insert(fresh), Delete(777_777)])
            assert service.epoch == epoch_before
            assert service.execute(RangeQuery(whole)).payload == before

    def test_sharded_rebalance_retiles_after_drain(self):
        script = MutationScript(seed=12)
        objects = script.initial_objects()
        with ShardedEngine.from_objects(
            objects, num_shards=4, page_capacity=12, rebalance_threshold=1.5
        ) as service:
            # Drain one shard completely: its uids all get deleted.
            victim_uids = [o.uid for o in service.shards[0].engine.objects]
            service.apply_many([Delete(uid) for uid in victim_uids])
            snap = service.telemetry.snapshot()
            assert snap["rebalances"] >= 1
            # Every remaining object is still owned by exactly one shard.
            sizes = [s.engine.num_objects for s in service.shards]
            assert sum(sizes) == len(objects) - len(victim_uids)
            assert min(sizes) > 0
            whole = AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)
            expected = sorted(o.uid for o in objects if o.uid not in set(victim_uids))
            assert service.execute(RangeQuery(whole)).payload == expected


class TestServiceGrowthAndAccounting:
    def test_clamped_service_keeps_requested_fanout_width(self):
        """A tiny dataset clamps the tiling to 1 shard; the pool and the
        admission defaults must still be sized for the *requested* shard
        count so the service is not serialized forever once it grows and
        rebalances up to the full tiling."""
        objects = [
            BoxObject(uid=uid, box=AABB(2.0 * uid, 0, 0, 2.0 * uid + 1, 1, 1))
            for uid in range(2)
        ]
        with ShardedEngine.from_objects(
            objects, num_shards=4, page_capacity=4, rebalance_threshold=1.5
        ) as service:
            assert service.num_shards == 2  # clamped to the dataset size
            assert service.admission.max_in_flight == 4  # sized as requested
            service.apply_many(
                [
                    Insert(BoxObject(uid=100 + i, box=AABB(3.0 * i, 5, 5, 3.0 * i + 1, 6, 6)))
                    for i in range(30)
                ]
            )
            assert service.num_shards == 4  # grew and re-tiled
            whole = AABB(-10, -10, -10, 200, 200, 200)
            assert len(service.execute(RangeQuery(whole)).payload) == 32

    def test_rebalance_counts_every_rebuilt_shard(self):
        script = MutationScript(seed=13)
        objects = script.initial_objects()
        with ShardedEngine.from_objects(
            objects, num_shards=4, page_capacity=12, rebalance_threshold=1.5
        ) as service:
            victim_uids = [o.uid for o in service.shards[0].engine.objects]
            result = service.apply_many([Delete(uid) for uid in victim_uids])
            assert result.stats.rebalanced
            assert result.stats.shards_touched == service.num_shards
            assert service.telemetry.snapshot()["shards_rebuilt"] == service.num_shards
