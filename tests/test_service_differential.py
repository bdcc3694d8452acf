"""Differential oracle: sharded answers == single-engine answers, exactly.

Every query answered by a :class:`ShardedEngine` — any shard count, either
kernel backend — must match the single :class:`SpatialEngine` answer on
the same dataset: same uids, same distances, same join pairs.  Payloads are
canonicalized (sorted uids / ``(distance, uid)`` / sorted pairs) before
comparison; the service's own payloads are asserted to *already* be in
canonical order, because that ordering is part of its contract.

A brute-force oracle over the raw objects independently pins the expected
answers, so the suite cannot be fooled by a bug shared between the two
engines.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.engine import KNNQuery, RangeQuery, SpatialEngine, SpatialJoin, Walkthrough
from repro.geometry.aabb import AABB
from repro.neuro.circuit import generate_circuit
from repro.service import ShardedEngine, hilbert_shards
from repro.workloads.traffic import traffic_workload
from repro.workloads.walks import branch_walk

BACKENDS = kernels.available_backends()
SHARD_COUNTS = (1, 2, 4, 7)
# Named in each cell's id: the service's one fan-out, which runs every
# shard subtask on the calling thread.
FAN_OUTS = ("thread",)


@pytest.fixture(scope="module")
def circuit():
    """A seeded random circuit shared by the whole oracle suite."""
    return generate_circuit(n_neurons=10, seed=1337)


@pytest.fixture(scope="module")
def single(circuit):
    return SpatialEngine(circuit.segments(), circuit=circuit)


@pytest.fixture(scope="module")
def windows(circuit):
    world = circuit.bounding_box()
    center = world.center()
    sx, sy, sz = world.sizes
    return [
        AABB.from_center_extent(center, 140.0),  # dense core
        AABB.from_center_extent((world.min_x + sx * 0.05, center.y, center.z), 60.0),
        AABB.from_center_extent((world.max_x, world.max_y, world.max_z), 40.0),  # corner
        world,  # everything
        AABB.from_center_extent((world.max_x + sx, center.y, center.z), 30.0),  # empty
    ]


def canonical_knn(payload):
    return sorted(((round(d, 9), uid) for uid, d in payload))


def service_for(circuit, shards):
    return ShardedEngine(circuit.segments(), circuit=circuit, num_shards=shards, max_queued=64)


@pytest.mark.parametrize("fan_out", FAN_OUTS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestDifferential:
    def test_range_matches(self, circuit, single, windows, shards, backend, fan_out):
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                for window in windows:
                    expected = sorted(single.execute(RangeQuery(window)).payload)
                    got = service.execute(RangeQuery(window))
                    assert got.payload == expected
                    assert got.payload == sorted(got.payload)
                    # Independent oracle: brute force over the raw objects.
                    brute = sorted(
                        o.uid for o in circuit.segments() if o.aabb.intersects(window)
                    )
                    assert got.payload == brute

    def test_range_matches_forced_strategies(
        self, circuit, single, windows, shards, backend, fan_out
    ):
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                for strategy in ("flat", "rtree"):
                    query = RangeQuery(windows[0], strategy=strategy)
                    expected = sorted(single.execute(query).payload)
                    assert service.execute(query).payload == expected

    def test_knn_matches(self, circuit, single, windows, shards, backend, fan_out):
        points = [w.center() for w in windows]
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                for point in points:
                    for k in (1, 7, 64):
                        expected = single.execute(KNNQuery(point, k)).payload
                        got = service.execute(KNNQuery(point, k)).payload
                        assert canonical_knn(got) == canonical_knn(expected)
                        # Canonical ordering is part of the service contract.
                        assert got == sorted(got, key=lambda t: (t[1], t[0]))
                        # Distances must be the true minimum box distances.
                        brute = sorted(
                            (
                                (round(o.aabb.min_distance_to_point(point), 9), o.uid)
                                for o in circuit.segments()
                            )
                        )[:k]
                        assert canonical_knn(got) == brute

    def test_knn_exceeding_dataset_returns_everything(
        self, circuit, single, shards, backend, fan_out
    ):
        point = circuit.bounding_box().center()
        k = len(circuit.segments()) + 10
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                got = service.execute(KNNQuery(point, k)).payload
        assert len(got) == len(circuit.segments())
        assert sorted(uid for uid, _ in got) == sorted(o.uid for o in circuit.segments())

    def test_join_matches(self, circuit, single, shards, backend, fan_out):
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                for eps in (0.5, 3.0):
                    expected = sorted(single.execute(SpatialJoin(eps=eps)).payload)
                    got = service.execute(SpatialJoin(eps=eps))
                    assert got.payload == expected
                    assert got.payload == sorted(got.payload)

    def test_join_matches_forced_strategies(
        self, circuit, single, shards, backend, fan_out
    ):
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                for strategy in ("touch", "plane-sweep", "pbsm"):
                    query = SpatialJoin(eps=2.0, strategy=strategy)
                    expected = sorted(single.execute(query).payload)
                    assert service.execute(query).payload == expected

    def test_join_refined_matches(self, circuit, single, shards, backend, fan_out):
        query = SpatialJoin(eps=1.0, refine=True)
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                expected = sorted(single.execute(query).payload)
                assert service.execute(query).payload == expected

    def test_walk_matches(self, circuit, single, shards, backend, fan_out):
        walk = branch_walk(circuit, window_extent=80.0, seed=5)
        query = Walkthrough(tuple(walk.queries))
        with kernels.use_backend(backend):
            with service_for(circuit, shards) as service:
                got = service.execute(query)
        metrics = single.execute(query).payload
        assert [len(step) for step in got.payload] == [
            s.result_size for s in metrics.steps
        ]
        for window, step_uids in zip(walk.queries, got.payload):
            assert step_uids == sorted(single.execute(RangeQuery(window)).payload)


@pytest.mark.parametrize("fan_out", FAN_OUTS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_traffic_workload_differential(circuit, single, shards, fan_out):
    """A whole mixed traffic batch answers identically through the service."""
    queries = traffic_workload(circuit.segments(), 20, extent=100.0, seed=11)
    with service_for(circuit, shards) as service:
        results = service.query_many(queries)
    for query, result in zip(queries, results):
        expected = single.execute(query)
        if isinstance(query, KNNQuery):
            assert canonical_knn(result.payload) == canonical_knn(expected.payload)
        elif isinstance(query, (RangeQuery, SpatialJoin)):
            assert result.payload == sorted(expected.payload)


def test_sharding_partitions_exactly(circuit):
    """Every object lands in exactly one shard, for every shard count."""
    segments = circuit.segments()
    all_uids = sorted(o.uid for o in segments)
    for shards in SHARD_COUNTS:
        parts = hilbert_shards(segments, shards)
        seen = sorted(o.uid for _, members in parts for o in members)
        assert seen == all_uids
        assert len(parts) == min(shards, len(segments))
        # Balanced: shard sizes differ by at most one object.
        sizes = [len(members) for _, members in parts]
        assert max(sizes) - min(sizes) <= 1


def test_service_stats_shape(circuit):
    with service_for(circuit, 4) as service:
        result = service.execute(RangeQuery(circuit.bounding_box()))
    stats = result.stats
    assert stats.kind == "range"
    assert stats.shards_total == 4
    assert 1 <= stats.shards_used <= 4
    assert stats.num_results == len(result.payload)
