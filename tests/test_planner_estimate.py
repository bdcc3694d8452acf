"""The planner's range estimate is an exact count over an x-sorted sample.

* a hypothesis property: ``DatasetProfile._sample_hits`` (an x-slab by
  binary search plus a y/z mask) equals a brute-force closed-box count
  over samples with repeated x values, for boxes whose faces sit on sample
  coordinates, zero-extent boxes and boxes outside the world;
* on the ``explore`` traffic windows, ``explain()`` on one engine and on a
  2-shard service is byte-identical to the plan of a reference planner
  whose profile counts by a full scan;
* count-based locks, not timings: a warm engine sorts the sample once per
  epoch, a dense window costs one count and a small window two, and a
  kNN-only workload never sorts;
* range executions carry ``est_results``/``actual_results`` on their
  ``engine.execute`` span and feed the misestimate histogram.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.engine import KNNQuery, Move, RangeQuery, SpatialEngine
from repro.engine.planner import _RESOLUTION_FLOOR, DatasetProfile, Planner
from repro.experiments.datasets import circuit_dataset
from repro.geometry.aabb import AABB
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.workloads.traffic import traffic_workload

#: Coordinates on a coarse grid, so drawn samples repeat x values often.
GRID = [v / 2.0 for v in range(-4, 13)]
#: Faces far outside every drawn sample.
OUTSIDE = [-1e6, -50.0, 50.0, 1e6]


def brute_hits(sample: np.ndarray, box: AABB) -> int:
    """Points of ``sample`` inside the closed ``box``, one at a time."""
    lo = (box.min_x, box.min_y, box.min_z)
    hi = (box.max_x, box.max_y, box.max_z)
    return sum(
        all(lo[axis] <= point[axis] <= hi[axis] for axis in range(3))
        for point in sample.tolist()
    )


class FullScanProfile(DatasetProfile):
    """The reference profile: every count is a full scan of the sample."""

    def _sample_hits(self, box: AABB) -> int:
        lo = np.array([box.min_x, box.min_y, box.min_z])
        hi = np.array([box.max_x, box.max_y, box.max_z])
        return int(np.all((self.sample >= lo) & (self.sample <= hi), axis=1).sum())


# -- the slab count equals a brute-force count ---------------------------------
points = st.lists(st.tuples(*[st.sampled_from(GRID)] * 3), min_size=1, max_size=60)


@st.composite
def sample_and_box(draw):
    sample = np.array(draw(points), dtype=float)
    coords = sample.T.tolist()
    axes = []
    for axis in range(3):
        face = st.one_of(
            st.sampled_from(coords[axis]),  # a face exactly on a sample coordinate
            st.sampled_from(GRID),
            st.sampled_from(OUTSIDE),
            st.floats(-10.0, 20.0),
        )
        lo = draw(face)
        hi = lo if draw(st.booleans()) else draw(face)  # zero extent half the time
        axes.append(sorted((lo, hi)))
    (x0, x1), (y0, y1), (z0, z1) = axes
    return sample, AABB(x0, y0, z0, x1, y1, z1)


@given(sample_and_box())
def test_slab_count_equals_brute_force(case):
    sample, box = case
    profile = DatasetProfile(len(sample), 8, sample)
    stride_order = sample.tobytes()
    assert profile._sample_hits(box) == brute_hits(sample, box)
    assert profile.sample.tobytes() == stride_order  # the sample itself is untouched
    reference = FullScanProfile(len(sample), 8, sample)
    assert profile.estimate_range_results(box) == reference.estimate_range_results(box)


# -- explain() is byte-identical on the explore traffic windows ----------------
@pytest.fixture(scope="module")
def explore_segments():
    return circuit_dataset(n_neurons=40).segments()


@pytest.fixture(scope="module")
def explore_windows(explore_segments):
    queries = traffic_workload(
        explore_segments, 1500, extent=60.0, knn_k=16, include_joins=False, seed=1
    )
    return [q for q in queries if isinstance(q, RangeQuery)]


def test_engine_plans_match_a_full_scan_profile(explore_segments, explore_windows):
    engine = SpatialEngine(explore_segments)
    reference = Planner(FullScanProfile.from_arena(engine.arena, engine.page_capacity))
    for window in explore_windows:
        assert engine.explain(window).render() == reference.plan(window).render()


def test_sharded_plans_match_a_full_scan_profile(explore_segments, explore_windows):
    with repro.create(explore_segments, sharded=True, num_shards=2) as service:
        engines = [shard.engine for shard in service.shards]
        page_capacity = engines[0].page_capacity
        # The service plans over every shard's arena read as one, and each
        # shard engine plans its own subtask over its own arena.
        pairs = [(service.planner, [engine.arena for engine in engines])]
        pairs += [(engine.planner, [engine.arena]) for engine in engines]
        for planner, arenas in pairs:
            reference = Planner(FullScanProfile.from_arena(arenas, page_capacity))
            for window in explore_windows:
                assert planner.plan(window).render() == reference.plan(window).render()


# -- count-based regression locks ----------------------------------------------
class TestEstimateCounts:
    """Sorts and slab counts are counted, never timed."""

    def _count(self, monkeypatch) -> dict[str, int]:
        counts = {"sorts": 0, "slab_counts": 0}
        x_sorted = DatasetProfile._x_sorted
        sample_hits = DatasetProfile._sample_hits

        def counting_x_sorted(self):
            before = self._by_x
            columns = x_sorted(self)
            counts["sorts"] += columns is not before
            return columns

        def counting_sample_hits(self, box):
            counts["slab_counts"] += 1
            return sample_hits(self, box)

        monkeypatch.setattr(DatasetProfile, "_x_sorted", counting_x_sorted)
        monkeypatch.setattr(DatasetProfile, "_sample_hits", counting_sample_hits)
        return counts

    @pytest.fixture()
    def engine(self, small_circuit):
        engine = SpatialEngine(small_circuit.segments())
        engine.execute(KNNQuery(engine.profile.world.center(), 4))  # warm, no estimate
        return engine

    def test_a_warm_engine_sorts_once_per_epoch(self, engine, monkeypatch):
        counts = self._count(monkeypatch)
        windows = traffic_workload(engine.objects, 100, extent=60.0, mix=(1, 0, 0), seed=3)
        for window in windows:
            engine.execute(window)
        assert counts["sorts"] == 1
        moved = engine.objects[0]
        engine.apply(Move(moved.uid, moved))  # a write starts a new profile epoch
        for window in windows:
            engine.execute(window)
        assert counts["sorts"] == 2

    def test_dense_window_counts_once_small_window_twice(self, engine, monkeypatch):
        counts = self._count(monkeypatch)
        world = engine.profile.world
        assert engine.profile._sample_hits(world) >= _RESOLUTION_FLOOR
        counts["slab_counts"] = 0
        engine.explain(RangeQuery(world))
        assert counts["slab_counts"] == 1
        corner = AABB.from_center_extent(world.center(), 1e-3)
        engine.explain(RangeQuery(corner))
        assert counts["slab_counts"] == 3

    def test_knn_only_workload_never_sorts(self, small_circuit, monkeypatch):
        counts = self._count(monkeypatch)
        segments = small_circuit.segments()
        engine = SpatialEngine(segments)
        knn = traffic_workload(segments, 30, mix=(0, 1, 0), include_joins=False, seed=5)
        for query in knn:
            engine.execute(query)
        with repro.create(segments, sharded=True, num_shards=2) as service:
            for query in knn:
                service.execute(query)
        assert counts == {"sorts": 0, "slab_counts": 0}
        assert engine.profile._by_x is None


# -- the planner is accountable ------------------------------------------------
def test_range_spans_carry_estimate_and_actual(small_circuit):
    engine = SpatialEngine(small_circuit.segments())
    histogram = global_registry().get("repro_engine_range_misestimate_ratio")
    before = histogram.count
    window = RangeQuery(AABB.from_center_extent(engine.profile.world.center(), 80.0))
    with trace.start_trace("q") as root:
        result = engine.execute(window)
        engine.execute(KNNQuery(engine.profile.world.center(), 4))
    range_span, knn_span = root.children
    assert range_span.attrs["est_results"] == result.plan.estimates["result_objects"]
    assert range_span.attrs["actual_results"] == len(result.payload)
    assert "est_results" not in knn_span.attrs
    assert histogram.count == before + 1
