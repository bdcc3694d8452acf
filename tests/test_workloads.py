"""Unit tests for workload generators."""

from __future__ import annotations

import pytest

from repro.engine.queries import KNNQuery, RangeQuery, SpatialJoin
from repro.errors import WorkloadError
from repro.geometry.aabb import AABB
from repro.workloads.joins import JoinWorkload, clustered_boxes, uniform_boxes
from repro.workloads.ranges import (
    density_stratified_queries,
    grid_queries,
    uniform_queries,
)
from repro.workloads.traffic import traffic_workload
from repro.workloads.walks import branch_walk, random_walk


class TestRangeWorkloads:
    def test_uniform_queries_inside_world_and_sized(self):
        world = AABB(0, 0, 0, 100, 100, 100)
        queries = uniform_queries(world, 20, extent=10.0, seed=1)
        assert len(queries) == 20
        for q in queries:
            assert q.sizes == pytest.approx((10.0, 10.0, 10.0))
            assert world.expanded(5.0).contains_box(q)

    def test_uniform_queries_deterministic(self):
        world = AABB(0, 0, 0, 10, 10, 10)
        assert uniform_queries(world, 5, 1.0, seed=3) == uniform_queries(world, 5, 1.0, seed=3)

    def test_uniform_queries_negative_count(self):
        with pytest.raises(WorkloadError):
            uniform_queries(AABB(0, 0, 0, 1, 1, 1), -1, 1.0)

    def test_density_stratified_dense_beats_sparse(self, medium_circuit):
        segments = medium_circuit.segments()
        dense = density_stratified_queries(segments, 5, 60.0, dense=True, seed=4)
        sparse = density_stratified_queries(segments, 5, 60.0, dense=False, seed=4)

        def population(queries):
            return sum(
                sum(1 for s in segments if s.aabb.intersects(q)) for q in queries
            )

        assert population(dense) > population(sparse)

    def test_density_stratified_requires_objects(self):
        with pytest.raises(WorkloadError):
            density_stratified_queries([], 3, 10.0, dense=True)

    def test_grid_queries_tile_world_exactly(self):
        world = AABB(0, 0, 0, 10, 10, 10)
        queries = grid_queries(world, 2)
        assert len(queries) == 8
        total_volume = sum(q.volume() for q in queries)
        assert total_volume == pytest.approx(world.volume())

    def test_grid_queries_bad_cells(self):
        with pytest.raises(WorkloadError):
            grid_queries(AABB(0, 0, 0, 1, 1, 1), 0)


class TestWalkWorkloads:
    def test_branch_walk_produces_overlapping_windows(self, medium_circuit):
        walk = branch_walk(medium_circuit, window_extent=80.0, seed=5)
        assert len(walk.queries) >= 2
        for a, b in zip(walk.queries, walk.queries[1:]):
            assert a.intersects(b)  # consecutive windows overlap

    def test_branch_walk_step_length(self, medium_circuit):
        walk = branch_walk(medium_circuit, window_extent=80.0, step_fraction=0.5, seed=5)
        for a, b in zip(walk.path, walk.path[1:]):
            assert a.distance_to(b) == pytest.approx(40.0, rel=0.05)

    def test_branch_walk_follows_real_branch(self, medium_circuit):
        walk = branch_walk(medium_circuit, window_extent=80.0, seed=6)
        assert walk.followed_branch in medium_circuit.branch_ids()
        # The first window contains part of the followed branch.
        first = walk.queries[0]
        branch = medium_circuit.branch_segments(walk.followed_branch)
        assert any(first.intersects(s.aabb) for s in branch)

    def test_branch_walk_explicit_branch(self, medium_circuit):
        branch_id = medium_circuit.branch_ids()[0]
        walk = branch_walk(medium_circuit, window_extent=80.0, branch_id=branch_id, seed=7)
        assert walk.followed_branch == branch_id

    def test_branch_walk_deterministic(self, medium_circuit):
        a = branch_walk(medium_circuit, window_extent=80.0, seed=8)
        b = branch_walk(medium_circuit, window_extent=80.0, seed=8)
        assert a.queries == b.queries

    def test_branch_walk_validation(self, medium_circuit):
        with pytest.raises(WorkloadError):
            branch_walk(medium_circuit, window_extent=0.0)
        with pytest.raises(WorkloadError):
            branch_walk(medium_circuit, window_extent=50.0, step_fraction=0.0)

    def test_random_walk_shape(self, medium_circuit):
        walk = random_walk(medium_circuit, window_extent=50.0, steps=7, seed=9)
        assert len(walk.queries) == 7
        assert walk.followed_branch == -1
        world = medium_circuit.bounding_box()
        for center in walk.path:
            assert world.contains_point(center)

    def test_random_walk_validation(self, medium_circuit):
        with pytest.raises(WorkloadError):
            random_walk(medium_circuit, window_extent=50.0, steps=0)


class TestJoinWorkloads:
    def test_uniform_boxes_count_and_uids(self):
        world = AABB(0, 0, 0, 100, 100, 100)
        boxes = uniform_boxes(50, world, extent_mean=2.0, seed=1, uid_offset=1000)
        assert len(boxes) == 50
        assert [b.uid for b in boxes] == list(range(1000, 1050))

    def test_clustered_boxes_are_clustered(self):
        world = AABB(0, 0, 0, 1000, 1000, 1000)
        clustered = clustered_boxes(200, world, extent_mean=2.0, num_clusters=3, seed=2)
        uniform = uniform_boxes(200, world, extent_mean=2.0, seed=2)

        def mean_pairwise_x_spread(boxes):
            xs = sorted(b.aabb.center().x for b in boxes)
            return xs[-1] - xs[0]

        # Clustered data occupies a few hot spots; its hull is usually
        # narrower than a 200-point uniform sample's.  Compare populations
        # near cluster centres instead of hulls for robustness.
        from statistics import pstdev

        assert pstdev(b.aabb.center().x for b in clustered) < pstdev(
            b.aabb.center().x for b in uniform
        ) * 1.1

    def test_synapse_discovery_workload(self, medium_circuit):
        workload = JoinWorkload.synapse_discovery(medium_circuit, eps=2.0)
        assert workload.eps == 2.0
        assert workload.objects_a and workload.objects_b
        uids_a = {s.uid for s in workload.objects_a}
        uids_b = {s.uid for s in workload.objects_b}
        assert not (uids_a & uids_b)

    def test_validation(self):
        world = AABB(0, 0, 0, 1, 1, 1)
        with pytest.raises(WorkloadError):
            uniform_boxes(-1, world, 1.0)
        with pytest.raises(WorkloadError):
            clustered_boxes(10, world, 1.0, num_clusters=0)


class TestTrafficWorkloads:
    def test_mix_and_determinism(self, medium_circuit):
        segments = medium_circuit.segments()
        queries = traffic_workload(segments, 60, seed=5)
        again = traffic_workload(segments, 60, seed=5)
        assert queries == again
        kinds = {type(q) for q in queries}
        assert RangeQuery in kinds and KNNQuery in kinds
        # Read-heavy: ranges dominate the default mix.
        n_ranges = sum(isinstance(q, RangeQuery) for q in queries)
        assert n_ranges > len(queries) // 2

    def test_different_seeds_differ(self, medium_circuit):
        segments = medium_circuit.segments()
        assert traffic_workload(segments, 30, seed=1) != traffic_workload(
            segments, 30, seed=2
        )

    def test_windows_hit_real_data(self, medium_circuit):
        segments = medium_circuit.segments()
        world = medium_circuit.bounding_box()
        for query in traffic_workload(segments, 40, include_joins=False, seed=3):
            if isinstance(query, RangeQuery):
                assert query.box.intersects(world)
            else:
                assert world.expanded(1.0).contains_point(query.point)

    def test_no_joins_flag(self, medium_circuit):
        queries = traffic_workload(
            medium_circuit.segments(), 50, include_joins=False, seed=7
        )
        assert not any(isinstance(q, SpatialJoin) for q in queries)

    def test_validation(self, medium_circuit):
        segments = medium_circuit.segments()
        with pytest.raises(WorkloadError):
            traffic_workload(segments, -1)
        with pytest.raises(WorkloadError):
            traffic_workload(segments, 5, mix=(0.0, 0.0, 0.0))
        with pytest.raises(WorkloadError):
            traffic_workload([], 5)


class TestReadWriteWorkloads:
    def test_determinism_and_mix(self, medium_circuit):
        from repro.engine.mutations import Delete, Insert, Move
        from repro.workloads.traffic import read_write_workload

        segments = medium_circuit.segments()
        ops = read_write_workload(segments, 120, write_fraction=0.3, seed=5)
        assert ops == read_write_workload(segments, 120, write_fraction=0.3, seed=5)
        assert ops != read_write_workload(segments, 120, write_fraction=0.3, seed=6)
        writes = [op for op in ops if isinstance(op, (Insert, Delete, Move))]
        reads = [op for op in ops if not isinstance(op, (Insert, Delete, Move))]
        assert writes and reads
        assert {type(w) for w in writes} == {Insert, Delete, Move}

    def test_stream_is_valid_by_construction(self, medium_circuit):
        """Replaying the stream against a live engine never raises and the
        dataset never shrinks below half its initial size."""
        from repro.engine import SpatialEngine
        from repro.engine.mutations import Delete, Insert, Move
        from repro.workloads.traffic import read_write_workload

        segments = medium_circuit.segments()
        ops = read_write_workload(segments, 150, write_fraction=0.6, seed=11)
        live = {s.uid for s in segments}
        floor = len(live) // 2
        for op in ops:
            if isinstance(op, Insert):
                assert op.obj.uid not in live
                live.add(op.obj.uid)
            elif isinstance(op, Delete):
                assert op.uid in live
                live.discard(op.uid)
                assert len(live) >= floor
            elif isinstance(op, Move):
                assert op.uid in live
        engine = SpatialEngine(segments)
        for op in ops:
            if isinstance(op, (Insert, Delete, Move)):
                engine.apply(op)
            else:
                engine.execute(op)
        assert engine.num_objects == len(live)

    def test_pure_read_and_pure_write_fractions(self, medium_circuit):
        from repro.engine.mutations import Delete, Insert, Move
        from repro.workloads.traffic import read_write_workload

        segments = medium_circuit.segments()
        pure_reads = read_write_workload(segments, 30, write_fraction=0.0, seed=2)
        assert not any(isinstance(op, (Insert, Delete, Move)) for op in pure_reads)
        pure_writes = read_write_workload(segments, 30, write_fraction=1.0, seed=2)
        assert all(isinstance(op, (Insert, Delete, Move)) for op in pure_writes)

    def test_validation(self, medium_circuit):
        from repro.workloads.traffic import read_write_workload

        segments = medium_circuit.segments()
        with pytest.raises(WorkloadError):
            read_write_workload(segments, -1)
        with pytest.raises(WorkloadError):
            read_write_workload(segments, 5, write_fraction=1.5)
        with pytest.raises(WorkloadError):
            read_write_workload(segments, 5, write_mix=(0.0, 0.0, 0.0))
        with pytest.raises(WorkloadError):
            read_write_workload([], 5)

    def test_delete_only_mix_respects_the_floor(self, medium_circuit):
        """A pure-delete write mix must stop at the floor (substituting
        reads), not crash or shrink the dataset to nothing."""
        from repro.engine.mutations import Delete, Insert, Move
        from repro.workloads.traffic import read_write_workload

        segments = medium_circuit.segments()
        ops = read_write_workload(
            segments, 3 * len(segments), write_fraction=1.0,
            write_mix=(0.0, 1.0, 0.0), seed=4,
        )
        deletes = [op for op in ops if isinstance(op, Delete)]
        assert not any(isinstance(op, (Insert, Move)) for op in ops)
        assert len(deletes) == len(segments) - len(segments) // 2
        live = {s.uid for s in segments}
        for op in deletes:
            assert op.uid in live
            live.discard(op.uid)
        assert len(live) == len(segments) // 2

    def test_no_insert_mix_substitutes_moves_at_the_floor(self, medium_circuit):
        from repro.engine.mutations import Delete, Insert, Move
        from repro.workloads.traffic import read_write_workload

        segments = medium_circuit.segments()
        ops = read_write_workload(
            segments, 3 * len(segments), write_fraction=1.0,
            write_mix=(0.0, 0.5, 0.5), seed=4,
        )
        assert not any(isinstance(op, Insert) for op in ops)
        live = {s.uid for s in segments}
        floor = len(live) // 2
        for op in ops:
            if isinstance(op, Delete):
                live.discard(op.uid)
            assert len(live) >= floor
        assert any(isinstance(op, Move) for op in ops)
