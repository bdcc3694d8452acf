"""Unit tests for FLAT's partitioning and neighborhood construction."""

from __future__ import annotations

import pytest

from repro.core.flat.index import FLATIndex
from repro.core.flat.neighborhood import build_neighbor_links, default_neighbor_eps
from repro.core.flat.partitions import build_partitions
from repro.engine.engine import SpatialEngine
from repro.errors import IndexError_
from repro.experiments.datasets import circuit_dataset
from repro.geometry.aabb import AABB
from repro.objects import BoxObject
from tests.conftest import grid_boxes
from tests.test_rtree_bulk import (
    reference_str_bulk_load,
    reference_str_chunks,
    tied_items,
    tree_layout,
)


def reference_partitions(objects, page_capacity):
    """``(id, MBR bounds, uids)`` per partition, tiled by the ``sorted()`` STR reference."""

    def center(obj):
        c = obj.aabb.center()
        return (c.x, c.y, c.z)

    return [
        (pid, AABB.union_all(o.aabb for o in chunk).bounds(), tuple(o.uid for o in chunk))
        for pid, chunk in enumerate(reference_str_chunks(list(objects), page_capacity, center))
    ]


def layout(partitions):
    return [(p.partition_id, p.mbr.bounds(), p.object_uids) for p in partitions]


class TestPartitions:
    def test_every_object_in_exactly_one_partition(self):
        objects = grid_boxes(4)
        partitions = build_partitions(objects, page_capacity=8)
        seen: list[int] = []
        for p in partitions:
            seen.extend(p.object_uids)
        assert sorted(seen) == [o.uid for o in objects]

    def test_capacity_respected(self):
        partitions = build_partitions(grid_boxes(4), page_capacity=7)
        assert all(p.num_objects <= 7 for p in partitions)

    def test_partition_ids_sequential(self):
        partitions = build_partitions(grid_boxes(3), page_capacity=5)
        assert [p.partition_id for p in partitions] == list(range(len(partitions)))

    def test_mbr_covers_members(self):
        objects = grid_boxes(4)
        by_uid = {o.uid: o for o in objects}
        for p in build_partitions(objects, page_capacity=6):
            for uid in p.object_uids:
                assert p.mbr.contains_box(by_uid[uid].aabb)

    def test_partitions_spatially_tight(self):
        # STR tiling on a regular grid: partition MBR volume stays near the
        # sum of its members' volumes (low dead space).
        objects = grid_boxes(4, spacing=2.0, size=1.0)
        for p in build_partitions(objects, page_capacity=8):
            assert p.mbr.volume() <= 8 * 27.0  # 8 cells of (2+1)^3 worst case

    def test_empty_dataset_raises(self):
        with pytest.raises(IndexError_):
            build_partitions([], page_capacity=4)

    def test_bad_capacity_raises(self):
        with pytest.raises(IndexError_):
            build_partitions(grid_boxes(2), page_capacity=0)


class TestReferenceLayout:
    """Partitions and the seed tree equal the ``sorted()`` reference's, page for page."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tied_centres(self, seed):
        objects = [BoxObject(uid=uid, box=box) for uid, box in tied_items(400 + 53 * seed, seed)]
        assert layout(build_partitions(objects, 6 + seed)) == reference_partitions(
            objects, 6 + seed
        )

    def test_flat_index_of_the_analyze_circuit(self):
        # The engine's FLAT index tiles the arena's bounds array.
        circuit = circuit_dataset(n_neurons=40)
        engine = SpatialEngine(circuit.segments(), circuit=circuit)
        index = engine.flat_index()
        assert layout(index.partitions) == reference_partitions(
            engine.objects, engine.page_capacity
        )
        items = [(p.partition_id, p.mbr) for p in index.partitions]
        assert tree_layout(index.seed_tree) == tree_layout(
            reference_str_bulk_load(items, max_entries=engine.seed_fanout)
        )

    def test_overflow_splits(self):
        # Every insert that overflows a page retiles its members plus the
        # new object as the reference tiles them into two halves.
        objects = [BoxObject(uid=uid, box=box) for uid, box in tied_items(90, 7)]
        by_uid = {o.uid: o for o in objects}
        index = FLATIndex(objects[:40], page_capacity=4)
        splits = 0
        for obj in objects[40:]:
            before = [p.object_uids for p in index.partitions]
            index.insert(obj)
            if len(index.partitions) == len(before):
                continue
            splits += 1
            pid = next(
                pid for pid, uids in enumerate(before) if index.partitions[pid].object_uids != uids
            )
            members = [by_uid[uid] for uid in before[pid] + (obj.uid,)]
            expected = reference_partitions(members, (len(members) + 1) // 2)
            new = [index.partitions[pid], *index.partitions[len(before) :]]
            assert [(p.mbr.bounds(), p.object_uids) for p in new] == [
                (mbr, uids) for _pid, mbr, uids in expected
            ]
        assert splits > 5


class TestNeighborhood:
    def test_links_symmetric(self):
        partitions = build_partitions(grid_boxes(4), page_capacity=4)
        eps = default_neighbor_eps(partitions)
        neighbors = build_neighbor_links(partitions, eps)
        for pid, adjacency in enumerate(neighbors):
            for other in adjacency:
                assert pid in neighbors[other]

    def test_no_self_links(self):
        partitions = build_partitions(grid_boxes(3), page_capacity=4)
        neighbors = build_neighbor_links(partitions, 1.0)
        for pid, adjacency in enumerate(neighbors):
            assert pid not in adjacency

    def test_links_match_brute_force(self):
        partitions = build_partitions(grid_boxes(4), page_capacity=4)
        eps = 1.5
        neighbors = build_neighbor_links(partitions, eps)
        for i, a in enumerate(partitions):
            expected = sorted(
                j
                for j, b in enumerate(partitions)
                if j != i and a.mbr.intersects_expanded(b.mbr, eps)
            )
            assert neighbors[i] == expected

    def test_zero_eps_links_only_overlapping(self):
        # Grid partitions of disjoint boxes: with eps=0 only partitions with
        # actually intersecting MBRs are linked.
        partitions = build_partitions(grid_boxes(4, spacing=3.0), page_capacity=4)
        neighbors = build_neighbor_links(partitions, 0.0)
        for i, adjacency in enumerate(neighbors):
            for j in adjacency:
                assert partitions[i].mbr.intersects(partitions[j].mbr)

    def test_default_eps_positive(self):
        partitions = build_partitions(grid_boxes(3), page_capacity=4)
        assert default_neighbor_eps(partitions) > 0.0

    def test_default_eps_empty(self):
        assert default_neighbor_eps([]) == 0.0

    def test_larger_eps_more_links(self):
        partitions = build_partitions(grid_boxes(4), page_capacity=4)
        few = sum(len(a) for a in build_neighbor_links(partitions, 0.1))
        many = sum(len(a) for a in build_neighbor_links(partitions, 5.0))
        assert many >= few
