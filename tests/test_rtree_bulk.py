"""Unit tests for STR and Hilbert bulk loading."""

from __future__ import annotations

import pytest

from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.rtree.bulk import str_bulk_load, str_chunks
from repro.utils.rng import make_rng


def random_items(n: int, seed: int = 0) -> list[tuple[int, AABB]]:
    rng = make_rng(seed)
    items = []
    for uid in range(n):
        x, y, z = (float(v) for v in rng.uniform(0, 100, size=3))
        items.append((uid, AABB(x, y, z, x + 1, y + 1, z + 1)))
    return items


class TestStrChunks:
    def test_chunk_sizes(self):
        items = list(range(100))
        chunks = str_chunks(items, 9, lambda i: (float(i), 0.0, 0.0))
        assert sum(len(c) for c in chunks) == 100
        assert all(len(c) <= 9 for c in chunks)

    def test_single_chunk_when_small(self):
        chunks = str_chunks([1, 2, 3], 10, lambda i: (float(i), 0.0, 0.0))
        assert chunks == [[1, 2, 3]]

    def test_empty_input(self):
        assert str_chunks([], 4, lambda i: (0.0, 0.0, 0.0)) == []

    def test_bad_capacity_raises(self):
        with pytest.raises(IndexError_):
            str_chunks([1], 0, lambda i: (0.0, 0.0, 0.0))

    def test_spatial_coherence_on_grid(self):
        # 4x4x4 grid, capacity 4: every tile should have a small spread.
        points = [
            (i, (float(i % 4), float((i // 4) % 4), float(i // 16)))
            for i in range(64)
        ]
        chunks = str_chunks(points, 4, lambda p: p[1])
        for chunk in chunks:
            xs = [p[1][0] for p in chunk]
            ys = [p[1][1] for p in chunk]
            zs = [p[1][2] for p in chunk]
            spread = (max(xs) - min(xs)) + (max(ys) - min(ys)) + (max(zs) - min(zs))
            assert spread <= 4.0


@pytest.mark.parametrize("loader", [str_bulk_load])
class TestBulkLoaders:
    def test_queries_match_brute_force(self, loader):
        items = random_items(500, seed=1)
        tree = loader(items, max_entries=16)
        tree.validate()
        assert len(tree) == 500
        for box in (AABB(0, 0, 0, 30, 30, 30), AABB(50, 50, 50, 101, 101, 101)):
            expected = sorted(uid for uid, mbr in items if mbr.intersects(box))
            assert sorted(tree.range_query(box)) == expected

    def test_empty_input(self, loader):
        tree = loader([], max_entries=8)
        assert len(tree) == 0
        tree.validate()

    def test_single_item(self, loader):
        tree = loader([(7, AABB(0, 0, 0, 1, 1, 1))], max_entries=8)
        assert tree.range_query(AABB(0, 0, 0, 2, 2, 2)) == [7]
        tree.validate()

    def test_separate_leaf_capacity(self, loader):
        items = random_items(300, seed=2)
        tree = loader(items, max_entries=8, leaf_capacity=40)
        tree.validate()
        for node in tree.iter_nodes():
            if node.is_leaf:
                assert node.num_entries <= 40
            else:
                assert node.num_entries <= 8

    def test_dynamic_insert_after_bulk_load(self, loader):
        items = random_items(200, seed=3)
        tree = loader(items, max_entries=8)
        tree.insert(999, AABB(5, 5, 5, 6, 6, 6))
        tree.validate()
        assert 999 in tree.range_query(AABB(4, 4, 4, 7, 7, 7))

    def test_node_ids_unique(self, loader):
        tree = loader(random_items(300, seed=4), max_entries=8)
        ids = [node.node_id for node in tree.iter_nodes()]
        assert len(ids) == len(set(ids))


class TestPackingQuality:
    def test_str_beats_insertion_on_overlap(self):
        items = random_items(600, seed=5)
        packed = str_bulk_load(items, max_entries=8)
        from repro.rtree.tree import RTree

        inserted = RTree(max_entries=8)
        for uid, mbr in items:
            inserted.insert(uid, mbr)
        assert packed.overlap_factor() <= inserted.overlap_factor()

    def test_str_fewer_nodes_than_insertion(self):
        items = random_items(600, seed=6)
        packed = str_bulk_load(items, max_entries=8)
        from repro.rtree.tree import RTree

        inserted = RTree(max_entries=8)
        for uid, mbr in items:
            inserted.insert(uid, mbr)
        assert packed.node_count() <= inserted.node_count()
