"""Unit tests for STR bulk loading."""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.engine import SpatialEngine
from repro.errors import IndexError_
from repro.experiments.datasets import circuit_dataset
from repro.geometry.aabb import AABB
from repro.rtree.bulk import str_bulk_load, str_chunks, str_tiles
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree
from repro.utils.rng import make_rng

T = TypeVar("T")


def reference_str_chunks(
    items: Sequence[T],
    capacity: int,
    center_of: Callable[[T], tuple[float, float, float]],
) -> list[list[T]]:
    """STR over Python objects with ``sorted()`` by a centre key: the reference.

    :func:`str_chunks` must tile index rows exactly as this tiles the
    objects, member for member and in order.
    """
    n = len(items)
    if n == 0:
        return []
    if n <= capacity:
        return [list(items)]
    num_tiles = math.ceil(n / capacity)
    slabs_x = math.ceil(num_tiles ** (1.0 / 3.0))
    per_slab = math.ceil(n / slabs_x)
    by_x = sorted(items, key=lambda it: center_of(it)[0])
    chunks: list[list[T]] = []
    for sx in range(0, n, per_slab):
        slab = by_x[sx : sx + per_slab]
        tiles_in_slab = math.ceil(len(slab) / capacity)
        runs_y = math.ceil(math.sqrt(tiles_in_slab))
        per_run = math.ceil(len(slab) / runs_y)
        by_y = sorted(slab, key=lambda it: center_of(it)[1])
        for sy in range(0, len(slab), per_run):
            run = by_y[sy : sy + per_run]
            by_z = sorted(run, key=lambda it: center_of(it)[2])
            for sz in range(0, len(run), capacity):
                chunks.append(by_z[sz : sz + capacity])
    return chunks


def reference_str_bulk_load(
    items: Sequence[tuple[int, AABB]], max_entries: int, leaf_capacity: int | None = None
) -> RTree:
    """:func:`str_bulk_load` over entry objects with the ``sorted()`` STR reference."""

    def center(entry: Entry) -> tuple[float, float, float]:
        c = entry.mbr.center()
        return (c.x, c.y, c.z)

    leaf_cap = leaf_capacity if leaf_capacity is not None else max_entries
    leaf_entries = [Entry(mbr=mbr, uid=uid) for uid, mbr in items]
    nodes = [
        Node(level=0, entries=group)
        for group in reference_str_chunks(leaf_entries, leaf_cap, center)
    ]
    while len(nodes) > 1:
        entries = [Entry(mbr=node.mbr(), child=node) for node in nodes]
        nodes = [
            Node(level=nodes[0].level + 1, entries=group)
            for group in reference_str_chunks(entries, max_entries, center)
        ]
    return RTree._from_root(
        nodes[0], size=len(items), max_entries=max_entries, leaf_capacity=leaf_capacity
    )


def tree_layout(tree: RTree) -> list[tuple[int, int, list[tuple[tuple[float, ...], int | None]]]]:
    """Every node, depth first: its id, level and entries (box bounds, uid)."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.node_id, node.level, [(e.mbr.bounds(), e.uid) for e in node.entries]))
        stack.extend(e.child for e in reversed(node.entries) if e.child is not None)
    return out


def tied_items(n: int, seed: int) -> list[tuple[int, AABB]]:
    """Boxes on a coarse integer grid: many exactly tied centres."""
    rng = make_rng(seed)
    items = []
    for uid in range(n):
        lo = [float(v) for v in rng.integers(0, 4, size=3)]
        size = [float(v) for v in rng.integers(0, 3, size=3)]
        items.append((uid, AABB(*lo, *(a + d for a, d in zip(lo, size)))))
    return items


def random_items(n: int, seed: int = 0) -> list[tuple[int, AABB]]:
    rng = make_rng(seed)
    items = []
    for uid in range(n):
        x, y, z = (float(v) for v in rng.uniform(0, 100, size=3))
        items.append((uid, AABB(x, y, z, x + 1, y + 1, z + 1)))
    return items


def as_lists(chunks: list[np.ndarray]) -> list[list[int]]:
    return [chunk.tolist() for chunk in chunks]


class TestStrChunks:
    def test_chunk_sizes(self):
        centers = np.array([(float(i), 0.0, 0.0) for i in range(100)])
        chunks = str_chunks(centers, 9)
        assert sorted(i for chunk in chunks for i in chunk.tolist()) == list(range(100))
        assert all(len(c) <= 9 for c in chunks)

    def test_single_chunk_when_small(self):
        # Three rows in reverse x order: one tile, in input order, unsorted.
        centers = np.array([(3.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        assert as_lists(str_chunks(centers, 10)) == [[0, 1, 2]]

    def test_empty_input(self):
        assert str_chunks(np.empty((0, 3)), 4) == []

    def test_bad_capacity_raises(self):
        with pytest.raises(IndexError_):
            str_chunks(np.zeros((1, 3)), 0)

    def test_spatial_coherence_on_grid(self):
        # 4x4x4 grid, capacity 4: every tile should have a small spread.
        centers = np.array([(float(i % 4), float((i // 4) % 4), float(i // 16)) for i in range(64)])
        for chunk in str_chunks(centers, 4):
            tile = centers[chunk]
            assert float((tile.max(axis=0) - tile.min(axis=0)).sum()) <= 4.0


# Centres on a coarse grid, so many rows tie on one or more axes.
tied_center = st.tuples(*[st.integers(min_value=0, max_value=3).map(float)] * 3)


@given(
    centers=st.lists(tied_center, max_size=120),
    capacity=st.integers(min_value=1, max_value=12),
)
def test_str_chunks_match_the_sorted_reference(centers, capacity):
    rows = list(range(len(centers)))
    expected = reference_str_chunks(rows, capacity, lambda i: centers[i])
    assert as_lists(str_chunks(np.array(centers, dtype=float).reshape(-1, 3), capacity)) == expected


@pytest.mark.parametrize("extra", [-3, 0, 1])
@pytest.mark.parametrize("capacity", [1, 5])
def test_str_chunks_at_the_capacity_edges(capacity, extra):
    # n <= capacity, n == capacity + 1 and capacity 1, all with tied centres.
    n = max(capacity + extra, 1)
    centers = [(float(i % 2), 1.0, float(i % 3)) for i in range(n)]
    expected = reference_str_chunks(list(range(n)), capacity, lambda i: centers[i])
    assert as_lists(str_chunks(np.array(centers), capacity)) == expected


def test_str_tiles_mbrs_are_the_union_of_their_members():
    items = random_items(200, seed=9)
    bounds = np.array([mbr.bounds() for _uid, mbr in items])
    chunks, mbrs = str_tiles(bounds, 7)
    assert len(mbrs) == len(chunks)
    for chunk, mbr in zip(chunks, mbrs.tolist()):
        assert AABB(*mbr) == AABB.union_all(items[i][1] for i in chunk.tolist())


class TestReferenceLayout:
    """Bulk-loaded trees equal the ``sorted()`` reference's, node for node."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tied_centres(self, seed):
        items = tied_items(300 + 91 * seed, seed)
        shape = {"max_entries": 3 + seed, "leaf_capacity": 5 + 2 * seed}
        assert tree_layout(str_bulk_load(items, **shape)) == tree_layout(
            reference_str_bulk_load(items, **shape)
        )

    def test_object_rtree_of_the_analyze_circuit(self):
        circuit = circuit_dataset(n_neurons=40)
        engine = SpatialEngine(circuit.segments(), circuit=circuit)
        items = [(o.uid, o.aabb) for o in engine.objects]
        assert tree_layout(engine.object_rtree()) == tree_layout(
            reference_str_bulk_load(
                items, max_entries=engine.seed_fanout, leaf_capacity=engine.page_capacity
            )
        )


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
