"""Unit tests for node splitting policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.rtree.node import Entry
from repro.rtree.split import quadratic_split
from repro.rtree.tree import RTree


def entries_at(positions: list[tuple[float, float, float]], size: float = 1.0) -> list[Entry]:
    return [
        Entry(
            mbr=AABB(x, y, z, x + size, y + size, z + size),
            uid=i,
        )
        for i, (x, y, z) in enumerate(positions)
    ]


@pytest.mark.parametrize("split", [quadratic_split])
class TestSplitContracts:
    def test_partition_preserves_entries(self, split):
        entries = entries_at([(0, 0, 0), (10, 0, 0), (0.5, 0, 0), (10.5, 0, 0), (5, 5, 5)])
        a, b = split(entries, min_entries=2)
        uids = sorted(e.uid for e in a) + sorted(e.uid for e in b)
        assert sorted(uids) == [0, 1, 2, 3, 4]

    def test_minimum_fill_respected(self, split):
        entries = entries_at([(i, 0, 0) for i in range(10)])
        a, b = split(entries, min_entries=4)
        assert len(a) >= 4 and len(b) >= 4

    def test_two_entries(self, split):
        entries = entries_at([(0, 0, 0), (10, 10, 10)])
        a, b = split(entries, min_entries=1)
        assert len(a) == 1 and len(b) == 1

    def test_too_few_entries_raise(self, split):
        with pytest.raises(IndexError_):
            split(entries_at([(0, 0, 0)]), min_entries=1)

    def test_unsatisfiable_min_fill_raises(self, split):
        entries = entries_at([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        with pytest.raises(IndexError_):
            split(entries, min_entries=2)

    def test_identical_boxes_split_evenly_enough(self, split):
        entries = entries_at([(0, 0, 0)] * 6)
        a, b = split(entries, min_entries=2)
        assert len(a) + len(b) == 6
        assert min(len(a), len(b)) >= 2


class TestQuadraticQuality:
    def test_separates_two_distant_clusters(self):
        cluster_a = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        cluster_b = [(100, 100, 100), (101, 100, 100), (100, 101, 100)]
        entries = entries_at(cluster_a + cluster_b)
        a, b = quadratic_split(entries, min_entries=2)
        group_of = {}
        for e in a:
            group_of[e.uid] = "a"
        for e in b:
            group_of[e.uid] = "b"
        # All of cluster A in one group, all of cluster B in the other.
        assert len({group_of[i] for i in (0, 1, 2)}) == 1
        assert len({group_of[i] for i in (3, 4, 5)}) == 1
        assert group_of[0] != group_of[3]


# -- scalar reference ---------------------------------------------------------
#
# Guttman's quadratic split written entry by entry over AABB arithmetic.  The
# library's split is array-vectorised; it must make every choice this one
# makes (first maximum wins; seeds fall back to (0, 1) when no pair's waste
# beats -1.0), so the trees they build are identical.


def reference_quadratic_split(entries, min_entries):
    seed_a, seed_b = _reference_pick_seeds(entries)
    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    mbr_a = entries[seed_a].mbr
    mbr_b = entries[seed_b].mbr
    remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
    while remaining:
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        index = _reference_pick_next(remaining, mbr_a, mbr_b)
        entry = remaining.pop(index)
        growth_a = mbr_a.enlargement(entry.mbr)
        growth_b = mbr_b.enlargement(entry.mbr)
        prefer_a = growth_a < growth_b
        if growth_a == growth_b:
            if mbr_a.volume() != mbr_b.volume():
                prefer_a = mbr_a.volume() < mbr_b.volume()
            else:
                prefer_a = len(group_a) <= len(group_b)
        if prefer_a:
            group_a.append(entry)
            mbr_a = mbr_a.union(entry.mbr)
        else:
            group_b.append(entry)
            mbr_b = mbr_b.union(entry.mbr)
    return group_a, group_b


def _reference_pick_seeds(entries):
    worst = -1.0
    seeds = (0, 1)
    for i in range(len(entries)):
        vol_i = entries[i].mbr.volume()
        for j in range(i + 1, len(entries)):
            waste = entries[i].mbr.union(entries[j].mbr).volume() - vol_i - entries[j].mbr.volume()
            if waste > worst:
                worst = waste
                seeds = (i, j)
    return seeds


def _reference_pick_next(remaining, mbr_a, mbr_b):
    best_index = 0
    best_diff = -1.0
    for i, entry in enumerate(remaining):
        diff = abs(mbr_a.enlargement(entry.mbr) - mbr_b.enlargement(entry.mbr))
        if diff > best_diff:
            best_diff = diff
            best_index = i
    return best_index


def random_entries(rng, n: int, duplicates: int = 0) -> list[Entry]:
    """``n`` seeded boxes; the last ``duplicates`` repeat earlier boxes."""
    entries = []
    for uid in range(n):
        if uid >= n - duplicates:
            mbr = entries[int(rng.integers(0, n - duplicates))].mbr
        else:
            lo = rng.uniform(0.0, 100.0, size=3)
            size = rng.uniform(0.05, 8.0, size=3)
            mbr = AABB(*lo, *(lo + size))
        entries.append(Entry(mbr=mbr, uid=uid))
    return entries


def uids(group) -> list[int]:
    return [e.uid for e in group]


class TestQuadraticMatchesScalarReference:
    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_sets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 87))
        entries = random_entries(rng, n, duplicates=int(rng.integers(0, n // 3 + 1)))
        min_fill = int(rng.integers(1, n // 2 + 1))
        got = quadratic_split(entries, min_fill)
        want = reference_quadratic_split(entries, min_fill)
        assert (uids(got[0]), uids(got[1])) == (uids(want[0]), uids(want[1]))

    @pytest.mark.parametrize("n", [5, 34, 86])
    def test_duplicate_boxes_fall_back_to_first_pair(self, n):
        # Every pair of identical boxes of volume 8 wastes -8: no pair
        # beats -1.0, so both splits must seed on entries 0 and 1.
        entries = [Entry(mbr=AABB(0, 0, 0, 2, 2, 2), uid=uid) for uid in range(n)]
        got = quadratic_split(entries, n // 3)
        want = reference_quadratic_split(entries, n // 3)
        assert uids(got[0])[0] == 0 and uids(got[1])[0] == 1
        assert (uids(got[0]), uids(got[1])) == (uids(want[0]), uids(want[1]))

    def test_nested_boxes_fall_back_even_when_a_later_pair_wastes_least(self):
        # Concentric cubes, largest first: pair (i, j) wastes minus the
        # smaller volume, so (0, n-1) wastes least — yet every waste is
        # below -1.0, and the seeds must still be (0, 1).
        sides = [6.0, 5.0, 4.0, 3.0, 2.0, 1.5]
        entries = [
            Entry(mbr=AABB.from_center_extent((0.0, 0.0, 0.0), side), uid=uid)
            for uid, side in enumerate(sides)
        ]
        got = quadratic_split(entries, 2)
        want = reference_quadratic_split(entries, 2)
        assert uids(got[0])[0] == 0 and uids(got[1])[0] == 1
        assert (uids(got[0]), uids(got[1])) == (uids(want[0]), uids(want[1]))

    def test_grown_and_shrunk_tree_matches_node_for_node(self):
        rng = np.random.default_rng(2013)
        trees = [
            RTree(max_entries=16, leaf_capacity=85, split=split)
            for split in (quadratic_split, reference_quadratic_split)
        ]
        live: dict[int, AABB] = {}
        next_uid = 0
        for step in range(3000):
            if live and (step % 4 == 3):
                uid = sorted(live)[int(rng.integers(0, len(live)))]
                box = live.pop(uid)
                for tree in trees:
                    tree.delete(uid, box)
            else:
                lo = rng.uniform(0.0, 200.0, size=3)
                box = AABB(*lo, *(lo + rng.uniform(0.1, 6.0, size=3)))
                live[next_uid] = box
                for tree in trees:
                    tree.insert(next_uid, box)
                next_uid += 1
        layouts = [
            [
                (node.level, [e.uid if node.is_leaf else e.mbr for e in node.entries])
                for node in tree.iter_nodes()
            ]
            for tree in trees
        ]
        assert layouts[0] == layouts[1]
        assert sum(1 for node in trees[0].iter_nodes() if node.is_leaf) > 10
