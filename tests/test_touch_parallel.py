"""TOUCH's sharded probe: B split across a real worker pool.

One set of level arrays over A is built once and shared read-only; each
worker joins its own slice of B with :func:`probe_shard`, the same
concurrent use :class:`~repro.service.ShardedEngine`'s join makes of it.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.touch.join import probe_shard, touch_join
from repro.core.touch.tree import touch_levels
from repro.geometry.aabb import AABB
from repro.workloads.joins import uniform_boxes

WORLD = AABB(0, 0, 0, 100, 100, 100)


def make_pair(n: int = 200, seed: int = 0):
    a = uniform_boxes(n, WORLD, extent_mean=4.0, seed=seed)
    b = uniform_boxes(n, WORLD, extent_mean=4.0, seed=seed + 1, uid_offset=10_000)
    return a, b


def pooled_probes(a, b, eps: float, shards: int):
    """Run :func:`probe_shard` for every round-robin B shard on a real pool.

    The same concurrent use :class:`~repro.service.ShardedEngine`'s
    thread-mode TOUCH join makes of it: one shared set of level arrays,
    each worker joining its own slice of B.
    """
    levels = touch_levels(a)
    deals = [b[shard::shards] for shard in range(shards)]
    with ThreadPoolExecutor(max_workers=shards) as pool:
        outcomes = list(pool.map(lambda deal: probe_shard(levels, deal, eps, None), deals))
    return levels, outcomes


class TestRealPool:
    """:func:`probe_shard` calls run concurrently on one shared hierarchy."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_parallel_matches_simulated_exactly(self, shards):
        a, b = make_pair(seed=7)
        _levels, outcomes = pooled_probes(a, b, eps=2.0, shards=shards)
        # The reference: the same deals probed one after another on this
        # thread, against a hierarchy no other thread has read.
        levels = touch_levels(a)
        sequential = [probe_shard(levels, b[shard::shards], 2.0, None) for shard in range(shards)]
        # Not just the same set: the same concatenation order (shard order,
        # and within a shard a pure function of its input).
        assert [pair for pairs, _c, _ms in outcomes for pair in pairs] == [
            pair for pairs, _c, _ms in sequential for pair in pairs
        ]
        assert sum(c.comparisons for _p, c, _ms in outcomes) == sum(
            c.comparisons for _p, c, _ms in sequential
        )
        assert sum(c.results for _p, c, _ms in outcomes) == sum(
            c.results for _p, c, _ms in sequential
        )
        assert [c.n_b for _p, c, _ms in outcomes] == [c.n_b for _p, c, _ms in sequential]

    def test_parallel_matches_single_node_touch(self):
        a, b = make_pair(seed=8)
        expected = touch_join(a, b, eps=1.5).sorted_pairs()
        _levels, outcomes = pooled_probes(a, b, eps=1.5, shards=4)
        assert sorted(pair for pairs, _c, _ms in outcomes for pair in pairs) == expected

    def test_shared_tree_is_left_clean(self):
        """Concurrent workers never write to the shared level arrays."""
        a, b = make_pair(seed=10)
        fresh = pickle.dumps(touch_levels(a).packed)
        levels, _outcomes = pooled_probes(a, b, eps=2.0, shards=4)
        assert pickle.dumps(levels.packed) == fresh
