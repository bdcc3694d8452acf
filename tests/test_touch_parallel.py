"""Tests for the sharded (supercomputer-model) TOUCH join."""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.touch.join import touch_join
from repro.core.touch.parallel import probe_shard, sharded_touch_join
from repro.core.touch.tree import build_touch_tree, touch_levels
from repro.errors import JoinError
from repro.geometry.aabb import AABB
from repro.workloads.joins import uniform_boxes

WORLD = AABB(0, 0, 0, 100, 100, 100)


def make_pair(n: int = 200, seed: int = 0):
    a = uniform_boxes(n, WORLD, extent_mean=4.0, seed=seed)
    b = uniform_boxes(n, WORLD, extent_mean=4.0, seed=seed + 1, uid_offset=10_000)
    return a, b


class TestCorrectness:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_matches_single_node_touch(self, shards):
        a, b = make_pair(seed=1)
        expected = touch_join(a, b, eps=2.0).sorted_pairs()
        sharded = sharded_touch_join(a, b, eps=2.0, shards=shards)
        assert sharded.sorted_pairs() == expected

    def test_empty_inputs(self):
        a, b = make_pair(seed=2)
        assert sharded_touch_join([], b, shards=4).pairs == []
        assert sharded_touch_join(a, [], shards=4).pairs == []

    def test_shard_validation(self):
        a, b = make_pair(seed=3)
        with pytest.raises(JoinError):
            sharded_touch_join(a, b, shards=0)

    @given(st.integers(min_value=1, max_value=12))
    def test_any_shard_count_agrees(self, shards):
        a, b = make_pair(n=80, seed=4)
        expected = touch_join(a, b, eps=1.0).sorted_pairs()
        assert sharded_touch_join(a, b, eps=1.0, shards=shards).sorted_pairs() == expected


def pooled_probes(a, b, eps: float, shards: int):
    """Run :func:`probe_shard` for every round-robin B shard on a real pool.

    The same concurrent use :class:`~repro.service.ShardedEngine`'s
    thread-mode TOUCH join makes of it: one shared set of level arrays,
    each worker joining its own slice of B.
    """
    levels = touch_levels(build_touch_tree(a))
    deals = [b[shard::shards] for shard in range(shards)]
    with ThreadPoolExecutor(max_workers=shards) as pool:
        outcomes = list(pool.map(lambda deal: probe_shard(levels, deal, eps, None), deals))
    return levels, outcomes


class TestRealPool:
    """:func:`probe_shard` calls run concurrently on one shared hierarchy."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_parallel_matches_simulated_exactly(self, shards):
        a, b = make_pair(seed=7)
        simulated = sharded_touch_join(a, b, eps=2.0, shards=shards)
        _levels, outcomes = pooled_probes(a, b, eps=2.0, shards=shards)
        # Not just the same set: the same concatenation order (shard order,
        # and within a shard a pure function of its input).
        assert [pair for pairs, _c, _ms in outcomes for pair in pairs] == simulated.pairs
        assert sum(c.comparisons for _p, c, _ms in outcomes) == simulated.stats.comparisons
        assert sum(c.results for _p, c, _ms in outcomes) == simulated.stats.results
        assert [c.n_b for _p, c, _ms in outcomes] == [s.n_b for s in simulated.shards]

    def test_parallel_matches_single_node_touch(self):
        a, b = make_pair(seed=8)
        expected = touch_join(a, b, eps=1.5).sorted_pairs()
        _levels, outcomes = pooled_probes(a, b, eps=1.5, shards=4)
        assert sorted(pair for pairs, _c, _ms in outcomes for pair in pairs) == expected

    def test_shared_tree_is_left_clean(self):
        """Concurrent workers never write to the shared level arrays."""
        a, b = make_pair(seed=10)
        fresh = pickle.dumps(touch_levels(build_touch_tree(a)).packed)
        levels, _outcomes = pooled_probes(a, b, eps=2.0, shards=4)
        assert pickle.dumps(levels.packed) == fresh


class TestExecutionModel:
    def test_shard_sizes_balanced(self):
        a, b = make_pair(n=100, seed=5)
        result = sharded_touch_join(a, b, eps=1.0, shards=4)
        sizes = [s.n_b for s in result.shards]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1  # round-robin deal

    def test_makespan_below_total_work(self):
        a, b = make_pair(n=300, seed=6)
        result = sharded_touch_join(a, b, eps=2.0, shards=4)
        assert result.makespan_ms <= result.total_work_ms
        assert 0.0 < result.balance <= 1.0

    def test_work_conserved_across_shards(self):
        a, b = make_pair(n=300, seed=7)
        single = sharded_touch_join(a, b, eps=2.0, shards=1)
        multi = sharded_touch_join(a, b, eps=2.0, shards=5)
        # Comparisons are identical: sharding only partitions the probes.
        assert multi.stats.comparisons == single.stats.comparisons
        assert multi.stats.results == single.stats.results
        assert multi.stats.filtered == single.stats.filtered

    def test_results_counted_per_shard(self):
        a, b = make_pair(n=200, seed=8)
        result = sharded_touch_join(a, b, eps=2.0, shards=3)
        assert sum(s.results for s in result.shards) == len(result.pairs)
