"""Sharded TOUCH: the supercomputer execution model.

"To perform the spatial join at scale, the neuroscientists run it in the
main memory of either a supercomputer (BlueGene/P) or a cluster" (paper
§4).  TOUCH parallelises naturally: phase 1's hierarchy over A is built
once, flattened into level arrays and *shared read-only*; B is split into
shards, each worker assigns and probes its shard independently, and
results concatenate without any deduplication (each B object still lands
in exactly one bucket).

Workers run sequentially in the caller's thread; per-shard costs are
measured and the *makespan* (the slowest shard, i.e. the modelled
parallel wall-clock) is reported alongside the total work.  Deterministic,
and the mode every committed claim uses.  The real concurrent path is
:class:`~repro.service.ShardedEngine`'s thread-mode TOUCH join, which runs
:func:`probe_shard` on its worker pool.  A bucket is an entry of the
calling worker's own per-B array, so the shared level arrays are never
written, no locks are needed, and pairs concatenate in shard-id order
whatever the thread schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.touch.join import join_levels
from repro.core.touch.stats import REF_BYTES, JoinStats, RefineFunc
from repro.core.touch.tree import TouchLevels, build_touch_tree, touch_levels
from repro.errors import JoinError
from repro.objects import SpatialObject

__all__ = ["sharded_touch_join", "probe_shard", "ShardedJoinResult", "ShardStats"]


@dataclass
class ShardStats:
    """Work done by one (simulated) worker."""

    shard_id: int
    n_b: int
    comparisons: int
    results: int
    filtered: int
    elapsed_ms: float


@dataclass
class ShardedJoinResult:
    """Concatenated pairs plus the per-worker breakdown."""

    pairs: list[tuple[int, int]]
    shards: list[ShardStats]
    build_ms: float
    stats: JoinStats

    @property
    def makespan_ms(self) -> float:
        """Parallel wall-clock: build + the slowest shard."""
        slowest = max((s.elapsed_ms for s in self.shards), default=0.0)
        return self.build_ms + slowest

    @property
    def total_work_ms(self) -> float:
        return self.build_ms + sum(s.elapsed_ms for s in self.shards)

    @property
    def balance(self) -> float:
        """Mean/max shard time — 1.0 is a perfectly balanced cluster."""
        times = [s.elapsed_ms for s in self.shards]
        if not times or max(times) == 0.0:
            return 1.0
        return (sum(times) / len(times)) / max(times)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


def probe_shard(
    levels: TouchLevels,
    shard_b: Sequence[SpatialObject],
    eps: float,
    refine: RefineFunc | None,
    filtering: bool = True,
) -> tuple[list[tuple[int, int]], JoinStats, float]:
    """Run TOUCH phases 2+3 for one B shard against the shared level arrays.

    ``levels`` is only read — each shard's buckets are its own per-B
    array — so any number of these calls may run concurrently on one
    :class:`~repro.core.touch.tree.TouchLevels`.  Returns ``(pairs,
    per-shard stats, elapsed_ms)``; the pair order is a pure function of
    the shard (B-major, as :func:`~repro.core.touch.join.join_levels`).
    """
    counter = JoinStats(algorithm="shard", n_a=len(levels.objects), n_b=len(shard_b))
    pairs: list[tuple[int, int]] = []
    start = time.perf_counter()
    join_levels(levels, shard_b, eps, refine, filtering, counter, pairs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return pairs, counter, elapsed_ms


def sharded_touch_join(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    eps: float = 0.0,
    shards: int = 4,
    refine: RefineFunc | None = None,
    leaf_capacity: int = 32,
    fanout: int = 8,
) -> ShardedJoinResult:
    """TOUCH with dataset B split across ``shards`` workers.

    Results are identical to :func:`repro.core.touch.join.touch_join` for
    any shard count (property-tested); only the execution breakdown
    changes.  B is dealt round-robin, the simplest BlueGene-style static
    partitioning.
    """
    if shards < 1:
        raise JoinError("need at least one shard")
    stats = JoinStats(algorithm=f"TOUCH x{shards}", n_a=len(objects_a), n_b=len(objects_b))
    if not objects_a or not objects_b:
        return ShardedJoinResult(pairs=[], shards=[], build_ms=0.0, stats=stats)

    start = time.perf_counter()
    levels = touch_levels(
        build_touch_tree(objects_a, leaf_capacity=leaf_capacity, fanout=fanout)
    )
    build_ms = (time.perf_counter() - start) * 1000.0
    stats.build_ms = build_ms

    shard_inputs: list[list[SpatialObject]] = [[] for _ in range(shards)]
    for position, b in enumerate(objects_b):
        shard_inputs[position % shards].append(b)

    outcomes = [probe_shard(levels, shard_b, eps, refine) for shard_b in shard_inputs]

    all_pairs: list[tuple[int, int]] = []
    shard_stats: list[ShardStats] = []
    for shard_id, (shard_b, (pairs, counter, elapsed_ms)) in enumerate(
        zip(shard_inputs, outcomes)
    ):
        shard_stats.append(
            ShardStats(
                shard_id=shard_id,
                n_b=len(shard_b),
                comparisons=counter.comparisons,
                results=counter.results,
                filtered=counter.filtered,
                elapsed_ms=elapsed_ms,
            )
        )
        all_pairs.extend(pairs)
        stats.comparisons += counter.comparisons
        stats.candidates += counter.candidates
        stats.results += counter.results
        stats.filtered += counter.filtered
        stats.probe_ms += elapsed_ms

    stats.memory_bytes = levels.structure_bytes() + len(objects_a) * REF_BYTES
    return ShardedJoinResult(
        pairs=all_pairs, shards=shard_stats, build_ms=build_ms, stats=stats
    )
