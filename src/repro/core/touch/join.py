"""TOUCH phases 2 and 3: hierarchical assignment and local joins.

Phase 2 pushes every B object down the A hierarchy: while exactly one child
MBR (expanded by ``eps``) can contain partners the object descends; when
several could, it stops in the current node's bucket; when none can, the
object falls into empty space and is *filtered out* entirely.  Each B object
thus lands in at most one bucket — no replication, no duplicate results.

Phase 3 joins every bucket against the A objects beneath its node, pruning
with the hierarchy MBRs.  The total work is what the demo's Figure 7 charts
as "number of pairwise comparisons".

Both phases read the hierarchy only as level arrays
(:class:`~repro.core.touch.tree.TouchLevels`) and run as batch kernels over
all of B: :func:`repro.kernels.touch_assign` moves the whole frontier of
(B object, node) pairs down one level per pass and returns a bucket per B
object, :func:`repro.kernels.touch_probe` descends every bucket the same way
and filters the reached leaves' objects.  A bucket is just an entry of that
per-B array, so nothing is written to the hierarchy and any slice of B can
be joined against shared level arrays (:func:`probe_shard`, which
:class:`~repro.service.ShardedEngine`'s join fans out on its worker pool).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import kernels
from repro.core.touch.stats import (
    REF_BYTES,
    CandidateBatch,
    JoinResult,
    JoinStats,
    RefineFunc,
)
from repro.core.touch.tree import TouchLevels, build_touch_tree, touch_levels
from repro.objects import SpatialObject

__all__ = ["touch_join", "join_levels", "probe_shard"]


def touch_join(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    eps: float = 0.0,
    refine: RefineFunc | None = None,
    leaf_capacity: int = 32,
    fanout: int = 8,
    filtering: bool = True,
) -> JoinResult:
    """The TOUCH spatial join of the paper.

    Parameters
    ----------
    eps:
        Distance-join threshold on the AABBs (the touch-rule tolerance).
    refine:
        Optional exact-geometry predicate applied to AABB candidates.
    leaf_capacity, fanout:
        Shape of the data-oriented hierarchy on A (ablation A6).
    filtering:
        When False, B objects that intersect no child anywhere are kept in
        the node where they stopped instead of being dropped (ablation
        A5); results are identical, only the comparison count changes.
    """
    stats = JoinStats(algorithm="TOUCH", n_a=len(objects_a), n_b=len(objects_b))
    if not objects_a or not objects_b:
        return JoinResult(pairs=[], stats=stats)

    start = time.perf_counter()
    levels = touch_levels(
        build_touch_tree(objects_a, leaf_capacity=leaf_capacity, fanout=fanout)
    )
    stats.build_ms = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    pairs: list[tuple[int, int]] = []
    join_levels(levels, objects_b, eps, refine, filtering, stats, pairs)
    stats.probe_ms = (time.perf_counter() - start) * 1000.0
    stats.memory_bytes = (
        levels.structure_bytes()
        + (len(objects_b) - stats.filtered) * REF_BYTES  # one bucket entry per kept B
        + len(objects_a) * REF_BYTES
    )
    return JoinResult(pairs=pairs, stats=stats)


def join_levels(
    levels: TouchLevels,
    objects_b: Sequence[SpatialObject],
    eps: float,
    refine: RefineFunc | None,
    filtering: bool,
    stats: JoinStats,
    pairs: list[tuple[int, int]],
) -> None:
    """Phases 2 and 3 for ``objects_b`` against the hierarchy's level arrays.

    Adds this slice's comparisons, filtered objects, candidates and results
    to ``stats`` and its pairs to ``pairs`` in B-major order (the order of
    ``objects_b``, then A objects leaf by leaf).  ``levels`` is only read.
    """
    packed_b = kernels.pack_objects(objects_b)
    bucket, comparisons, filtered = kernels.touch_assign(
        levels.packed, packed_b, eps, filtering
    )
    stats.comparisons += comparisons
    stats.filtered += filtered
    objects_a = levels.objects
    candidates = CandidateBatch(refine, stats, pairs)
    for indices_a, indices_b, tested in kernels.touch_probe(levels.packed, packed_b, bucket, eps):
        stats.comparisons += tested
        for i, j in zip(indices_a, indices_b):
            candidates.add(objects_a[i], objects_b[j])
    candidates.flush()


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
    the shard (B-major, as :func:`join_levels`).
    """
    counter = JoinStats(algorithm="shard", n_a=len(levels.objects), n_b=len(shard_b))
    pairs: list[tuple[int, int]] = []
    start = time.perf_counter()
    join_levels(levels, shard_b, eps, refine, filtering, counter, pairs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return pairs, counter, elapsed_ms
