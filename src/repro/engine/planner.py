"""The engine's planner: pick an execution strategy per query.

The planner is a pure function of the dataset profile and the query, so a
plan can be produced (``SpatialEngine.explain``) without executing anything
and without mutating engine state.  Selection rules, in the spirit of the
paper's measurements:

* **range** — FLAT's seed-and-crawl wins when the window is *dense* (many
  results: cost tracks the result, not the overlap-degraded index paths);
  for sparse windows a plain R-tree descent reads fewer pages than seeding
  plus crawling.  Density is estimated from a fixed sample of object
  centres — the classic textbook selectivity estimate.
* **knn** — best-first descent of the object R-tree for small in-memory
  datasets; the page-based seed-tree search (cost tracks answer locality)
  once the dataset outgrows a handful of pages.
* **join** — TOUCH's hierarchy pays off at scale; for tiny inputs the
  sort-based plane sweep finishes before TOUCH has built its tree.
* **walkthrough** — SCOUT for structure-following sequences (overlapping
  windows); Hilbert space-locality prefetching when consecutive windows
  jump farther than their own extent (no structure to follow); nothing for
  walks too short for any prefetcher to pay off.

Every query's ``strategy`` field overrides the choice; the plan then says
so (``overridden=True``) and keeps the planner's reasoning for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np

from repro.engine.queries import KNNQuery, Query, RangeQuery, SpatialJoin, Walkthrough
from repro.errors import EngineError
from repro.geometry.aabb import AABB
from repro.objects import SpatialObject
from repro.storage.arena import ColumnarArena

__all__ = ["QueryPlan", "Planner", "DatasetProfile"]

#: Sample size used for range-selectivity estimation.
_PROFILE_SAMPLE = 2048

#: Sample hits below which the direct estimate is considered unresolved and
#: the smoothed (expanded-window) estimate kicks in.
_RESOLUTION_FLOOR = 8

#: Linear expansion factor of the smoothing window (volume ratio = cube).
_SMOOTH_EXPANSION = 3.0

#: kNN over at most this many pages descends the in-memory R-tree.
_TINY_DATASET_PAGES = 4

#: Joins with at most this many candidate pairs plane-sweep instead of TOUCH.
_TINY_JOIN_PAIRS = 250_000

#: Walks whose mean step exceeds this multiple of their window extent
#: prefetch in Hilbert order instead of following the structure (SCOUT).
_JUMP_RATIO_THRESHOLD = 1.0


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one query, with its reasoning."""

    kind: str
    strategy: str
    reason: str
    estimates: dict[str, float] = field(default_factory=dict)
    overridden: bool = False

    def describe(self) -> str:
        """One-line summary, e.g. ``range via flat [dense window ...]``."""
        suffix = " (forced)" if self.overridden else ""
        return f"{self.kind} via {self.strategy}{suffix}"

    def render(self) -> str:
        """Multi-line ``explain`` text."""
        lines = [f"plan: {self.describe()}", f"  reason: {self.reason}"]
        for name in sorted(self.estimates):
            value = self.estimates[name]
            shown = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  estimate {name} = {shown}")
        return "\n".join(lines)


@dataclass
class DatasetProfile:
    """Cheap statistics about the engine's dataset, from arena columns, per epoch.

    ``sample`` holds up to :data:`_PROFILE_SAMPLE` object-AABB centres taken
    with a fixed stride over the live order, so selectivity estimates are
    deterministic regardless of dataset size.  A profile is built as one
    strided gather of live rows from each arena's float64 bounds array
    (:meth:`ColumnarArena.bounds_array`, which converts only the rows
    appended since it was last read); nothing is materialized.  After a
    write batch an engine :meth:`patched` its profile: only the sample
    rows the batch moved are gathered again.  ``world`` (the union of every
    live box, a column min/max per arena) is read on first access and then
    kept, so read it before the next write.

    Range estimates count over a copy of the sample sorted by x: an x
    column and a ``(y, z)`` block, built on the first estimate and kept
    for the profile's epoch (a profile that never estimates never sorts).
    A count is two binary searches for the x-slab plus a y/z mask over
    that slab only, with the same closed comparisons as a full scan.
    """

    n_objects: int
    page_capacity: int
    sample: np.ndarray  # (m, 3) object centres
    arenas: tuple[ColumnarArena, ...] = field(default=(), repr=False)
    _world: AABB | None = field(default=None, init=False, repr=False)
    _by_x: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_arena(
        cls, arenas: ColumnarArena | Sequence[ColumnarArena], page_capacity: int
    ) -> "DatasetProfile":
        """Profile the live rows of one arena, or of several read as one.

        Several arenas (a sharded service's shards) are read in order as
        one concatenated live order, so the stride sample is the one a
        single arena holding the same rows would give.
        """
        if isinstance(arenas, ColumnarArena):
            arenas = (arenas,)
        arenas = tuple(arenas)
        n_objects = sum(arena.num_live for arena in arenas)
        if not n_objects:
            raise EngineError("cannot profile an empty dataset")
        stride = _stride(n_objects)
        picked = []
        offset = 0
        for arena in arenas:
            rows = arena.live_rows[-offset % stride :: stride]
            picked.append(arena.bounds_array().take(np.fromiter(rows, np.intp, len(rows)), 0))
            offset += arena.num_live
        return cls(n_objects, page_capacity, _centres(np.concatenate(picked)), arenas)

    def patched(self, arena: ColumnarArena, moved: Collection[int]) -> "DatasetProfile":
        """This profile of ``arena`` after writes: bit-identical to a fresh
        :meth:`from_arena`, for a fraction of its cost.

        ``moved`` holds every live position whose row changed since this
        profile was built (appended positions included).  When the stride
        is the same, only the sample rows at moved sampled positions and
        the ones a grown live count adds are gathered; the rest are copied,
        and rows past a shrunk count dropped.  Otherwise (the live count
        crossed a multiple of the sample size, more positions moved than a
        sample holds, or the profile spans other arenas) the profile is
        rebuilt whole.
        """
        n_objects = arena.num_live
        stride = _stride(n_objects)
        if (
            self.arenas != (arena,)
            or not n_objects
            or stride != _stride(self.n_objects)
            or len(moved) > _PROFILE_SAMPLE
        ):
            return DatasetProfile.from_arena(arena, self.page_capacity)
        size = len(range(0, n_objects, stride))
        kept = min(size, len(self.sample))
        refresh = {p // stride for p in moved if p < n_objects and p % stride == 0}
        refresh.update(range(kept, size))
        sample = np.empty((size, 3))
        sample[:kept] = self.sample[:kept]
        picked = sorted(refresh)
        rows = [arena.live_rows[j * stride] for j in picked]
        # Converts only the rows appended since the array was last read.
        bounds = arena.bounds_array().take(np.array(rows, dtype=np.intp), 0)
        sample[picked] = _centres(bounds)
        return DatasetProfile(n_objects, self.page_capacity, sample, (arena,))

    @classmethod
    def from_objects(
        cls, objects: Sequence[SpatialObject], page_capacity: int
    ) -> "DatasetProfile":
        """Profile a plain object list (packed into an arena first)."""
        return cls.from_arena(ColumnarArena.from_objects(objects), page_capacity)

    @property
    def world(self) -> AABB:
        """Union of every live box (read from the arenas on first access)."""
        if self._world is None:
            self._world = AABB.union_all(arena.world() for arena in self.arenas)
        return self._world

    def _x_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The sample stably sorted by x: its x column and its ``(y, z)`` block.

        Distinct keys have one sorted order, so the default (unstable)
        sort gives the stable one unless two x values tie; only then does
        the costlier stable sort run.
        """
        if self._by_x is None:
            x = np.ascontiguousarray(self.sample[:, 0])
            order = x.argsort()
            xs = x.take(order)
            if (xs[1:] == xs[:-1]).any():
                order = x.argsort(kind="stable")
                xs = x.take(order)
            self._by_x = (xs, self.sample.take(order, 0)[:, 1:])
        return self._by_x

    def _sample_hits(self, box: AABB) -> int:
        xs, yz = self._x_sorted()
        slab = yz[xs.searchsorted(box.min_x, "left") : xs.searchsorted(box.max_x, "right")]
        y, z = slab[:, 0], slab[:, 1]
        inside = (y >= box.min_y) & (y <= box.max_y) & (z >= box.min_z) & (z <= box.max_z)
        return int(np.count_nonzero(inside))

    def estimate_range_results(self, box: AABB) -> float:
        """Estimated number of objects intersecting ``box`` (sampled).

        Windows much smaller than the sample's resolution would read as
        empty even in dense tissue, so when fewer than
        :data:`_RESOLUTION_FLOOR` sample points fall inside the window the
        estimate is smoothed: count within a ``_SMOOTH_EXPANSION``-times
        larger window and scale back by the volume ratio, assuming locally
        uniform density.
        """
        per_sample = self.n_objects / len(self.sample)
        direct_hits = self._sample_hits(box)
        direct = direct_hits * per_sample
        if direct_hits >= _RESOLUTION_FLOOR:
            return direct
        expanded = AABB.from_center_extent(
            box.center(), tuple(s * _SMOOTH_EXPANSION for s in box.sizes)
        )
        smoothed = self._sample_hits(expanded) * per_sample / _SMOOTH_EXPANSION**3
        return max(direct, smoothed)


def _stride(n_objects: int) -> int:
    """The sample stride over ``n_objects`` live objects.

    A ceiling stride, so the sample spans the whole dataset: a floor stride
    plus truncation would drop the spatial tail (objects are typically in
    neuron order) and blind the estimator to it.
    """
    return max(1, -(-n_objects // _PROFILE_SAMPLE))


def _centres(bounds: np.ndarray) -> np.ndarray:
    """Box centres ``(lo + hi) / 2.0`` of ``(n, 6)`` bounds rows."""
    return (bounds[:, :3] + bounds[:, 3:]) / 2.0


class Planner:
    """Strategy selection over one :class:`DatasetProfile`."""

    def __init__(self, profile: DatasetProfile) -> None:
        self.profile = profile

    # -- dispatch -------------------------------------------------------------
    def plan(self, query: Query, join_sizes: tuple[int, int] | None = None) -> QueryPlan:
        """Plan ``query``; ``join_sizes`` supplies resolved join input sizes."""
        if isinstance(query, RangeQuery):
            return self._plan_range(query)
        if isinstance(query, KNNQuery):
            return self._plan_knn(query)
        if isinstance(query, SpatialJoin):
            if join_sizes is None:
                if query.side_a is None or query.side_b is None:
                    raise EngineError(
                        "cannot plan a default-sides SpatialJoin without join_sizes; "
                        "resolve the sides first (SpatialEngine.explain does this)"
                    )
                join_sizes = (len(query.side_a), len(query.side_b))
            return self._plan_join(query, *join_sizes)
        if isinstance(query, Walkthrough):
            return self._plan_walk(query)
        raise EngineError(f"cannot plan query of type {type(query).__name__}")

    def _resolve(
        self, query: Query, chosen: str, reason: str, estimates: dict[str, float]
    ) -> QueryPlan:
        if query.strategy is not None and query.strategy != chosen:
            return QueryPlan(
                kind=query.kind,
                strategy=query.strategy,
                reason=f"forced by query.strategy (planner would pick {chosen}: {reason})",
                estimates=estimates,
                overridden=True,
            )
        return QueryPlan(
            kind=query.kind,
            strategy=chosen,
            reason=reason,
            estimates=estimates,
            overridden=query.strategy is not None,
        )

    # -- per-kind rules -------------------------------------------------------
    def _plan_range(self, query: RangeQuery) -> QueryPlan:
        estimated = self.profile.estimate_range_results(query.box)
        estimated_pages = estimated / self.profile.page_capacity
        estimates = {
            "result_objects": round(estimated, 1),
            "result_pages": round(estimated_pages, 2),
        }
        if estimated >= self.profile.page_capacity:
            chosen = "flat"
            reason = (
                f"dense window: ~{estimated:.0f} results fill "
                f"~{estimated_pages:.1f} pages; crawl cost tracks the result"
            )
        else:
            chosen = "rtree"
            reason = (
                f"sparse window: ~{estimated:.0f} results fit inside one page; "
                "a single tree descent reads fewer pages than seed+crawl"
            )
        return self._resolve(query, chosen, reason, estimates)

    def _plan_knn(self, query: KNNQuery) -> QueryPlan:
        dataset_pages = self.profile.n_objects / self.profile.page_capacity
        estimates = {"dataset_pages": round(dataset_pages, 2), "k": float(query.k)}
        if dataset_pages <= _TINY_DATASET_PAGES:
            chosen = "rtree"
            reason = (
                f"tiny dataset (~{dataset_pages:.1f} pages): in-memory best-first "
                "descent beats paging in partitions"
            )
        else:
            chosen = "flat"
            reason = (
                f"large dataset (~{dataset_pages:.0f} pages): seed-tree best-first "
                "reads only the pages around the answer"
            )
        return self._resolve(query, chosen, reason, estimates)

    def _plan_join(self, query: SpatialJoin, n_a: int, n_b: int) -> QueryPlan:
        candidate_pairs = n_a * n_b
        estimates = {
            "n_a": float(n_a),
            "n_b": float(n_b),
            "candidate_pairs": float(candidate_pairs),
        }
        if candidate_pairs <= _TINY_JOIN_PAIRS:
            chosen = "plane-sweep"
            reason = (
                f"tiny inputs ({n_a} x {n_b}): sorting both sides costs less "
                "than building TOUCH's hierarchy"
            )
        else:
            chosen = "touch"
            reason = (
                f"large inputs ({n_a} x {n_b}): hierarchical assignment avoids "
                "the sweep's wide active window on dense data"
            )
        return self._resolve(query, chosen, reason, estimates)

    def _plan_walk(self, query: Walkthrough) -> QueryPlan:
        steps = len(query.queries)
        jump_ratio = self._walk_jump_ratio(query.queries)
        estimates = {"steps": float(steps), "jump_ratio": round(jump_ratio, 3)}
        if steps < 3:
            chosen = "none"
            reason = f"only {steps} step(s): no prefetcher can pay off"
        elif jump_ratio > _JUMP_RATIO_THRESHOLD:
            chosen = "hilbert"
            reason = (
                f"windows jump {jump_ratio:.2f}x their extent between steps: "
                "no structure to follow, fall back to space locality"
            )
        else:
            chosen = "scout"
            reason = (
                f"overlapping windows (step/extent {jump_ratio:.2f}): "
                "content-aware extrapolation can follow the structure"
            )
        return self._resolve(query, chosen, reason, estimates)

    @staticmethod
    def _walk_jump_ratio(windows: Sequence[AABB]) -> float:
        """Mean centre-to-centre step over mean window extent."""
        if len(windows) < 2:
            return 0.0
        steps = [
            windows[i].center().distance_to(windows[i + 1].center())
            for i in range(len(windows) - 1)
        ]
        extents = [max(w.sizes) for w in windows]
        mean_extent = sum(extents) / len(extents)
        if mean_extent <= 0.0:
            return float("inf")
        return (sum(steps) / len(steps)) / mean_extent
