"""Uniform result envelopes and engine-lifetime telemetry.

Every executor in this package reports its work through the same three
counters — pages read, I/O time, pairwise comparisons — regardless of which
subsystem (FLAT, R-tree, TOUCH, SCOUT) did the work.  That uniformity is
what lets one telemetry object aggregate a mixed batch and one ``render``
path serve the CLI for all four query kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import LATENCY_BUCKETS_MS, Breakdown, Totals, global_registry
from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.mutations import MutationStats
    from repro.engine.planner import QueryPlan

__all__ = ["EngineStats", "EngineResult", "EngineTelemetry"]

# Process-wide engine families, registered eagerly so the wire scrape sees
# the names even before the first query runs.
_REGISTRY = global_registry()
_Q_TOTAL = _REGISTRY.counter(
    "repro_engine_queries_total",
    "Queries executed across every engine in the process",
    label_names=("kind", "strategy"),
)
_Q_RESULTS = _REGISTRY.counter(
    "repro_engine_results_total", "Result rows returned by engine queries"
)
_Q_LATENCY = _REGISTRY.histogram(
    "repro_engine_query_latency_ms",
    "Per-query execution wall time (ms)",
    label_names=("kind",),
    buckets=LATENCY_BUCKETS_MS,
)
_Q_KERNEL_BATCHES = _REGISTRY.counter(
    "repro_engine_kernel_batches_total",
    "Batch kernel calls issued by engine queries",
    label_names=("backend",),
)
_Q_MISESTIMATE = _REGISTRY.histogram(
    "repro_engine_range_misestimate_ratio",
    "Range results over the planner's estimate: actual / max(estimated, 1)",
    buckets=(0.125, 0.25, 0.5, 0.8, 1.25, 2.0, 4.0, 8.0, 32.0),
)
_M_TOTAL = _REGISTRY.counter(
    "repro_engine_mutations_total",
    "Mutations applied by engine write batches",
    label_names=("op",),
)


@dataclass
class EngineStats:
    """The uniform per-query counters of one engine execution."""

    kind: str  # "range" | "knn" | "join" | "walk"
    strategy: str  # what actually ran (post-planning)
    pages_read: int = 0  # index node pages + data pages (0 for in-memory paths)
    io_time_ms: float = 0.0  # simulated-disk stall + prefetch I/O
    comparisons: int = 0  # MBR/entry tests performed
    num_results: int = 0
    elapsed_ms: float = 0.0  # wall-clock execution time
    planning_ms: float = 0.0  # wall-clock planner time
    kernel_batches: int = 0  # batch kernel calls issued during execution
    kernel_backend: str = ""  # kernel backend that served them

    def as_row(self) -> list[Any]:
        return [
            self.kind,
            self.strategy,
            self.num_results,
            self.pages_read,
            self.io_time_ms,
            self.comparisons,
            self.kernel_batches,
            self.elapsed_ms,
        ]


@dataclass
class EngineResult:
    """What every :meth:`SpatialEngine.execute` call returns.

    ``payload`` depends on the query kind:

    * range — ``list[int]`` of matching uids,
    * knn — ``list[tuple[int, float]]`` of ``(uid, distance)`` pairs,
    * join — ``list[tuple[int, int]]`` of ``(uid_a, uid_b)`` pairs,
    * walk — :class:`repro.core.scout.SessionMetrics`.

    ``raw`` carries the subsystem-native result object (e.g. the
    :class:`FLATQueryResult` or :class:`JoinResult`) for callers that need
    the full low-level counters.
    """

    payload: Any
    stats: EngineStats
    plan: "QueryPlan"
    raw: Any = None

    @property
    def num_results(self) -> int:
        return self.stats.num_results

    def render(self) -> str:
        table = Table(
            ["kind", "strategy", "results", "pages", "io ms", "comparisons", "batches", "exec ms"],
            title=f"engine result ({self.plan.describe()})",
        )
        table.add_row(self.stats.as_row())
        return table.render()


#: Every engine-lifetime total, declared once: ``(snapshot key, the field
#: of the recorded stats it sums)``; a ``None`` field counts recordings.
_QUERY_TOTALS = (
    ("queries_executed", None),
    ("pages_read", "pages_read"),
    ("io_time_ms", "io_time_ms"),
    ("comparisons", "comparisons"),
    ("results_returned", "num_results"),
    ("elapsed_ms", "elapsed_ms"),
    ("planning_ms", "planning_ms"),
    ("kernel_batches", "kernel_batches"),
)
#: The write-path totals, shared with the sharded service's telemetry.
MUTATION_TOTALS = (
    ("mutation_batches", None),
    ("mutations_applied", "applied"),
    ("inserts", "inserts"),
    ("deletes", "deletes"),
    ("moves", "moves"),
    ("mutation_ms", "elapsed_ms"),
)


class EngineTelemetry:
    """Engine-lifetime aggregate of every executed query's counters.

    Backed by :mod:`repro.obs.metrics` primitives: every total is a
    per-instance :class:`~repro.obs.metrics.Counter` whose per-thread
    cells make ``record`` lock-free — concurrent client threads can feed one
    telemetry object without losing an increment to a read-modify-write
    race.  :meth:`snapshot` is the one
    reader; it sums the cells, exact at any quiescent point (no in-flight
    queries), which is the conservation contract the stress suite
    asserts.  Each recording also feeds the process-wide
    ``repro_engine_*`` families for the wire scrape.
    """

    def __init__(self) -> None:
        self._totals = Totals(_QUERY_TOTALS, MUTATION_TOTALS)
        self._by_kind = Breakdown("by_kind")
        self._by_strategy = Breakdown("by_strategy")
        self._by_backend = Breakdown("by_kernel_backend")

    def record(self, stats: EngineStats, est_results: float | None = None) -> None:
        """Fold one query's counters in; ``est_results`` is a range plan's estimate."""
        self._totals.add(stats, _QUERY_TOTALS)
        self._by_kind.inc(stats.kind)
        self._by_strategy.inc(stats.strategy)
        if stats.kernel_backend:
            self._by_backend.inc(stats.kernel_backend)
            _Q_KERNEL_BATCHES.child(stats.kernel_backend).inc(stats.kernel_batches)
        _Q_TOTAL.child(stats.kind, stats.strategy).inc()
        _Q_RESULTS.inc(stats.num_results)
        _Q_LATENCY.child(stats.kind).observe(stats.elapsed_ms)
        if est_results is not None:
            _Q_MISESTIMATE.observe(stats.num_results / max(est_results, 1.0))

    def record_mutations(self, stats: "MutationStats") -> None:
        """Fold one ``apply_many`` batch's counters into the lifetime view."""
        self._totals.add(stats, MUTATION_TOTALS)
        _M_TOTAL.child("insert").inc(stats.inserts)
        _M_TOTAL.child("delete").inc(stats.deletes)
        _M_TOTAL.child("move").inc(stats.moves)

    def snapshot(self) -> dict[str, Any]:
        """A copy of every total (exact at any quiescent point)."""
        return {
            **self._totals.snapshot(),
            "by_kind": self._by_kind.snapshot(),
            "by_strategy": self._by_strategy.snapshot(),
            "by_kernel_backend": self._by_backend.snapshot(),
        }

    def render(self) -> str:
        snap = self.snapshot()
        table = Table(["metric", "value"], title="engine telemetry")
        table.add_row(["queries executed", snap["queries_executed"]])
        table.add_row(["results returned", snap["results_returned"]])
        table.add_row(["pages read", snap["pages_read"]])
        table.add_row(["simulated I/O (ms)", snap["io_time_ms"]])
        table.add_row(["comparisons", snap["comparisons"]])
        table.add_row(["kernel batches", snap["kernel_batches"]])
        for backend, count in snap["by_kernel_backend"].items():
            table.add_row([f"  via {backend} kernels", count])
        table.add_row(["execution wall (ms)", snap["elapsed_ms"]])
        table.add_row(["planning wall (ms)", snap["planning_ms"]])
        if snap["mutation_batches"]:
            table.add_row(["mutations applied", snap["mutations_applied"]])
            table.add_row(["  inserts", snap["inserts"]])
            table.add_row(["  deletes", snap["deletes"]])
            table.add_row(["  moves", snap["moves"]])
            table.add_row(["mutation wall (ms)", snap["mutation_ms"]])
        for kind, count in snap["by_kind"].items():
            table.add_row([f"  {kind} queries", count])
        for strategy, count in snap["by_strategy"].items():
            table.add_row([f"  via {strategy}", count])
        return table.render()
