"""Service-level result envelopes and thread-safe telemetry.

Every time the service reports is a clock reading on a real run:

* **wall time** (``elapsed_ms``) — what this process actually spent on a
  query, fan-out and merge included, admission wait excluded; each
  shard subtask's own wall time is its :attr:`ShardWork.elapsed_ms`, and
* **CPU time** (:attr:`ShardWork.cpu_ms`) — the calling thread's own CPU
  clock for one subtask (every subtask runs on the thread that called
  :meth:`~repro.service.ShardedEngine.execute`), which excludes GIL waits
  and preemption, summed per shard by the telemetry's
  ``per_shard_cpu_ms``.

The service keeps no modelled clock: a shard engine's simulated-disk
``io_time_ms`` (the paper's page/I/O model) stays in that engine's own
stats.  The wire and codec costs a served read pays on top are measured
by ``perfbench/run.py``.

:class:`ServiceTelemetry` aggregates across queries *and threads*: every
count rides the metrics registry's lock-free per-thread cells, so counters
sum consistently no matter how many client threads hammer one service.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.engine.stats import MUTATION_TOTALS
from repro.obs.metrics import LATENCY_BUCKETS_MS, Breakdown, Totals, global_registry
from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.mutations import MutationStats

__all__ = [
    "ServiceResult",
    "ServiceStats",
    "ServiceTelemetry",
    "ShardWork",
]


@dataclass(frozen=True)
class ShardWork:
    """One shard's contribution to one service query."""

    shard_id: int
    strategy: str  # strategy the shard's engine actually ran
    elapsed_ms: float  # real wall time of the subtask
    pages_read: int
    comparisons: int
    num_results: int
    cpu_ms: float = 0.0  # CPU time the subtask burned
    # ``cpu_ms`` is measured with the calling thread's own CPU clock, so
    # it excludes GIL waits and scheduler preemption — the same subtask
    # costs the same CPU no matter how contended the host is; the
    # telemetry's ``per_shard_cpu_ms`` sums it per shard.


@dataclass
class ServiceStats:
    """The uniform per-query counters of one sharded execution."""

    kind: str  # "range" | "knn" | "join" | "walk"
    shards_total: int  # shards the service owns
    shards_used: int  # shards the query actually touched (after pruning)
    epoch: int = 0  # dataset epoch the query's snapshot view belongs to
    num_results: int = 0
    admission_wait_ms: float = 0.0  # time spent queued before execution
    elapsed_ms: float = 0.0  # real wall clock, admission excluded
    merge_ms: float = 0.0  # deterministic merge of shard partials
    shard_work: list[ShardWork] = field(default_factory=list)

    @property
    def pages_read(self) -> int:
        return sum(w.pages_read for w in self.shard_work)

    @property
    def comparisons(self) -> int:
        return sum(w.comparisons for w in self.shard_work)


@dataclass
class ServiceResult:
    """What every :meth:`ShardedEngine.execute` call returns.

    ``payload`` matches the single-engine payload for the query kind —
    range: sorted uids; knn: ``(uid, distance)`` pairs sorted by
    ``(distance, uid)``; join: sorted ``(uid_a, uid_b)`` pairs; walk: one
    sorted uid list per window.  The ordering is part of the contract: it
    is canonical, so two executions (any shard count, any thread schedule)
    return byte-identical payloads.
    """

    payload: Any
    stats: ServiceStats

    @property
    def num_results(self) -> int:
        return self.stats.num_results

    def render(self) -> str:
        s = self.stats
        table = Table(
            ["kind", "results", "shards", "wall ms"],
            title="service result",
        )
        table.add_row(
            [
                s.kind,
                s.num_results,
                f"{s.shards_used}/{s.shards_total}",
                round(s.elapsed_ms, 3),
            ]
        )
        return table.render()


#: Process-wide service families, registered eagerly for the wire scrape.
_REGISTRY = global_registry()
_S_REQUESTS = _REGISTRY.counter(
    "repro_service_requests_total",
    "Sharded-service requests by outcome",
    label_names=("outcome",),
)
_S_RESULTS = _REGISTRY.counter(
    "repro_service_results_total", "Result rows returned by the sharded service"
)
_S_ADMISSION = _REGISTRY.histogram(
    "repro_service_admission_wait_ms",
    "Time requests spent queued before execution (ms)",
    buckets=LATENCY_BUCKETS_MS,
)
_S_SUBTASK_CPU = _REGISTRY.histogram(
    "repro_service_subtask_cpu_ms",
    "CPU-clock time of one shard subtask on the calling thread (ms)",
    buckets=LATENCY_BUCKETS_MS,
)
_S_MUTATIONS = _REGISTRY.counter(
    "repro_service_mutations_total",
    "Mutations applied through the sharded service",
    label_names=("op",),
)
_S_EPOCH = _REGISTRY.gauge(
    "repro_service_current_epoch", "Highest dataset epoch published by any service"
)


#: Every service-lifetime total, declared once: ``(snapshot key, the field
#: of the recorded stats it sums)``; a ``None`` field counts recordings.
#: The write-path totals are the engine's ``MUTATION_TOTALS``.
_OUTCOME_TOTALS = (
    ("submitted", None),
    ("rejected", None),
    ("timed_out", None),
    ("failed", None),
)
_COMPLETED_TOTALS = (
    ("completed", None),
    ("results_returned", "num_results"),
    ("shard_subtasks", "shards_used"),
    ("admission_wait_ms", "admission_wait_ms"),
)
# Only a re-tile rebuilds shards; every other batch applies in place on
# the touched shards' warm engines.
_REBALANCE_TOTALS = (
    ("shards_rebuilt", "shards_touched"),
    ("rebalances", None),
)


class ServiceTelemetry:
    """Service-lifetime aggregate, safe under concurrent mutation.

    Every total is a per-instance :class:`repro.obs.metrics.Counter`, so
    updates from concurrent client threads ride the registry's lock-free
    per-thread cells; only the
    epoch high-water mark keeps a lock (it is a max, not a sum).
    :meth:`snapshot` is the one reader and the service's single source of
    truth for conservation checks: ``completed + failed + rejected +
    timed_out == submitted`` holds at every quiescent point, and
    ``results_returned`` equals the sum of per-query result counts.
    """

    def __init__(self) -> None:
        self._totals = Totals(
            _OUTCOME_TOTALS, _COMPLETED_TOTALS, MUTATION_TOTALS, _REBALANCE_TOTALS
        )
        self._by_kind = Breakdown("by_kind")
        self._per_shard_cpu_ms = Breakdown("per_shard_cpu_ms")
        self._epoch_lock = threading.Lock()
        self._current_epoch = 0

    # -- recording (lock-free except the epoch high-water mark) ----------------
    def _record_outcome(self, outcome: str) -> None:
        self._totals.inc(outcome)
        _S_REQUESTS.child(outcome).inc()

    def record_submitted(self) -> None:
        self._record_outcome("submitted")

    def record_rejected(self) -> None:
        self._record_outcome("rejected")

    def record_timeout(self) -> None:
        self._record_outcome("timed_out")

    def record_failure(self) -> None:
        self._record_outcome("failed")

    def record_completed(self, stats: ServiceStats) -> None:
        self._totals.add(stats, _COMPLETED_TOTALS)
        self._by_kind.inc(stats.kind)
        for work in stats.shard_work:
            if work.cpu_ms:
                self._per_shard_cpu_ms.inc(work.shard_id, work.cpu_ms)
                _S_SUBTASK_CPU.observe(work.cpu_ms)
        _S_REQUESTS.child("completed").inc()
        _S_RESULTS.inc(stats.num_results)
        _S_ADMISSION.observe(stats.admission_wait_ms)

    def record_mutations(self, stats: "MutationStats") -> None:
        """Fold one published mutation batch into the lifetime view.

        Conservation contract (checked by the mutation stress suite at
        quiescent points): ``inserts + deletes + moves ==
        mutations_applied``, and ``current_epoch`` equals the number of
        batches published (every ``apply_many`` bumps the epoch exactly
        once, rebalance or not).
        """
        self._totals.add(stats, MUTATION_TOTALS)
        if stats.rebalanced:
            self._totals.add(stats, _REBALANCE_TOTALS)
        _S_MUTATIONS.child("insert").inc(stats.inserts)
        _S_MUTATIONS.child("delete").inc(stats.deletes)
        _S_MUTATIONS.child("move").inc(stats.moves)
        with self._epoch_lock:
            if stats.epoch > self._current_epoch:
                self._current_epoch = stats.epoch
                _S_EPOCH.set(stats.epoch)

    # -- reading ---------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A copy of every total (exact at any quiescent point)."""
        with self._epoch_lock:
            current_epoch = self._current_epoch
        return {
            **self._totals.snapshot(),
            "by_kind": self._by_kind.snapshot(),
            "per_shard_cpu_ms": self._per_shard_cpu_ms.snapshot(),
            "current_epoch": current_epoch,
        }

    def render(self) -> str:
        snap = self.snapshot()
        table = Table(["metric", "value"], title="service telemetry")
        for key in (
            "submitted",
            "completed",
            "rejected",
            "timed_out",
            "failed",
            "results_returned",
            "shard_subtasks",
        ):
            table.add_row([key.replace("_", " "), snap[key]])
        table.add_row(["admission wait (ms)", round(snap["admission_wait_ms"], 2)])
        if snap["mutation_batches"]:
            table.add_row(["mutation batches", snap["mutation_batches"]])
            table.add_row(["mutations applied", snap["mutations_applied"]])
            table.add_row(["  inserts", snap["inserts"]])
            table.add_row(["  deletes", snap["deletes"]])
            table.add_row(["  moves", snap["moves"]])
            table.add_row(["shards rebuilt", snap["shards_rebuilt"]])
            table.add_row(["rebalances", snap["rebalances"]])
            table.add_row(["current epoch", snap["current_epoch"]])
        for kind, count in snap["by_kind"].items():
            table.add_row([f"  {kind} queries", count])
        return table.render()
