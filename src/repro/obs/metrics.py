"""The unified metrics registry: counters, gauges and histograms.

Every layer of the stack — engine, service, WAL, server, catalog, kernels —
registers its telemetry here instead of growing another ad-hoc stats class.
Three metric kinds cover all of it:

* :class:`Counter` — a monotone sum (queries served, busy rejections);
* :class:`Gauge` — a point-in-time value, either set directly or computed
  by a callback at read time (replica lag, live epoch);
* :class:`Histogram` — fixed-bucket distributions (WAL flush latency,
  per-frame latency).

Per-object lifetime views (the engine and service telemetry) group
unregistered counters with :class:`Totals` (fixed names) and
:class:`Breakdown` (one sum split by an open key).

**Lock-free hot path.**  Counters and histograms never take a lock on
``inc``/``observe``: each thread owns a private cell (a plain list) that
only it mutates, registered once under the family lock on the thread's
first touch.  Reads sum the cells — exact at any quiescent point (no
in-flight updates), which is the conservation contract the stress tests
assert — and the per-thread layout means server executor threads and
client threads can all hammer the same metric without a single lost
increment.

**Labels.**  A metric created with ``label_names`` is a *family*:
``family.labels(type="query")`` returns (and memoises) the child carrying
those label values; only children accept updates.  Hot paths use
``family.child("query")``, the positional form memoised on the raw
values, which is one dict hit once the child exists.  The Prometheus text
exposition (:meth:`MetricsRegistry.render_prometheus`) renders every
family with ``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=}``
series for histograms, and escaped label values.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Sequence

__all__ = [
    "Breakdown",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "Totals",
    "global_registry",
]

#: General-purpose latency buckets (milliseconds).
LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)
DEFAULT_BUCKETS = LATENCY_BUCKETS_MS


def _escape_label(value: Any) -> str:
    text = str(value)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared family/child plumbing for all three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.label_values: tuple[str, ...] = ()
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], "_Metric"] = {}
        self._resolved: dict[tuple[Any, ...], "_Metric"] = {}

    # -- families ------------------------------------------------------------
    def labels(self, **labels: Any) -> Any:
        """The child metric carrying these label values (memoised)."""
        if not self.label_names:
            raise ValueError(f"metric {self.name!r} has no labels")
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    child.label_values = key
                    self._children[key] = child
        return child

    def child(self, *values: Any) -> Any:
        """:meth:`labels` by position, memoised on the raw label values."""
        found = self._resolved.get(values)
        if found is None:
            found = self.labels(**dict(zip(self.label_names, values)))
            self._resolved[values] = found
        return found

    def _make_child(self) -> "_Metric":
        raise NotImplementedError

    def children(self) -> list["_Metric"]:
        """Every concrete series of this metric (itself when unlabeled)."""
        if not self.label_names:
            return [self]
        with self._lock:
            return [self._children[k] for k in sorted(self._children)]

    def _check_leaf(self) -> None:
        if self.label_names and not self.label_values:
            raise ValueError(
                f"metric {self.name!r} is a labeled family; call .labels(...) first"
            )

    def _label_suffix(self) -> str:
        if not self.label_values:
            return ""
        pairs = ", ".join(
            f'{n}="{_escape_label(v)}"'
            for n, v in zip(self.label_names, self.label_values)
        )
        return "{" + pairs + "}"

    def render(self) -> list[str]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotone sum with a lock-free, allocation-free ``inc`` hot path."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._local = threading.local()
        self._cells: list[list[float]] = []

    def _make_child(self) -> "Counter":
        child = Counter(self.name, self.help)
        child.label_names = self.label_names
        return child

    def _cell(self) -> list[float]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            self._check_leaf()
            cell = [0.0]
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def inc(self, amount: float = 1.0) -> None:
        # Single in-place add on a thread-private cell: no lock, no lost
        # increments, no allocation after the thread's first touch.
        self._cell()[0] += amount

    @property
    def value(self) -> float:
        with self._lock:
            return sum(cell[0] for cell in self._cells)

    def render(self) -> list[str]:
        lines = []
        for child in self.children():
            lines.append(
                f"{self.name}{child._label_suffix()} {_format_value(child.value)}"
            )
        return lines


class Gauge(_Metric):
    """A point-in-time value, set directly or computed by a callback."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, help, label_names)
        self._value = 0.0
        self._callback = callback

    def _make_child(self) -> "Gauge":
        child = Gauge(self.name, self.help)
        child.label_names = self.label_names
        return child

    def set(self, value: float) -> None:
        self._check_leaf()
        self._value = float(value)

    def set_callback(self, callback: Callable[[], float] | None) -> None:
        """Compute the value at read time (e.g. replica lag from live state)."""
        self._check_leaf()
        self._callback = callback

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def render(self) -> list[str]:
        return [
            f"{self.name}{child._label_suffix()} {_format_value(child.value)}"
            for child in self.children()
        ]


class Histogram(_Metric):
    """A fixed-bucket distribution with a lock-free ``observe`` hot path.

    Bucket boundaries are upper-inclusive (Prometheus ``le`` semantics);
    values above the last boundary land in the implicit ``+Inf`` bucket.
    Per-thread cells hold ``len(buckets) + 1`` bucket counts plus the
    running sum and count, so ``observe`` is one bisect and three in-place
    adds — no lock, no allocation.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.bounds = bounds
        self._local = threading.local()
        self._cells: list[list[float]] = []

    def _make_child(self) -> "Histogram":
        child = Histogram(self.name, self.help, buckets=self.bounds)
        child.label_names = self.label_names
        return child

    def _cell(self) -> list[float]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            self._check_leaf()
            # layout: bucket counts (incl. overflow), then sum, then count
            cell = [0.0] * (len(self.bounds) + 3)
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    def observe(self, value: float) -> None:
        cell = self._cell()
        cell[bisect_left(self.bounds, value)] += 1.0
        cell[-2] += value
        cell[-1] += 1.0

    def snapshot(self) -> tuple[list[float], float, float]:
        """``(per-bucket counts incl. overflow, sum, count)`` across threads."""
        totals = [0.0] * (len(self.bounds) + 1)
        total_sum = 0.0
        total_count = 0.0
        with self._lock:
            for cell in self._cells:
                for i in range(len(totals)):
                    totals[i] += cell[i]
                total_sum += cell[-2]
                total_count += cell[-1]
        return totals, total_sum, total_count

    @property
    def count(self) -> float:
        return self.snapshot()[2]

    @property
    def sum(self) -> float:
        return self.snapshot()[1]

    def render(self) -> list[str]:
        lines = []
        for child in self.children():
            counts, total_sum, total_count = child.snapshot()
            cumulative = 0.0
            base_labels = list(zip(child.label_names, child.label_values))
            for bound, bucket in zip(child.bounds, counts):
                cumulative += bucket
                pairs = ", ".join(
                    f'{n}="{_escape_label(v)}"'
                    for n, v in (*base_labels, ("le", _format_value(bound)))
                )
                lines.append(f"{self.name}_bucket{{{pairs}}} {_format_value(cumulative)}")
            cumulative += counts[-1]
            pairs = ", ".join(
                f'{n}="{_escape_label(v)}"'
                for n, v in (*base_labels, ("le", "+Inf"))
            )
            lines.append(f"{self.name}_bucket{{{pairs}}} {_format_value(cumulative)}")
            suffix = child._label_suffix()
            lines.append(f"{self.name}_sum{suffix} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{suffix} {_format_value(total_count)}")
        return lines


def _read_sum(name: str, value: float) -> float:
    """A sum as telemetry reports it: ``*_ms`` as recorded, counts as ints."""
    return value if name.endswith("_ms") else int(value)


class Totals:
    """Named lifetime sums, one lock-free :class:`Counter` each.

    Built from ``(name, source)`` field tuples, the single place a
    telemetry class declares its totals: :meth:`add` sums the attribute
    ``source`` of a recorded stats object into ``name`` (a ``None``
    source counts the recording instead).
    """

    def __init__(self, *fields: Sequence[tuple[str, str | None]]) -> None:
        self._counters = {name: Counter(name) for group in fields for name, _ in group}

    def inc(self, name: str, amount: float = 1.0) -> None:
        self._counters[name].inc(amount)

    def add(self, stats: Any, fields: Sequence[tuple[str, str | None]]) -> None:
        counters = self._counters
        for name, source in fields:
            counters[name].inc(1 if source is None else getattr(stats, source))

    def snapshot(self) -> dict[str, float]:
        return {name: _read_sum(name, c.value) for name, c in self._counters.items()}


class Breakdown:
    """One lifetime sum split by an open key (kind, strategy, shard id).

    Each key's :class:`Counter` is created on its first update and
    memoised, so a warm update is one dict hit and a lock-free add.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._parts: dict[Any, Counter] = {}

    def inc(self, key: Any, amount: float = 1.0) -> None:
        counter = self._parts.get(key)
        if counter is None:
            counter = self._parts.setdefault(key, Counter(self.name))
        counter.inc(amount)

    def snapshot(self) -> dict[Any, float]:
        """Every key updated so far, in sorted order."""
        parts = dict(self._parts)
        return {key: _read_sum(self.name, parts[key].value) for key in sorted(parts)}


class MetricsRegistry:
    """A named collection of metric families with get-or-create semantics.

    Components register by name — two layers asking for the same counter
    share one family, which is what makes the registry *unified*.  Asking
    for an existing name with a different kind or label set is a bug and
    raises immediately.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                wanted = tuple(kwargs.get("label_names", ()))
                if existing.label_names != wanted:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{list(existing.label_names)}, got {list(wanted)}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, label_names=label_names)

    def gauge(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, label_names=label_names)
        if callback is not None:
            gauge.set_callback(callback)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, label_names=label_names, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry every component registers into."""
    return _GLOBAL
