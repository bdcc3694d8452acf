"""Observability: query tracing, the unified metrics registry, slow-query log.

Three surfaces, one package:

* :mod:`repro.obs.trace` — nested span trees carried by a contextvar
  and wire-serialisable trace trees
  (``repro query --trace``);
* :mod:`repro.obs.metrics` — named counters / gauges / histograms with a
  lock-free hot path, registered by every layer (engine, service, WAL,
  server, catalog, kernels) and exported as Prometheus text via the
  ``metrics`` protocol frame and ``repro connect --cmd metrics``;
* :mod:`repro.obs.slowlog` — a ring-buffer slow-query log
  (``slow_query_ms`` threshold), queryable over the wire.
"""

from repro.obs import metrics, trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Span, span, start_trace

__all__ = [
    "metrics",
    "trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "SlowQueryLog",
    "Span",
    "span",
    "start_trace",
]
