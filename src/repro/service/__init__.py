"""The service layer: a concurrent, admission-controlled query front.

:class:`ShardedEngine` spatially partitions one dataset into N Hilbert
shards, owns one :class:`~repro.engine.SpatialEngine` per shard, and fans
queries out across a real worker pool with deterministic result merging.
The supporting pieces:

* :mod:`repro.service.sharding` — the Hilbert-order partitioner,
* :mod:`repro.service.admission` — backpressure (in-flight limit, bounded
  queue, rejection over deadlock),
* :mod:`repro.service.stats` — per-query :class:`ServiceStats` (measured
  wall time, per-shard wall and CPU time) and thread-safe
  :class:`ServiceTelemetry`.
"""

from repro.service.admission import AdmissionController, AdmissionSnapshot
from repro.service.sharded import ShardedEngine
from repro.service.sharding import ShardSpec, hilbert_shards, round_robin_split
from repro.service.stats import (
    ServiceResult,
    ServiceStats,
    ServiceTelemetry,
    ShardWork,
)

__all__ = [
    "AdmissionController",
    "AdmissionSnapshot",
    "ServiceResult",
    "ServiceStats",
    "ServiceTelemetry",
    "ShardSpec",
    "ShardWork",
    "ShardedEngine",
    "hilbert_shards",
    "round_robin_split",
]
