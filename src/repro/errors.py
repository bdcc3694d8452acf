"""Exception hierarchy for the ``repro`` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """Raised for invalid geometric input (degenerate boxes, NaNs, ...)."""


class StorageError(ReproError):
    """Raised by the paged-storage substrate (unknown pages, bad capacity)."""


class PageNotFoundError(StorageError):
    """Raised when a page id is not present in a :class:`~repro.storage.Disk`."""

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist")
        self.page_id = page_id


class IndexError_(ReproError):
    """Raised by index structures (R-tree, FLAT) on invalid configuration."""


class InvariantViolation(ReproError):
    """Raised when a structural invariant check fails (used by validators)."""


class WorkloadError(ReproError):
    """Raised when a workload generator is configured inconsistently."""


class JoinError(ReproError):
    """Raised by spatial-join algorithms on invalid configuration."""


class PrefetchError(ReproError):
    """Raised by prefetchers / exploration sessions on invalid configuration."""


class MorphologyError(ReproError):
    """Raised by the neuron morphology model (bad SWC data, empty trees)."""


class EngineError(ReproError):
    """Raised by the :class:`~repro.engine.SpatialEngine` facade (bad queries,
    unknown strategies, datasets the query cannot be bound to)."""


class ServiceError(EngineError):
    """Raised by the :class:`~repro.service.ShardedEngine` query service
    (shard subtask failures, bad service configuration).  Deriving from
    :class:`EngineError` keeps one ``except`` clause sufficient for callers
    that treat the service as just another engine."""

    def __init__(self, message: str, shard_id: int | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class DurabilityError(EngineError):
    """Raised by the durability subsystem (:mod:`repro.durability`) on invalid
    configuration or unrecoverable on-disk state.  Deriving from
    :class:`EngineError` keeps the one-``except`` contract: a caller that
    writes through a WAL-attached engine catches the journal's failures
    with the same clause as the engine's own."""


class WalCorruptionError(DurabilityError):
    """Raised when a write-ahead-log record fails validation (truncated
    header, payload shorter than its length field, CRC mismatch) and the
    caller asked for strict reading.  Recovery reads tolerantly by default:
    it stops at the last durable batch instead of raising."""


class CheckpointMismatchError(DurabilityError):
    """Raised when a checkpoint's manifest and data disagree (bad checksum,
    wrong object count, missing data file) — the checkpoint is not trusted.
    Recovery skips mismatched checkpoints and falls back to the newest
    older one that validates."""


class CatalogError(DurabilityError):
    """Raised by the dataset catalog (:mod:`repro.catalog`): unknown dataset
    or tag names, a corrupt ``catalog.json`` manifest, tags pinned to
    unreachable epochs.  Deriving from :class:`DurabilityError` keeps the
    one-``except`` contract — the catalog is the naming layer over the same
    durable directories."""


class ServerError(EngineError):
    """Raised by the network front door (:mod:`repro.server`): failed
    requests, unexpected responses, transport errors.  ``code`` carries the
    machine-readable error code of a server ERROR frame when one exists.
    Deriving from :class:`EngineError` keeps the one-``except`` contract: a
    caller that treats a remote engine as just another engine catches its
    failures with the same clause."""

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class ProtocolError(ServerError):
    """Raised on a malformed wire frame (bad length prefix, oversized
    payload, non-JSON body, unsupported protocol version, unknown frame or
    query kind).  A protocol error poisons only its own connection — the
    server drops that session and keeps serving the rest."""


class NotPrimaryError(ServerError):
    """Raised when a write (MUTATE / CHECKPOINT) is sent to a replica.
    Replicas serve epoch-consistent reads only; promote one (failover) or
    address the primary to write."""


class ServiceOverloadError(ServiceError):
    """Raised when admission control rejects a query: the service is at its
    in-flight limit and the bounded wait queue is full (or the queue wait
    timed out).  Back off and retry — nothing was executed."""


class ServiceTimeoutError(ServiceError):
    """Raised when an admitted query misses its per-query deadline.  A shard
    subtask already running is not interrupted; it finishes, its result is
    discarded and no later subtask of the query starts."""
