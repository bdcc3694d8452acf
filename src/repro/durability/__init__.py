"""The durability layer: write-ahead log, checkpoints, crash recovery.

The paper's workflow is months of iterative model building; the live
mutation path (:meth:`~repro.engine.SpatialEngine.apply_many`,
:meth:`~repro.service.ShardedEngine.apply_many`) is worth nothing if a
crash loses the in-progress build.  This subsystem makes every
acknowledged mutation batch reconstructible:

* :mod:`repro.durability.wal` — an append-only, CRC-checksummed,
  segment-rotated log of serialised mutation batches, each written and
  flushed before ``append`` returns, with torn-tail detection/repair;
* :mod:`repro.durability.checkpoint` — epoch-stamped, Hilbert-packed
  snapshots of the object set, committed atomically by directory rename;
* :mod:`repro.durability.recovery` — checkpoint + WAL-suffix replay back
  to the exact pre-crash epoch or time-travelled to any checkpointed one
  (:func:`recover_engine`, read-only, either engine kind), and the only
  two ways to take a directory's WAL for writing: :func:`create_durable`
  (fresh directory) and :func:`open_durable` (resume, under one
  write-open rule), and :func:`checkpoint` for either engine kind.
  :func:`repro.create` / :func:`repro.open` are the front door over them.

There is no durable wrapper type: a durable engine is a
:class:`~repro.engine.SpatialEngine` or :class:`~repro.service.ShardedEngine`
whose ``wal`` attribute is set, and both journal a validated batch before
they apply it.

Failures surface under one root: :class:`~repro.errors.DurabilityError`
(with :class:`~repro.errors.WalCorruptionError` and
:class:`~repro.errors.CheckpointMismatchError`) derives from
:class:`~repro.errors.EngineError`, so the usual one-``except`` contract
covers the durable engines too.
"""

from repro.durability.checkpoint import (
    CheckpointManifest,
    latest_checkpoint,
    latest_manifest,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.durability.recovery import (
    Recovery,
    attach_journal,
    checkpoint,
    checkpoints_path,
    create_durable,
    durable_tip,
    open_durable,
    recover_engine,
    wal_path,
)
from repro.durability.wal import WalScan, WalStats, WriteAheadLog, read_wal

__all__ = [
    "CheckpointManifest",
    "Recovery",
    "WalScan",
    "WalStats",
    "WriteAheadLog",
    "attach_journal",
    "checkpoint",
    "checkpoints_path",
    "create_durable",
    "durable_tip",
    "latest_checkpoint",
    "latest_manifest",
    "list_checkpoints",
    "load_checkpoint",
    "open_durable",
    "read_manifest",
    "read_wal",
    "recover_engine",
    "wal_path",
    "write_checkpoint",
]
