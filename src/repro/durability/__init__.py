"""The durability layer: write-ahead log, checkpoints, crash recovery.

The paper's workflow is months of iterative model building; the live
mutation path (:meth:`~repro.engine.SpatialEngine.apply_many`,
:meth:`~repro.service.ShardedEngine.apply_many`) is worth nothing if a
crash loses the in-progress build.  This subsystem makes every
acknowledged mutation batch reconstructible:

* :mod:`repro.durability.wal` — an append-only, CRC-checksummed,
  segment-rotated log of serialised mutation batches with group-commit
  buffering and torn-tail detection/repair;
* :mod:`repro.durability.checkpoint` — epoch-stamped, Hilbert-packed
  snapshots of the object set, committed atomically by directory rename;
* :mod:`repro.durability.recovery` — checkpoint + WAL-suffix replay back
  to the exact pre-crash epoch or time-travelled to any checkpointed one
  (:func:`recover_engine`, read-only, either engine kind), and the only
  two ways to take a directory's WAL for writing: :func:`create_durable`
  (fresh directory) and :func:`open_durable` (resume, under one
  write-open rule).  :func:`repro.create` / :func:`repro.open` are the
  front door over them;
* :mod:`repro.durability.engine` — :class:`DurableEngine`, the
  log → apply → ack wrapper over one :class:`~repro.engine.SpatialEngine`.

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
from repro.durability.engine import DurableEngine
from repro.durability.recovery import (
    Recovery,
    checkpoint_engine,
    checkpoint_sharded,
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
    "DurableEngine",
    "Recovery",
    "WalScan",
    "WalStats",
    "WriteAheadLog",
    "checkpoint_engine",
    "checkpoint_sharded",
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
