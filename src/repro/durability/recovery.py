"""Crash recovery: newest valid checkpoint + WAL-suffix replay.

The recovery contract is *epoch-exact*: a process killed after publishing
epoch ``E`` (with every batch durable in the WAL) recovers to an engine at
exactly epoch ``E`` whose uid set and query answers match a never-crashed
one — because each WAL batch replays through the same ``apply_many`` path
that produced the original epoch, starting from a checkpoint that names
precisely which WAL prefix it already folds in.

A durability directory has one layout::

    <root>/
      wal/           wal-00000001.seg ...   (repro.durability.wal)
      checkpoints/   ckpt-0000000000/ ...   (repro.durability.checkpoint)

:func:`recover_engine` rebuilds a :class:`~repro.engine.SpatialEngine` or
a :class:`~repro.service.ShardedEngine` read-only, at the pre-crash epoch
or time-travelled to any epoch at or after the oldest checkpoint
(reproducible reruns of an earlier model state).  :func:`create_durable`
and :func:`open_durable` are the only ways to take a directory's WAL for
writing — the first on a fresh directory, the second resuming one under a
single write-open rule for both engine kinds; :func:`repro.create` and
:func:`repro.open` call them.  Either returns the engine itself with its
``wal`` attribute set: both engine kinds validate a batch, journal it,
apply it and count it as one epoch, in that order.  :func:`checkpoint`
snapshots either kind.  Torn WAL tails and corrupt records are
tolerated — recovery lands on the last *durable* batch instead of raising.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.durability.checkpoint import (
    latest_checkpoint,
    latest_manifest,
    list_checkpoints,
    write_checkpoint,
)
from repro.durability.wal import WalScan, WriteAheadLog, read_wal
from repro.engine.engine import SpatialEngine
from repro.errors import DurabilityError
from repro.objects import SpatialObject

__all__ = [
    "Recovery",
    "wal_path",
    "checkpoints_path",
    "durable_tip",
    "recover_engine",
    "create_durable",
    "open_durable",
    "attach_journal",
    "checkpoint",
]


def wal_path(root: str | Path) -> Path:
    """Where the write-ahead log lives inside a durability directory."""
    return Path(root) / "wal"


def checkpoints_path(root: str | Path) -> Path:
    """Where the checkpoints live inside a durability directory."""
    return Path(root) / "checkpoints"


def durable_tip(root: str | Path) -> tuple[int, int]:
    """``(anchor_seq, tip_seq)`` of a durability directory, read-only.

    The anchor is the *newest* validating checkpoint's ``wal_seq`` — the
    only safe position to anchor destructive tail repair at: under an
    older (time-travel-selected) checkpoint's anchor, mid-history damage
    the newest checkpoint already folds in reads as an unresolved torn
    tail and repair would truncate away acknowledged durable batches.
    The tip is the last durable batch seq (equal to the epoch under the
    durability layout's seq-equals-epoch invariant), never below the
    anchor even when the WAL prefix has been pruned.  Nothing on disk is
    modified.
    """
    anchor = latest_manifest(checkpoints_path(root)).wal_seq
    scan = read_wal(wal_path(root), anchor_seq=anchor, decode=False)
    return anchor, max(scan.last_seq, anchor)


@dataclass
class Recovery:
    """One recovery outcome: the rebuilt engine and how it was reached."""

    engine: Any  # SpatialEngine or ShardedEngine
    checkpoint_epoch: int
    checkpoint_wal_seq: int  # the WAL anchor the chosen checkpoint folds in
    epoch: int
    batches_replayed: int
    mutations_replayed: int
    wal_truncated: bool  # a torn/corrupt record cut the replay short
    replay_ms: float

    def describe(self) -> str:
        tail = " (torn WAL tail dropped)" if self.wal_truncated else ""
        return (
            f"recovered to epoch {self.epoch}: checkpoint at epoch "
            f"{self.checkpoint_epoch} + {self.batches_replayed} WAL batches "
            f"({self.mutations_replayed} mutations) replayed in "
            f"{self.replay_ms:.1f} ms{tail}"
        )


def _replay(
    engine: Any,
    scan: WalScan,
    after_seq: int,
    stop_after_batches: int | None = None,
) -> tuple[int, int, float]:
    """Apply the WAL suffix through ``apply_many``; return replay counters."""
    start = time.perf_counter()
    batches = 0
    mutations = 0
    for _seq, batch in scan.suffix(after_seq):
        if stop_after_batches is not None and batches >= stop_after_batches:
            break
        engine.apply_many(batch)
        batches += 1
        mutations += len(batch)
    return batches, mutations, (time.perf_counter() - start) * 1000.0


def recover_engine(
    root: str | Path,
    at_epoch: int | None = None,
    *,
    sharded: bool = False,
    num_shards: int | None = None,
    **engine_kwargs: Any,
) -> Recovery:
    """Rebuild an engine from a durability directory, read-only.

    Loads the newest valid checkpoint (optionally the newest at or below
    ``at_epoch``), replays the durable WAL suffix batch-by-batch through
    ``apply_many``, and stops either at the pre-crash epoch or — when
    ``at_epoch`` is given — at exactly that epoch.  The engine is a
    :class:`SpatialEngine`, or with ``sharded=True`` a
    :class:`~repro.service.ShardedEngine` that starts from the
    checkpoint's epoch (``num_shards`` defaults to the manifest's shard
    spec) and publishes each replayed batch as one epoch.
    """
    objects, manifest = latest_checkpoint(checkpoints_path(root), at_epoch=at_epoch)
    scan = read_wal(wal_path(root), anchor_seq=manifest.wal_seq)
    if sharded:
        from repro.service.sharded import ShardedEngine

        if num_shards is None:
            num_shards = manifest.num_shards if manifest.num_shards is not None else 1
        engine = ShardedEngine(
            objects,
            num_shards=num_shards,
            initial_epoch=manifest.epoch,
            **engine_kwargs,
        )
    else:
        engine = SpatialEngine(objects, **engine_kwargs)
        engine.epoch = manifest.epoch
    try:
        budget = None if at_epoch is None else at_epoch - manifest.epoch
        batches, mutations, replay_ms = _replay(engine, scan, manifest.wal_seq, budget)
        epoch = manifest.epoch + batches
        if at_epoch is not None and epoch != at_epoch:
            raise DurabilityError(
                f"cannot reach epoch {at_epoch}: checkpoint at epoch {manifest.epoch} "
                f"plus the durable WAL only reaches epoch {epoch}"
            )
    except BaseException:
        engine.close()  # don't leak a sharded worker pool on a failed recovery
        raise
    return Recovery(
        engine=engine,
        checkpoint_epoch=manifest.epoch,
        checkpoint_wal_seq=manifest.wal_seq,
        epoch=epoch,
        batches_replayed=batches,
        mutations_replayed=mutations,
        wal_truncated=scan.truncated,
        replay_ms=replay_ms,
    )


def create_durable(
    root: str | Path,
    objects: Sequence[SpatialObject],
    *,
    sharded: bool = False,
    num_shards: int | None = None,
    wal_kwargs: dict[str, Any] | None = None,
    **engine_kwargs: Any,
) -> Any:
    """Start a fresh journaling engine under ``root`` (must hold no state).

    Builds a :class:`~repro.engine.SpatialEngine`, or with ``sharded=True``
    a :class:`~repro.service.ShardedEngine` (``num_shards`` defaults to 4),
    and hands it to :func:`attach_journal`: epoch-0 base checkpoint, WAL.
    """
    root = Path(root)
    if list_checkpoints(checkpoints_path(root)):
        raise DurabilityError(f"{root} already holds checkpoints; use repro.open")
    # Checked read-only: opening the WAL for writing would run tail repair
    # on a log that no checkpoint anchors.
    if read_wal(wal_path(root), decode=False).last_seq:
        raise DurabilityError(
            f"{root} holds WAL batches but no base checkpoint; the log cannot "
            "be anchored — recover manually or start from a fresh directory"
        )
    if sharded:
        from repro.service.sharded import ShardedEngine

        num_shards = 4 if num_shards is None else num_shards
        engine = ShardedEngine(objects, num_shards=num_shards, **engine_kwargs)
    else:
        engine = SpatialEngine(objects, **engine_kwargs)
    return attach_journal(root, engine, wal_kwargs)


def attach_journal(
    root: str | Path, engine: Any, wal_kwargs: dict[str, Any] | None = None
) -> Any:
    """Make a WAL-less ``engine`` durable under ``root`` from its epoch on.

    Writes the engine's state as the base checkpoint at its epoch, then
    attaches a WAL anchored there, so the next batch is logged as seq
    ``epoch + 1``.  A fresh :func:`create_durable` engine starts at epoch
    0; a replica bootstrapped from a primary's snapshot starts at the
    snapshot's epoch.  A failure closes the engine.
    """
    try:
        checkpoint(root, engine)
        engine.wal = WriteAheadLog(
            wal_path(root), **{"anchor_seq": engine.epoch, **(wal_kwargs or {})}
        )
    except BaseException:
        engine.close()
        raise
    return engine


def _read_only_open(root: Path, at_epoch: int | None = None) -> str:
    """The read-only :func:`repro.open` call that suits ``root``'s engine kind."""
    sharded = latest_manifest(checkpoints_path(root)).num_shards is not None
    args = "root, sharded=True, durable=False" if sharded else "root, durable=False"
    if at_epoch is not None:
        args += f", at_epoch={at_epoch}"
    return f"repro.open({args})"


def open_durable(
    root: str | Path,
    *,
    sharded: bool = False,
    at_epoch: int | None = None,
    num_shards: int | None = None,
    wal_kwargs: dict[str, Any] | None = None,
    **engine_kwargs: Any,
) -> Any:
    """Recover a durability directory and reattach its WAL for writing.

    The one write-open rule, for both engine kinds:

    1. The durable tip is computed read-only, anchored at the *newest*
       checkpoint, before any recovery or worker pool — opening the WAL
       for writing runs destructive tail repair, and a repair anchored at
       an older (``at_epoch``-selected) checkpoint would read mid-history
       damage the newest checkpoint covers as a torn tail and truncate
       acknowledged batches.  An ``at_epoch`` below the tip is refused
       here: appending from the past would fork the history.  (Batch
       seq == epoch in a durability directory, so the tip is an epoch.)
    2. The recovered epoch must equal the tip.  The tip validates
       checkpoints at manifest+CRC level, recovery at object level; if
       they disagree (a checkpoint that reads but will not load, or
       damage blocking the replay from an older fallback), appending at
       the recovered epoch would misalign seq and epoch and orphan the
       batches between it and the tip — refuse, closing the service.
    3. The WAL opens with the caller's ``wal_kwargs``, anchored at the
       newest checkpoint's position, and resumes right after the tip.

    Returns the recovered :class:`~repro.engine.SpatialEngine`, or with
    ``sharded=True`` :class:`~repro.service.ShardedEngine`, with ``wal`` set.
    """
    root = Path(root)
    if not list_checkpoints(checkpoints_path(root)):
        raise DurabilityError(f"{root} holds no checkpoints; use repro.create")
    anchor, tip = durable_tip(root)
    if at_epoch is not None and at_epoch < tip:
        raise DurabilityError(
            f"epoch {at_epoch} is before the durable tip {tip}; time-travel "
            f"opens are read-only — use {_read_only_open(root, at_epoch)} instead"
        )
    recovery = recover_engine(
        root, at_epoch=at_epoch, sharded=sharded, num_shards=num_shards, **engine_kwargs
    )
    try:
        if recovery.epoch != tip:
            raise DurabilityError(
                f"recovered epoch {recovery.epoch} does not reach the durable "
                f"tip {tip}: the newest checkpoint or the WAL suffix is damaged "
                f"— use {_read_only_open(root)} for a read-only view; opening "
                "it for writing would fork the history"
            )
        wal = WriteAheadLog(wal_path(root), **{"anchor_seq": anchor, **(wal_kwargs or {})})
    except BaseException:
        recovery.engine.close()  # no worker pool outlives a refused open
        raise
    recovery.engine.wal = wal
    return recovery.engine


def checkpoint(root: str | Path, engine: Any) -> Path:
    """Snapshot ``engine`` (either kind) at its epoch; restarts replay only newer batches.

    The epoch and objects come from one read (a sharded engine's
    ``snapshot_objects()``, which a batch publishing on another thread
    cannot tear), and the checkpoint claims exactly the first ``epoch``
    WAL batches — the batch seq == epoch invariant of the durability
    layout.  Each of those was appended before it published, so flushing
    an attached WAL after the snapshot makes them durable; a later batch
    lands only in the replayed WAL suffix.  A recovered (WAL-less) engine
    is checkpointed the same way.
    """
    if isinstance(engine, SpatialEngine):
        # Columns dump straight to the binary format.
        epoch, data = engine.epoch, engine.arena
        num_shards, page_capacity = None, engine.page_capacity
    else:
        epoch, data = engine.snapshot_objects()
        num_shards, page_capacity = engine.num_shards, None
    if engine.wal is not None:
        engine.wal.flush()
    return write_checkpoint(
        checkpoints_path(root),
        data,
        epoch=epoch,
        wal_seq=epoch,
        num_shards=num_shards,
        page_capacity=page_capacity,
    )
