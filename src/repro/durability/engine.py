"""The :class:`DurableEngine` — a crash-safe wrapper over one engine.

Log → apply → ack: every mutation batch is appended to the write-ahead
log *before* it touches the in-memory :class:`~repro.engine.SpatialEngine`.
Under the default group-commit window (``flush_batches=1``) every
acknowledged batch is durable by ack time, so the acknowledged state is
always reconstructible; a wider window (``wal_kwargs={"flush_batches": N}``)
trades a bounded crash window — the batches still buffered — for append
throughput.  :attr:`DurableEngine.last_durable_epoch` reports the durable
frontier and :meth:`DurableEngine.flush` closes the window on demand, so
callers that widen it can still fsync-style wait.  Queries pass straight
through (reads are never logged); :meth:`checkpoint` folds the log into
an epoch-stamped snapshot so restarts replay only the suffix.

The restart story is one call:

>>> durable = repro.create(objects, "model_dir")
>>> durable.apply_many(batch)          # logged, applied, acked
>>> durable.close()                    # or the process dies — same thing
>>> durable = repro.open("model_dir")
>>> durable.epoch                      # exactly where it left off

Each ``apply_many`` batch advances the engine's *epoch* by one — the same
batch-equals-epoch accounting the sharded service uses — and
``result.stats.epoch`` reports it, so a single durable engine and a
durable :class:`~repro.service.ShardedEngine` speak the same dialect.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.durability.recovery import checkpoint_engine
from repro.durability.wal import WriteAheadLog
from repro.engine.engine import SpatialEngine
from repro.engine.mutations import (
    Delete,
    Insert,
    Move,
    Mutation,
    MutationResult,
    validate_finite_geometry,
)
from repro.engine.queries import Query
from repro.engine.stats import EngineResult
from repro.errors import DurabilityError, EngineError

__all__ = ["DurableEngine"]


class DurableEngine:
    """A :class:`SpatialEngine` whose mutations survive process death.

    Built by :func:`repro.create` (fresh directory: writes the epoch-0 base
    checkpoint) or :func:`repro.open` (existing directory: recovers
    checkpoint + WAL suffix to the exact pre-crash epoch).  The wrapper owns
    the WAL; close it (or use it as a context manager) to flush the
    group-commit window on the way out.
    """

    def __init__(
        self,
        engine: SpatialEngine,
        wal: WriteAheadLog,
        root: Path,
        epoch: int = 0,
    ) -> None:
        self.engine = engine
        self.wal = wal
        self.root = Path(root)
        self._epoch = epoch

    # -- the durable write path -------------------------------------------
    @property
    def epoch(self) -> int:
        """Mutation batches acknowledged over this directory's lifetime."""
        return self._epoch

    def apply(self, mutation: Mutation) -> MutationResult:
        return self.apply_many((mutation,))

    def apply_many(self, mutations: Sequence[Mutation]) -> MutationResult:
        """Validate, log, apply, acknowledge — in that order.

        The batch is validated against the live uid set *before* it
        reaches the WAL: an invalid batch (duplicate insert, unknown uid,
        deleting the last object) raises without logging anything, so a
        rejected batch can never poison the replay history.  A valid batch
        reaches the WAL before the engine, so a crash between the two
        replays it on recovery; a crash before the flush loses the whole
        batch, never a prefix of it (a WAL record is atomic by CRC).
        Acknowledgement means *durable* only under the default
        ``flush_batches=1`` window — with a wider group-commit window the
        batch may still be buffered at return time; watch
        :attr:`last_durable_epoch` or call :meth:`flush` to close it.
        """
        if not mutations:
            raise DurabilityError("refusing to apply an empty mutation batch")
        self._validate(mutations)
        self.wal.append(mutations)
        result = self.engine.apply_many(mutations)
        self._epoch += 1
        result.stats.epoch = self._epoch
        return result

    def _validate(self, mutations: Sequence[Mutation]) -> None:
        """Reject any batch the engine would refuse, before it is logged.

        Mirrors the checks of :meth:`SpatialEngine._apply_one` (which
        applies batches prefix-wise, not all-or-nothing) against a scratch
        uid set, so only batches that will replay cleanly become durable.
        Non-finite geometry is refused here too: the WAL's strict JSON
        encoder could not log it.
        """
        live = set(self.engine.arena.live_uids())
        for mutation in mutations:
            if isinstance(mutation, (Insert, Move)):
                validate_finite_geometry(mutation.obj)
            if isinstance(mutation, Insert):
                if mutation.obj.uid in live:
                    raise EngineError(f"cannot insert duplicate uid {mutation.obj.uid}")
                live.add(mutation.obj.uid)
            elif isinstance(mutation, Delete):
                if mutation.uid not in live:
                    raise EngineError(f"cannot delete unknown uid {mutation.uid}")
                if len(live) == 1:
                    raise EngineError("cannot delete the last object of an engine dataset")
                live.discard(mutation.uid)
            elif isinstance(mutation, Move):
                if mutation.uid not in live:
                    raise EngineError(f"cannot move unknown uid {mutation.uid}")
            else:
                raise DurabilityError(
                    f"cannot apply mutation of type {type(mutation).__name__}"
                )

    @property
    def last_durable_epoch(self) -> int:
        """Newest epoch guaranteed to survive a crash.

        Equal to :attr:`epoch` under the default ``flush_batches=1``; with
        a wider group-commit window it trails the acknowledged epoch until
        the window fills or :meth:`flush` closes it.
        """
        return self.wal.last_durable_seq

    def flush(self) -> None:
        """Close the group-commit window: every acknowledged epoch is durable."""
        self.wal.flush()

    def checkpoint(self) -> Path:
        """Snapshot the current state; restarts replay only newer batches."""
        return checkpoint_engine(self.root, self.engine, epoch=self._epoch, wal=self.wal)

    # -- reads pass straight through ---------------------------------------
    def execute(self, query: Query) -> EngineResult:
        return self.engine.execute(query)

    def query_many(self, queries: Sequence[Query]) -> list[EngineResult]:
        return self.engine.query_many(queries)

    def explain(self, query: Query):
        return self.engine.explain(query)

    @property
    def objects(self) -> list[Any]:
        return self.engine.objects

    @property
    def num_objects(self) -> int:
        return self.engine.num_objects

    @property
    def telemetry(self):
        return self.engine.telemetry

    def describe(self) -> str:
        return (
            f"Durable{self.engine.describe()} | epoch {self._epoch}, WAL at "
            f"batch {self.wal.last_durable_seq} in {self.root}"
        )

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Flush the group-commit window and release the WAL handle."""
        self.wal.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
