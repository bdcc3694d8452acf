"""Front-door constructors: :func:`repro.create` and :func:`repro.open`.

One constructor family is the only way in, for every engine kind:

* :func:`create` builds a **fresh** engine over a dataset — in memory when
  ``root`` is ``None``, durable (WAL + base checkpoint) when a directory is
  given, sharded when ``sharded=True``.
* :func:`open` attaches to an **existing** durability directory — writable
  with the WAL reattached by default, read-only (optionally time-travelled
  to ``at_epoch``) with ``durable=False``.

Every writable open goes through one rule
(:func:`~repro.durability.recovery.open_durable`): the durable tip is
read before anything else, and an open that cannot recover exactly to it
is refused instead of truncating acknowledged batches.  A durable engine
is the same engine class as an in-memory one, with its ``wal`` attribute
set; :func:`repro.checkpoint` snapshots either kind.

>>> engine = repro.create(circuit.segments())                   # in-memory
>>> durable = repro.create(circuit.segments(), "model_dir")     # + WAL
>>> service = repro.create(objs, "svc_dir", sharded=True, num_shards=4)
>>> repro.checkpoint("model_dir", durable)                      # bound replay
>>> durable = repro.open("model_dir")                           # pre-crash epoch
>>> past = repro.open("model_dir", durable=False, at_epoch=3)   # time-travel
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.errors import DurabilityError
from repro.objects import SpatialObject

__all__ = ["create", "open"]


def create(
    objects: Sequence[SpatialObject],
    root: str | Path | None = None,
    *,
    sharded: bool = False,
    num_shards: int | None = None,
    wal_kwargs: dict[str, Any] | None = None,
    **engine_kwargs: Any,
) -> Any:
    """Build a fresh engine over ``objects``.

    ``root=None`` (the default) gives an in-memory engine: a
    :class:`~repro.engine.SpatialEngine`, or a
    :class:`~repro.service.ShardedEngine` when ``sharded=True``.  With a
    directory, the engine is durable — a base checkpoint is written at epoch
    0 and every mutation batch is journaled to the write-ahead log before it
    is acknowledged.  The directory must hold no prior state; resume an
    existing one with :func:`open`.  Extra keyword arguments pass through to
    the underlying engine (``page_capacity=...``, ``circuit=...``, the
    sharded service's admission knobs such as ``max_in_flight=...``, ...).
    """
    if num_shards is not None and not sharded:
        raise DurabilityError("num_shards requires sharded=True")
    if root is None:
        if wal_kwargs is not None:
            raise DurabilityError("wal_kwargs requires a durability root")
        if sharded:
            from repro.service.sharded import ShardedEngine

            return ShardedEngine(
                objects,
                num_shards=4 if num_shards is None else num_shards,
                **engine_kwargs,
            )
        from repro.engine.engine import SpatialEngine

        return SpatialEngine(objects, **engine_kwargs)

    from repro.durability.recovery import create_durable

    return create_durable(
        root,
        objects,
        sharded=sharded,
        num_shards=num_shards,
        wal_kwargs=wal_kwargs,
        **engine_kwargs,
    )


def open(
    root: str | Path,
    *,
    sharded: bool = False,
    durable: bool = True,
    at_epoch: int | None = None,
    num_shards: int | None = None,
    wal_kwargs: dict[str, Any] | None = None,
    **engine_kwargs: Any,
) -> Any:
    """Attach to an existing durability directory.

    ``durable=True`` (the default) returns a *writable* engine with the WAL
    reattached as ``engine.wal``: a :class:`~repro.engine.SpatialEngine`, or
    a :class:`~repro.service.ShardedEngine` when ``sharded=True`` — recovered
    to the exact pre-crash epoch, appending where it left off.

    ``durable=False`` returns a *read-only* recovered engine: no WAL handle
    is taken, and ``at_epoch`` may time-travel to any epoch from the oldest
    checkpoint through the durable tip.  The recovery record (checkpoint
    used, batches replayed, replay time) is attached to the returned engine
    as ``engine.last_recovery``.

    ``num_shards`` (sharded only) re-tiles the recovered dataset; the
    default keeps the checkpoint manifest's shard spec.
    """
    if num_shards is not None and not sharded:
        raise DurabilityError("num_shards requires sharded=True")
    if durable:
        if at_epoch is not None and sharded:
            raise DurabilityError(
                "at_epoch opens of a sharded service are read-only; "
                "use repro.open(root, sharded=True, durable=False, "
                f"at_epoch={at_epoch})"
            )
        from repro.durability.recovery import open_durable

        return open_durable(
            root,
            sharded=sharded,
            at_epoch=at_epoch,
            num_shards=num_shards,
            wal_kwargs=wal_kwargs,
            **engine_kwargs,
        )

    if wal_kwargs is not None:
        raise DurabilityError("wal_kwargs requires durable=True")
    from repro.durability.recovery import recover_engine

    recovery = recover_engine(
        root, at_epoch=at_epoch, sharded=sharded, num_shards=num_shards, **engine_kwargs
    )
    engine = recovery.engine
    engine.last_recovery = recovery
    return engine
