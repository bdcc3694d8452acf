"""Declarative mutations — how a live dataset changes under the engine.

The paper's workflow is iterative model *building*: neuroscientists grow
and edit circuits continuously, so the indexes must absorb inserts,
deletes and moves while queries keep running.  A mutation describes *what*
changes; :meth:`SpatialEngine.apply` / :meth:`apply_many` and
:meth:`ShardedEngine.apply_many` decide *how* — page-level FLAT
maintenance, R-tree insert/delete, buffer-pool and kernel-pack
invalidation, and (in the sharded service) an in-place apply on each
touched shard's warm engine under the exclusive side of an epoch gate, so
in-flight readers never observe a torn state.  Shards are rebuilt only
when a batch re-tiles the service.

Like queries, mutations are immutable values: they can be built once,
logged, replayed, batched and routed.  A batch applied via ``apply_many``
is one atomic visibility step for the sharded service — readers see either
the pre-batch epoch or the post-batch epoch, never a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import EngineError, GeometryError
from repro.geometry.segment import Segment
from repro.objects import SpatialObject

__all__ = [
    "Insert",
    "Delete",
    "Move",
    "Mutation",
    "MutationStats",
    "MutationResult",
    "validate_finite_geometry",
]


def validate_finite_geometry(obj: SpatialObject) -> None:
    """Reject NaN/inf geometry at mutation ingress.

    Constructors validate finiteness, but objects can reach ``apply_many``
    without ever running ``__post_init__`` — unpickling and
    ``object.__setattr__`` both bypass it, and a :class:`Segment` crafted
    that way keeps a stale *finite* cached AABB over non-finite raw
    fields.  Downstream nothing else catches it: ``struct.pack`` encodes
    NaN into binary checkpoints byte-for-byte, and Python's JSON encoder
    emits nonstandard ``NaN`` / ``Infinity`` tokens into the WAL and the
    wire protocol.  So the engines re-check the *raw* fields here, before
    any durability path sees the object.
    """
    if isinstance(obj, Segment):
        for value in (*obj.p0, *obj.p1, obj.radius):
            if not math.isfinite(value):
                raise EngineError(
                    f"mutation rejected: segment uid {obj.uid} has non-finite "
                    f"geometry ({value!r}); NaN/inf cannot round-trip through "
                    "the WAL, the wire protocol, or binary checkpoints"
                )
    try:
        box = obj.aabb
    except GeometryError as exc:
        raise EngineError(
            f"mutation rejected: object uid {obj.uid} has invalid geometry: {exc}"
        ) from exc
    for value in (box.min_x, box.min_y, box.min_z, box.max_x, box.max_y, box.max_z):
        if not math.isfinite(value):
            raise EngineError(
                f"mutation rejected: object uid {obj.uid} has a non-finite "
                f"bounding box ({value!r}); NaN/inf cannot round-trip through "
                "the WAL, the wire protocol, or binary checkpoints"
            )


@dataclass(frozen=True)
class Insert:
    """Add a new object to the dataset.

    ``obj`` may be any :class:`~repro.objects.SpatialObject`; its ``uid``
    must not already be present.  ``apply_many`` raises
    :class:`~repro.errors.EngineError` on a duplicate and applies nothing
    from the offending batch position onward.
    """

    obj: SpatialObject

    kind = "insert"

    @property
    def uid(self) -> int:
        return self.obj.uid


@dataclass(frozen=True)
class Delete:
    """Remove the object with ``uid`` from the dataset.

    Unknown uids raise :class:`~repro.errors.EngineError`.  Deleting the
    last object is rejected: an engine (and every shard view) is defined
    over a non-empty dataset.
    """

    uid: int

    kind = "delete"


@dataclass(frozen=True)
class Move:
    """Replace the geometry of object ``uid`` with ``obj`` (same uid).

    ``obj`` is the full replacement object — for a neuron segment that is
    the re-placed segment, for a box object the relocated box.  FLAT
    applies a move *in place* (page rewrite; seed-tree and neighbour
    refresh only if the page MBR changes) when the new geometry still fits
    the owning partition's MBR,
    and falls back to delete-then-reinsert routing otherwise; the R-tree
    always reroutes.  ``obj.uid`` must equal ``uid``.
    """

    uid: int
    obj: SpatialObject

    kind = "move"

    def __post_init__(self) -> None:
        if self.obj.uid != self.uid:
            raise EngineError(
                f"Move target uid {self.uid} != replacement object uid {self.obj.uid}"
            )


#: Anything the engines can apply.
Mutation = Insert | Delete | Move


@dataclass
class MutationStats:
    """The uniform counters of one ``apply_many`` batch."""

    inserts: int = 0
    deletes: int = 0
    moves: int = 0
    elapsed_ms: float = 0.0  # wall-clock application time
    epoch: int = 0  # the engine's epoch after the batch (batches applied so far)
    rebalanced: bool = False  # did the service re-tile its shards afterwards
    # Service shards the batch wrote to: applied in place under the epoch
    # gate, or every shard of the new tiling when the batch re-tiled
    # (the only time shards are rebuilt).
    shards_touched: int = 0

    @property
    def applied(self) -> int:
        return self.inserts + self.deletes + self.moves

    def count(self, mutation: Mutation) -> None:
        if isinstance(mutation, Insert):
            self.inserts += 1
        elif isinstance(mutation, Delete):
            self.deletes += 1
        else:
            self.moves += 1


@dataclass
class MutationResult:
    """What every ``apply`` / ``apply_many`` call returns."""

    stats: MutationStats
    num_objects: int = 0  # dataset size after the batch
    applied: list[Mutation] = field(default_factory=list)
