"""Columnar arena — structure-of-arrays storage as the source of truth.

The paper's storage argument is that neuroscience-scale spatial data should
be laid out for the access path, not as an object graph.  The arena keeps
packed columns (uids, AABB bounds, segment endpoints/radii, provenance) as
the canonical representation; :class:`~repro.objects.BoxObject` and
:class:`~repro.geometry.Segment` instances are materialized on demand and
cached per row.

Two pieces are exported:

* :class:`BoundsView` — an immutable carrier for a batch of AABB bounds with
  a per-backend packed-array memo.  Pages and R-tree nodes hold one of these
  instead of maintaining version-invalidated pack caches: when content
  changes, a *new* view is built (a one-row edit shares the other rows),
  so a view in hand is valid forever.
* :class:`ColumnarArena` — append/tombstone/compact columns with an epoch
  stamp.  Snapshots are copy-on-write column slices: immutable tuples cached
  per epoch, so repeated snapshots of an unchanged arena are free and a
  snapshot taken before a mutation is never affected by it.

Deletion uses swap-remove on the *live order* (the last live row takes the
deleted row's position), matching the engine's historical ``objects`` list
semantics so dataset profiles and index build layouts are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.errors import EngineError
from repro.geometry.aabb import AABB
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3
from repro.objects import BoxObject, SpatialObject

__all__ = [
    "BoundsView",
    "ColumnarArena",
    "ArenaSnapshot",
    "KIND_BOX",
    "KIND_SEGMENT",
    "KIND_OPAQUE",
]

#: Row kinds.  Opaque rows keep the original object (it cannot be rebuilt
#: from columns); box/segment rows materialize purely from column data.
KIND_BOX = 0
KIND_SEGMENT = 1
KIND_OPAQUE = 2

_ZERO3 = (0.0, 0.0, 0.0)
_NO_ROWS = np.empty((0, 6))


class BoundsView:
    """An immutable batch of AABB bounds with per-backend packed memos.

    Validity is by immutability: a view never changes after construction, so
    holders (pages, R-tree nodes) need no invalidation protocol — changed
    content means a new view.  ``packed()`` lazily builds and memoizes the
    active kernel backend's packed representation.
    """

    __slots__ = ("_bounds", "_packs")

    def __init__(self, bounds: Iterable[tuple[float, float, float, float, float, float]]):
        self._bounds = tuple(bounds)
        self._packs: dict[str, object] = {}

    def replace_row(self, i: int, row: tuple[float, ...]) -> "BoundsView":
        """A new view with row ``i`` replaced by ``row``; other rows are shared."""
        bounds = self._bounds
        return BoundsView(bounds[:i] + (row,) + bounds[i + 1 :])

    def append_row(self, row: tuple[float, ...]) -> "BoundsView":
        """A new view with ``row`` appended; other rows are shared."""
        return BoundsView(self._bounds + (row,))

    def remove_row(self, i: int) -> "BoundsView":
        """A new view without row ``i``; other rows are shared."""
        bounds = self._bounds
        return BoundsView(bounds[:i] + bounds[i + 1 :])

    @property
    def bounds(self) -> tuple[tuple[float, float, float, float, float, float], ...]:
        return self._bounds

    def __len__(self) -> int:
        return len(self._bounds)

    def packed(self) -> object:
        """The active backend's packed form of these bounds (memoized)."""
        token = kernels.pack_token()
        pack = self._packs.get(token)
        if pack is None:
            pack = kernels.pack_bounds(self._bounds)
            self._packs[token] = pack
        return pack


@dataclass(frozen=True)
class ArenaSnapshot:
    """Copy-on-write column slices of the live rows at one epoch.

    Every field is an immutable tuple in live order; mutating the arena after
    taking a snapshot cannot affect it.  Snapshots at the same epoch share
    storage (the arena caches the last one).
    """

    epoch: int
    uids: tuple[int, ...]
    kinds: tuple[int, ...]
    bounds: tuple[tuple[float, float, float, float, float, float], ...]
    p0: tuple[tuple[float, float, float], ...]
    p1: tuple[tuple[float, float, float], ...]
    radius: tuple[float, ...]
    neuron: tuple[int, ...]
    branch: tuple[int, ...]
    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.uids)


class ColumnarArena:
    """Structure-of-arrays object storage with tombstones and COW snapshots.

    Columns are parallel Python lists indexed by *row*; live rows are tracked
    in ``_live_rows`` (append on insert, swap-remove on tombstone) and looked
    up through ``_pos_of_uid``.  Mutations bump ``epoch``; materialized
    objects, bounds views and snapshots are cached per row / per epoch, and
    the bounds column's array form grows with the rows.
    """

    __slots__ = (
        "uids",
        "kinds",
        "bounds",
        "p0",
        "p1",
        "radius",
        "neuron",
        "branch",
        "order",
        "_objects",
        "_live_rows",
        "_pos_of_uid",
        "_epoch",
        "_dead_rows",
        "_live_cache",
        "_view_cache",
        "_snapshot_cache",
        "_world_cache",
        "_bounds_array",
        "_array_rows",
    )

    def __init__(self) -> None:
        self.uids: list[int] = []
        self.kinds: list[int] = []
        self.bounds: list[tuple[float, float, float, float, float, float]] = []
        self.p0: list[tuple[float, float, float]] = []
        self.p1: list[tuple[float, float, float]] = []
        self.radius: list[float] = []
        self.neuron: list[int] = []
        self.branch: list[int] = []
        self.order: list[int] = []
        self._objects: list[SpatialObject | None] = []
        self._live_rows: list[int] = []
        self._pos_of_uid: dict[int, int] = {}
        self._epoch = 0
        self._dead_rows = 0
        self._live_cache: list[SpatialObject] | None = None
        self._view_cache: tuple[int, BoundsView] | None = None
        self._snapshot_cache: ArenaSnapshot | None = None
        self._world_cache: tuple[int, AABB] | None = None
        self._bounds_array = _NO_ROWS
        self._array_rows = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_objects(cls, objects: Iterable[SpatialObject]) -> "ColumnarArena":
        arena = cls()
        for obj in objects:
            arena.append(obj)
        return arena

    # -- introspection -----------------------------------------------------

    @property
    def epoch(self) -> int:
        """Bumped on every mutation; snapshot/view caches key off it."""
        return self._epoch

    @property
    def num_live(self) -> int:
        return len(self._live_rows)

    @property
    def num_dead(self) -> int:
        return self._dead_rows

    def __len__(self) -> int:
        return len(self._live_rows)

    def __contains__(self, uid: int) -> bool:
        return uid in self._pos_of_uid

    def contains(self, uid: int) -> bool:
        return uid in self._pos_of_uid

    # -- mutation ----------------------------------------------------------

    def append(self, obj: SpatialObject) -> None:
        """Append one object's columns; O(1) list/dict work."""
        uid = obj.uid
        if uid in self._pos_of_uid:
            raise EngineError(f"duplicate object uid {uid} in dataset")
        row = len(self.uids)
        self._append_columns_of(obj)
        self._pos_of_uid[uid] = len(self._live_rows)
        self._live_rows.append(row)
        self._bump()

    def tombstone(self, uid: int) -> SpatialObject:
        """Remove ``uid`` from the live set (swap-remove on live order).

        The row's column data stays in place until :meth:`compact`; only the
        live-order bookkeeping changes, so this is O(1).
        """
        pos = self._pos_of_uid.get(uid)
        if pos is None:
            raise EngineError(f"cannot delete unknown uid {uid}")
        old = self.materialize(self._live_rows[pos])
        last = self._live_rows.pop()
        if pos < len(self._live_rows):
            self._live_rows[pos] = last
            self._pos_of_uid[self.uids[last]] = pos
        del self._pos_of_uid[uid]
        self._dead_rows += 1
        self._bump()
        return old

    def replace(self, obj: SpatialObject) -> SpatialObject:
        """Replace the geometry of ``obj.uid`` in place (live position kept)."""
        uid = obj.uid
        pos = self._pos_of_uid.get(uid)
        if pos is None:
            raise EngineError(f"cannot move unknown uid {uid}")
        row = self._live_rows[pos]
        old = self.materialize(row)
        # Appending a fresh row and retargeting the live slot keeps rows
        # write-once, which is what lets snapshots share column storage.
        new_row = len(self.uids)
        self._append_columns_of(obj)
        self._live_rows[pos] = new_row
        self._dead_rows += 1
        self._bump()
        return old

    def compact(self) -> int:
        """Drop dead rows, rewriting columns in live order; returns rows freed.

        Live content is unchanged, so the epoch is *not* bumped and existing
        snapshots/views stay valid.
        """
        dead = self._dead_rows
        if dead == 0:
            return 0
        rows = self._live_rows
        self.uids = [self.uids[r] for r in rows]
        self.kinds = [self.kinds[r] for r in rows]
        self.bounds = [self.bounds[r] for r in rows]
        self.p0 = [self.p0[r] for r in rows]
        self.p1 = [self.p1[r] for r in rows]
        self.radius = [self.radius[r] for r in rows]
        self.neuron = [self.neuron[r] for r in rows]
        self.branch = [self.branch[r] for r in rows]
        self.order = [self.order[r] for r in rows]
        self._objects = [self._objects[r] for r in rows]
        self._live_rows = list(range(len(rows)))
        self._dead_rows = 0
        self._bounds_array, self._array_rows = _NO_ROWS, 0
        return dead

    def maybe_compact(self, *, slack: int = 64) -> int:
        """Compact once dead rows outnumber ``max(slack, live rows // 4)``.

        A long-lived arena (a sharded service's shard applies every write
        batch in place) thus never holds more than a fifth of its rows
        dead, while compaction stays amortised O(1) per mutation.
        """
        if self._dead_rows > max(slack, len(self._live_rows) // 4):
            return self.compact()
        return 0

    def _append_columns_of(self, obj: SpatialObject) -> None:
        self.uids.append(obj.uid)
        if isinstance(obj, Segment):
            self.kinds.append(KIND_SEGMENT)
            self.bounds.append(obj.aabb.bounds())
            # A Vec3 is already a 3-tuple: the column shares the object's.
            self.p0.append(obj.p0)
            self.p1.append(obj.p1)
            self.radius.append(obj.radius)
            self.neuron.append(obj.neuron_id)
            self.branch.append(obj.branch_id)
            self.order.append(obj.order)
        elif isinstance(obj, BoxObject):
            self.kinds.append(KIND_BOX)
            self.bounds.append(obj.box.bounds())
            self.p0.append(_ZERO3)
            self.p1.append(_ZERO3)
            self.radius.append(0.0)
            self.neuron.append(-1)
            self.branch.append(-1)
            self.order.append(-1)
        else:
            self.kinds.append(KIND_OPAQUE)
            self.bounds.append(obj.aabb.bounds())
            self.p0.append(_ZERO3)
            self.p1.append(_ZERO3)
            self.radius.append(0.0)
            self.neuron.append(-1)
            self.branch.append(-1)
            self.order.append(-1)
        self._objects.append(obj)

    def _bump(self) -> None:
        self._epoch += 1
        self._live_cache = None
        self._snapshot_cache = None

    # -- reads -------------------------------------------------------------

    def materialize(self, row: int) -> SpatialObject:
        """The object at ``row``, built from columns on first access."""
        obj = self._objects[row]
        if obj is None:
            kind = self.kinds[row]
            if kind == KIND_SEGMENT:
                obj = Segment(
                    uid=self.uids[row],
                    p0=Vec3(*self.p0[row]),
                    p1=Vec3(*self.p1[row]),
                    radius=self.radius[row],
                    neuron_id=self.neuron[row],
                    branch_id=self.branch[row],
                    order=self.order[row],
                )
            else:
                obj = BoxObject(uid=self.uids[row], box=AABB(*self.bounds[row]))
            self._objects[row] = obj
        return obj

    def object(self, uid: int) -> SpatialObject:
        pos = self._pos_of_uid.get(uid)
        if pos is None:
            raise EngineError(f"unknown uid {uid}")
        return self.materialize(self._live_rows[pos])

    def get(self, uid: int) -> SpatialObject | None:
        pos = self._pos_of_uid.get(uid)
        if pos is None:
            return None
        return self.materialize(self._live_rows[pos])

    def aabb_of(self, uid: int) -> AABB:
        pos = self._pos_of_uid.get(uid)
        if pos is None:
            raise EngineError(f"unknown uid {uid}")
        return AABB(*self.bounds[self._live_rows[pos]])

    def bounds_of(self, obj: SpatialObject) -> tuple[float, float, float, float, float, float]:
        """``obj``'s bounds: the column's own tuple when ``obj`` is a live row's object.

        Any other version of the uid (stale, newer, or never held here)
        gets a fresh ``obj.aabb.bounds()``, so the answer always describes
        ``obj`` itself; sharing the column's tuple only saves memory.
        """
        pos = self._pos_of_uid.get(obj.uid)
        if pos is not None:
            row = self._live_rows[pos]
            if self._objects[row] is obj:
                return self.bounds[row]
        return obj.aabb.bounds()

    def live_objects(self) -> list[SpatialObject]:
        """Live objects in live order (cached per epoch; treat as read-only)."""
        cached = self._live_cache
        if cached is None:
            cached = [self.materialize(row) for row in self._live_rows]
            self._live_cache = cached
        return cached

    def live_uids(self) -> list[int]:
        return [self.uids[row] for row in self._live_rows]

    def live_bounds(self) -> list[tuple[float, float, float, float, float, float]]:
        return [self.bounds[row] for row in self._live_rows]

    @property
    def live_rows(self) -> list[int]:
        """The row of each live position, in live order (treat as read-only)."""
        return self._live_rows

    def bounds_array(self) -> np.ndarray:
        """The bounds column as one float64 ``(rows, 6)`` array, dead rows too.

        Rows are write-once, so each call converts only the rows appended
        since the last one, into a buffer with a quarter's headroom;
        :meth:`compact` and :meth:`restore` rewrite rows and drop it.
        """
        rows, done = len(self.bounds), self._array_rows
        if done < rows:
            if len(self._bounds_array) < rows:
                grown = np.empty((rows + rows // 4, 6))
                grown[:done] = self._bounds_array[:done]
                self._bounds_array = grown
            self._bounds_array[done:rows] = self.bounds[done:rows]
            self._array_rows = rows
        return self._bounds_array[:rows]

    def bounds_view(self) -> BoundsView:
        """A :class:`BoundsView` over the live rows (cached per epoch)."""
        cached = self._view_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        view = BoundsView(self.bounds[row] for row in self._live_rows)
        self._view_cache = (self._epoch, view)
        return view

    def world(self) -> AABB:
        """Union of all live bounds (cached per epoch)."""
        cached = self._world_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        if not self._live_rows:
            raise EngineError("arena is empty")
        live = self.bounds_array()
        if self._dead_rows:
            live = live[self._live_rows]
        world = AABB(*live[:, :3].min(axis=0).tolist(), *live[:, 3:].max(axis=0).tolist())
        self._world_cache = (self._epoch, world)
        return world

    def snapshot(self) -> ArenaSnapshot:
        """Epoch-stamped COW column slices of the live rows."""
        cached = self._snapshot_cache
        if cached is not None and cached.epoch == self._epoch:
            return cached
        rows = self._live_rows
        snap = ArenaSnapshot(
            epoch=self._epoch,
            uids=tuple(self.uids[r] for r in rows),
            kinds=tuple(self.kinds[r] for r in rows),
            bounds=tuple(self.bounds[r] for r in rows),
            p0=tuple(self.p0[r] for r in rows),
            p1=tuple(self.p1[r] for r in rows),
            radius=tuple(self.radius[r] for r in rows),
            neuron=tuple(self.neuron[r] for r in rows),
            branch=tuple(self.branch[r] for r in rows),
            order=tuple(self.order[r] for r in rows),
        )
        self._snapshot_cache = snap
        return snap

    @classmethod
    def from_snapshot(cls, snap: ArenaSnapshot | "ColumnarArena") -> "ColumnarArena":
        """Rebuild an arena from snapshot columns without materializing objects."""
        arena = cls()
        source: ArenaSnapshot | ColumnarArena = snap
        if isinstance(source, ColumnarArena):
            source = source.snapshot()
        n = len(source.uids)
        arena.uids = list(source.uids)
        arena.kinds = list(source.kinds)
        arena.bounds = list(source.bounds)
        arena.p0 = list(source.p0)
        arena.p1 = list(source.p1)
        arena.radius = list(source.radius)
        arena.neuron = list(source.neuron)
        arena.branch = list(source.branch)
        arena.order = list(source.order)
        arena._objects = [None] * n
        arena._live_rows = list(range(n))
        arena._pos_of_uid = {uid: i for i, uid in enumerate(source.uids)}
        if len(arena._pos_of_uid) != n:
            raise EngineError("snapshot contains duplicate uids")
        return arena

    def restore(self, snap: ArenaSnapshot) -> None:
        """Reset the live set to exactly ``snap``'s content, in place.

        The restore rewrites every column from the snapshot's copy-on-write
        slices rather than reusing stored row indices: rows recorded before
        a :meth:`compact` point at positions the compaction has since
        rewritten, so replaying old indices could resurrect tombstoned rows
        or mismap live slots.  Rebuilding from the snapshot's own columns is
        immune to any interleaved churn (insert/delete/move, compaction).

        The epoch is bumped — a restore is a mutation of the live set — so
        snapshots, bounds views and materialization caches all invalidate.
        """
        n = len(snap.uids)
        pos_of_uid = {uid: i for i, uid in enumerate(snap.uids)}
        if len(pos_of_uid) != n:
            raise EngineError("snapshot contains duplicate uids")
        self.uids = list(snap.uids)
        self.kinds = list(snap.kinds)
        self.bounds = list(snap.bounds)
        self.p0 = list(snap.p0)
        self.p1 = list(snap.p1)
        self.radius = list(snap.radius)
        self.neuron = list(snap.neuron)
        self.branch = list(snap.branch)
        self.order = list(snap.order)
        self._objects = [None] * n
        self._live_rows = list(range(n))
        self._pos_of_uid = pos_of_uid
        self._dead_rows = 0
        self._view_cache = None
        self._world_cache = None
        self._bounds_array, self._array_rows = _NO_ROWS, 0
        self._bump()

    def rows_for(self, uids: Sequence[int]) -> list[int]:
        """Row indices of the given live uids (in the given order)."""
        rows = []
        for uid in uids:
            pos = self._pos_of_uid.get(uid)
            if pos is None:
                raise EngineError(f"unknown uid {uid}")
            rows.append(self._live_rows[pos])
        return rows
