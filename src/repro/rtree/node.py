"""R-tree nodes and entries.

A node occupies exactly one simulated disk page (the textbook layout), so
"nodes visited" equals "index pages read".  ``Entry`` doubles as the leaf
entry (``uid`` set, ``child`` None) and the internal entry (``child`` set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro import kernels
from repro.errors import InvariantViolation
from repro.geometry.aabb import AABB

__all__ = ["Entry", "Node", "ENTRY_BYTES", "NODE_HEADER_BYTES", "bounds_column"]

#: Modelled bytes per entry: 6 float64 bounds + 8-byte pointer/uid.
ENTRY_BYTES = 56
#: Modelled per-node header bytes.
NODE_HEADER_BYTES = 24


def bounds_column(rows: Iterable[Sequence[float]]) -> np.ndarray:
    """Bounds rows as a float64 ``(n, 6)`` column."""
    return np.array(list(rows), dtype=float).reshape(-1, 6)


@dataclass(slots=True)
class Entry:
    """One slot of a node: a box plus either a child node or an object uid."""

    mbr: AABB
    child: "Node | None" = None
    uid: int | None = None

    def __post_init__(self) -> None:
        if (self.child is None) == (self.uid is None):
            raise InvariantViolation("entry must reference exactly one of child/uid")


@dataclass(slots=True)
class Node:
    """An R-tree node; ``level`` 0 is a leaf, the root has the highest level.

    ``bounds`` is the entry-bounds column: row ``i`` is
    ``entries[i].mbr.bounds()`` as float64.  Bulk loads hand each node a
    slice of the arrays STR tiled; a node built from entries alone derives
    it.  A column is never written in place: every edit below installs a
    new one and drops the memoized kernel pack, which the next read packs
    again from the column (under NumPy the pack is the column itself).
    """

    level: int
    entries: list[Entry] = field(default_factory=list)
    node_id: int = -1
    bounds: np.ndarray = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    # (pack token, packed bounds) for the backend that last read the node.
    _pack: tuple[str, Any] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bounds is None:
            self.bounds = bounds_column(e.mbr.bounds() for e in self.entries)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def append(self, entry: Entry) -> None:
        """Add ``entry`` as the last slot."""
        self.entries.append(entry)
        end = len(self.bounds)
        self._splice(end, end, (entry.mbr.bounds(),))

    def set_mbr(self, i: int, mbr: AABB) -> None:
        """Set slot ``i``'s box."""
        self.entries[i].mbr = mbr
        self._splice(i, i + 1, (mbr.bounds(),))

    def remove(self, i: int) -> None:
        """Drop slot ``i``."""
        del self.entries[i]
        self._splice(i, i + 1, ())

    def split_off(self, keep: Sequence[int], move: Sequence[int]) -> "Node":
        """Keep slots ``keep`` here and move slots ``move`` to a new sibling.

        Both halves list their slots in the order given, and gather their
        columns from this node's rows.
        """
        entries, column = self.entries, self.bounds
        sibling = Node(self.level, [entries[i] for i in move], bounds=column[move])
        self.entries = [entries[i] for i in keep]
        self.bounds = column[keep]
        self._pack = None
        return sibling

    def _splice(self, start: int, stop: int, rows: tuple) -> None:
        """Replace column rows ``[start:stop)`` by ``rows``."""
        old = self.bounds
        if len(rows) == stop - start == 1:
            self.bounds = old.copy()
            self.bounds[start] = rows[0]
        elif rows:
            self.bounds = np.concatenate((old[:start], bounds_column(rows), old[stop:]))
        else:
            self.bounds = np.concatenate((old[:start], old[stop:]))
        self._pack = None

    def entry_bounds(self) -> Any:
        """Entry MBRs packed for :mod:`repro.kernels` (memoized for the active backend)."""
        token = kernels.pack_token()
        pack = self._pack
        if pack is None or pack[0] != token:
            pack = self._pack = (token, kernels.pack_bounds(self.bounds))
        return pack[1]

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def mbr(self) -> AABB:
        """Tight box over the node's entries (node must be non-empty): a
        column min/max, exact like :meth:`AABB.union_all`."""
        if not self.entries:
            raise InvariantViolation(f"node {self.node_id} is empty, has no MBR")
        column = self.bounds
        return AABB(*column[:, :3].min(axis=0).tolist(), *column[:, 3:].max(axis=0).tolist())

    def byte_size(self) -> int:
        return NODE_HEADER_BYTES + ENTRY_BYTES * len(self.entries)
