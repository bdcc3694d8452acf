"""R-tree nodes and entries.

A node occupies exactly one simulated disk page (the textbook layout), so
"nodes visited" equals "index pages read".  ``Entry`` doubles as the leaf
entry (``uid`` set, ``child`` None) and the internal entry (``child`` set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import InvariantViolation
from repro.geometry.aabb import AABB
from repro.storage.arena import BoundsView

__all__ = ["Entry", "Node", "ENTRY_BYTES", "NODE_HEADER_BYTES"]

#: Modelled bytes per entry: 6 float64 bounds + 8-byte pointer/uid.
ENTRY_BYTES = 56
#: Modelled per-node header bytes.
NODE_HEADER_BYTES = 24


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
    """An R-tree node; ``level`` 0 is a leaf, the root has the highest level."""

    level: int
    entries: list[Entry] = field(default_factory=list)
    node_id: int = -1
    # Immutable column view of the entry MBRs (None until first read).  The
    # edits below change its row at the edited slot only, so a view in hand
    # is always the node's current content.
    bounds: BoundsView | None = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def view(self) -> BoundsView:
        """The entry-bounds view (built on first use)."""
        view = self.bounds
        if view is None:
            view = self.bounds = BoundsView(e.mbr.bounds() for e in self.entries)
        return view

    def append(self, entry: Entry) -> None:
        """Add ``entry`` as the last slot."""
        self.entries.append(entry)
        if self.bounds is not None:
            self.bounds = self.bounds.append_row(entry.mbr.bounds())

    def set_mbr(self, i: int, mbr: AABB) -> None:
        """Set slot ``i``'s box."""
        self.entries[i].mbr = mbr
        if self.bounds is not None:
            self.bounds = self.bounds.replace_row(i, mbr.bounds())

    def remove(self, i: int) -> None:
        """Drop slot ``i``."""
        if self.bounds is not None:
            self.bounds = self.bounds.remove_row(i)
        del self.entries[i]

    def entry_bounds(self) -> Any:
        """Entry MBRs packed for :mod:`repro.kernels` (memoized per backend)."""
        return self.view().packed()

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def mbr(self) -> AABB:
        """Tight box over the node's entries (node must be non-empty).

        Reads the bounds view when the node has one (it always matches the
        entries), so no per-entry box is touched.
        """
        if not self.entries:
            raise InvariantViolation(f"node {self.node_id} is empty, has no MBR")
        if self.bounds is None:
            return AABB.union_all(e.mbr for e in self.entries)
        return AABB.union_bounds(self.bounds.bounds)

    def byte_size(self) -> int:
        return NODE_HEADER_BYTES + ENTRY_BYTES * len(self.entries)
