"""Bulk loading: Sort-Tile-Recursive (STR).

STR (Leutenegger, Lopez & Edgington, ICDE'97 — reference [9] of the paper)
is the bulk loading FLAT uses for its seed index, and the loader for the
baseline R-tree in the demo.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree

__all__ = ["str_bulk_load", "str_chunks"]

T = TypeVar("T")


def str_chunks(
    items: Sequence[T],
    capacity: int,
    center_of: Callable[[T], tuple[float, float, float]],
) -> list[list[T]]:
    """Partition ``items`` into chunks of at most ``capacity`` by 3-D STR.

    Sort by x-centre into vertical slabs, each slab by y into runs, each run
    by z into final tiles.  Consecutive tiles are spatially adjacent, which
    is what gives STR-packed nodes their low overlap.
    """
    if capacity < 1:
        raise IndexError_("chunk capacity must be >= 1")
    n = len(items)
    if n == 0:
        return []
    if n <= capacity:
        return [list(items)]
    num_tiles = math.ceil(n / capacity)
    slabs_x = math.ceil(num_tiles ** (1.0 / 3.0))
    per_slab = math.ceil(n / slabs_x)
    by_x = sorted(items, key=lambda it: center_of(it)[0])

    chunks: list[list[T]] = []
    for sx in range(0, n, per_slab):
        slab = by_x[sx : sx + per_slab]
        tiles_in_slab = math.ceil(len(slab) / capacity)
        runs_y = math.ceil(math.sqrt(tiles_in_slab))
        per_run = math.ceil(len(slab) / runs_y)
        by_y = sorted(slab, key=lambda it: center_of(it)[1])
        for sy in range(0, len(slab), per_run):
            run = by_y[sy : sy + per_run]
            by_z = sorted(run, key=lambda it: center_of(it)[2])
            for sz in range(0, len(run), capacity):
                chunks.append(by_z[sz : sz + capacity])
    return chunks


def _entry_center(entry: Entry) -> tuple[float, float, float]:
    c = entry.mbr.center()
    return (c.x, c.y, c.z)


def _build_levels(leaves: list[Node], fanout: int) -> Node:
    """Stack STR-packed levels on top of ``leaves`` until a single root remains."""
    nodes = leaves
    while len(nodes) > 1:
        entries = [Entry(mbr=node.mbr(), child=node) for node in nodes]
        groups = str_chunks(entries, fanout, _entry_center)
        nodes = [Node(level=nodes[0].level + 1, entries=group) for group in groups]
    return nodes[0]


def str_bulk_load(
    items: Sequence[tuple[int, AABB]],
    max_entries: int = 16,
    min_entries: int | None = None,
    leaf_capacity: int | None = None,
) -> RTree:
    """Build an R-tree over ``(uid, mbr)`` pairs with STR packing.

    ``leaf_capacity`` models the data-page fan-out when it differs from the
    internal fan-out ``max_entries``.
    """
    if not items:
        return RTree(max_entries=max_entries, min_entries=min_entries, leaf_capacity=leaf_capacity)
    leaf_cap = leaf_capacity if leaf_capacity is not None else max_entries

    leaf_entries = [Entry(mbr=mbr, uid=uid) for uid, mbr in items]
    leaf_groups = str_chunks(leaf_entries, leaf_cap, _entry_center)
    leaves = [Node(level=0, entries=group) for group in leaf_groups]
    root = _build_levels(leaves, max_entries)
    return RTree._from_root(
        root,
        size=len(items),
        max_entries=max_entries,
        min_entries=min_entries,
        leaf_capacity=leaf_capacity,
    )
