"""Bulk loading: Sort-Tile-Recursive (STR), columnar.

STR (Leutenegger, Lopez & Edgington, ICDE'97 — reference [9] of the paper)
tiles every packed structure here: FLAT's partitions and seed tree, the
object R-tree and TOUCH's hierarchy over dataset A.  It runs on one float64
``(n, 6)`` bounds array (rows ``min_x, min_y, min_z, max_x, max_y, max_z``):
:func:`str_chunks` tiles the rows' centres into index chunks with stable
argsorts, and :func:`str_tiles` adds each chunk's MBR.  A centre is
``(lo + hi) / 2.0``, the arithmetic of :meth:`AABB.center`, and a stable
sort keeps tied centres in input order, so the tiles are the ones a
key-sorted STR over the objects would make, member for member.  Upper
levels are tiled the same way over the array of the level's MBRs.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree

__all__ = ["str_bulk_load", "str_chunks", "str_tiles"]


def str_chunks(centers: np.ndarray, capacity: int) -> list[np.ndarray]:
    """Partition the rows of ``centers`` (``(n, 3)``) into STR tiles of at most ``capacity``.

    Sort by x-centre into vertical slabs, each slab by y into runs, each run
    by z into final tiles; each tile is an array of row indices in tile
    order.  Consecutive tiles are spatially adjacent, which is what gives
    STR-packed nodes their low overlap.  ``n <= capacity`` rows make one
    tile in input order.
    """
    if capacity < 1:
        raise IndexError_("chunk capacity must be >= 1")
    n = len(centers)
    if n == 0:
        return []
    if n <= capacity:
        return [np.arange(n)]
    num_tiles = math.ceil(n / capacity)
    slabs_x = math.ceil(num_tiles ** (1.0 / 3.0))
    per_slab = math.ceil(n / slabs_x)
    by_x = np.argsort(centers[:, 0], kind="stable")

    chunks: list[np.ndarray] = []
    for sx in range(0, n, per_slab):
        slab = by_x[sx : sx + per_slab]
        tiles_in_slab = math.ceil(len(slab) / capacity)
        runs_y = math.ceil(math.sqrt(tiles_in_slab))
        per_run = math.ceil(len(slab) / runs_y)
        by_y = slab[np.argsort(centers[slab, 1], kind="stable")]
        for sy in range(0, len(slab), per_run):
            run = by_y[sy : sy + per_run]
            by_z = run[np.argsort(centers[run, 2], kind="stable")]
            for sz in range(0, len(run), capacity):
                chunks.append(by_z[sz : sz + capacity])
    return chunks


def str_tiles(bounds: np.ndarray, capacity: int) -> tuple[list[np.ndarray], np.ndarray]:
    """STR-tile the boxes ``bounds`` (``(n, 6)``): ``(index chunks, chunk MBRs)``.

    Row ``i`` of the ``(len(chunks), 6)`` MBR array is the tight box over
    chunk ``i``'s rows (min and max are exact, so it equals
    :meth:`AABB.union_all` of them).
    """
    chunks = str_chunks((bounds[:, :3] + bounds[:, 3:]) / 2.0, capacity)
    if not chunks:
        return chunks, np.empty((0, 6))
    members = bounds[np.concatenate(chunks)]
    starts = np.cumsum([0] + [len(chunk) for chunk in chunks[:-1]])
    lo = np.minimum.reduceat(members[:, :3], starts, axis=0)
    hi = np.maximum.reduceat(members[:, 3:], starts, axis=0)
    return chunks, np.hstack([lo, hi])


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

    n = len(items)
    rows = itertools.chain.from_iterable(mbr.bounds() for _uid, mbr in items)
    bounds = np.fromiter(rows, float, count=6 * n).reshape(n, 6)
    groups, boxes = str_tiles(bounds, leaf_cap)
    entries = [Entry(mbr=mbr, uid=uid) for uid, mbr in items]
    # A node's entry-bounds column is its group's rows of the level's array.
    nodes = [Node(0, [entries[i] for i in g.tolist()], bounds=bounds[g]) for g in groups]
    # Stack STR-packed levels on top of the leaves until a single root remains.
    while len(nodes) > 1:
        entries = [Entry(mbr=AABB(*box), child=node) for box, node in zip(boxes.tolist(), nodes)]
        bounds = boxes
        groups, boxes = str_tiles(bounds, max_entries)
        level = nodes[0].level + 1
        nodes = [Node(level, [entries[i] for i in g.tolist()], bounds=bounds[g]) for g in groups]
    return RTree._from_root(
        nodes[0],
        size=n,
        max_entries=max_entries,
        min_entries=min_entries,
        leaf_capacity=leaf_capacity,
    )
