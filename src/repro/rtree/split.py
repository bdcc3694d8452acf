"""Node-splitting policies.

``quadratic_split`` is Guttman's original quadratic-cost algorithm: pick the
two entries that waste the most space together as seeds, then greedily assign
the remainder by strongest preference, honouring the minimum fill.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.rtree.node import Entry

__all__ = ["quadratic_split"]


def quadratic_split(entries: Sequence[Entry], min_entries: int) -> tuple[list[Entry], list[Entry]]:
    """Split ``entries`` into two groups, each with at least ``min_entries``.

    The pairwise seed search and the per-step preference scan run as NumPy
    array expressions over the entries' bounds, with the same float64
    operations in the same order as the scalar :class:`AABB` arithmetic —
    so every choice, and hence every tree layout, is the scalar one.
    """
    if len(entries) < 2:
        raise IndexError_("cannot split fewer than two entries")
    if len(entries) < 2 * min_entries:
        raise IndexError_(
            f"cannot split {len(entries)} entries with min fill {min_entries}"
        )

    bounds = np.array([e.mbr.bounds() for e in entries], dtype=np.float64)
    lo, hi = bounds[:, :3], bounds[:, 3:]
    seed_a, seed_b = _pick_seeds(lo, hi)
    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    mbr_a = entries[seed_a].mbr
    mbr_b = entries[seed_b].mbr
    # ``waiting`` keeps the unassigned entries in their original order, so
    # the first maximum over it is the first maximum of the scalar scan.
    waiting = np.ones(len(entries), dtype=bool)
    waiting[[seed_a, seed_b]] = False
    left = len(entries) - 2
    # Every entry's enlargement of each group MBR, refreshed only when that
    # MBR grows.
    growth_a = _enlargements(lo, hi, mbr_a)
    growth_b = _enlargements(lo, hi, mbr_b)

    while left:
        # Force assignment if one group must absorb everything left to
        # satisfy the minimum fill.
        if len(group_a) + left == min_entries:
            group_a.extend(entries[i] for i in np.flatnonzero(waiting))
            break
        if len(group_b) + left == min_entries:
            group_b.extend(entries[i] for i in np.flatnonzero(waiting))
            break

        index = _pick_next(growth_a, growth_b, waiting)
        waiting[index] = False
        left -= 1
        entry = entries[index]
        prefer_a = growth_a[index] < growth_b[index]
        if growth_a[index] == growth_b[index]:
            # Resolve ties by smaller volume, then fewer entries.
            if mbr_a.volume() != mbr_b.volume():
                prefer_a = mbr_a.volume() < mbr_b.volume()
            else:
                prefer_a = len(group_a) <= len(group_b)
        if prefer_a:
            group_a.append(entry)
            if not mbr_a.contains_box(entry.mbr):
                mbr_a = mbr_a.union(entry.mbr)
                growth_a = _enlargements(lo, hi, mbr_a)
        else:
            group_b.append(entry)
            if not mbr_b.contains_box(entry.mbr):
                mbr_b = mbr_b.union(entry.mbr)
                growth_b = _enlargements(lo, hi, mbr_b)
    return group_a, group_b


def _volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``AABB.volume`` row-wise: ``(sx * sy) * sz``, in that order."""
    sizes = hi - lo
    return sizes[..., 0] * sizes[..., 1] * sizes[..., 2]


def _pick_seeds(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int]:
    """The pair wasting the most space when covered together.

    Scans pairs ``i < j`` in row-major order keeping the first strict
    maximum above ``-1.0``; ``(0, 1)`` when no pair beats it.
    """
    n = len(lo)
    vol = _volumes(lo, hi)
    union_vol = _volumes(
        np.minimum(lo[:, None, :], lo[None, :, :]),
        np.maximum(hi[:, None, :], hi[None, :, :]),
    )
    waste = union_vol - vol[:, None] - vol[None, :]
    waste[np.tril_indices(n)] = -np.inf
    flat = int(np.argmax(waste))  # first maximum in row-major order
    if not waste.flat[flat] > -1.0:
        return 0, 1
    return divmod(flat, n)


def _pick_next(growth_a: np.ndarray, growth_b: np.ndarray, waiting: np.ndarray) -> int:
    """The waiting entry with the strongest preference for one group.

    The first maximum of ``|growth_a - growth_b|`` over the waiting
    entries wins, as in the scalar scan.
    """
    diff = np.abs(growth_a - growth_b)
    diff[~waiting] = -np.inf
    return int(np.argmax(diff))


def _enlargements(lo: np.ndarray, hi: np.ndarray, box: AABB) -> np.ndarray:
    """``box.enlargement(e)`` for every row: union volume minus own volume."""
    box_lo = np.array((box.min_x, box.min_y, box.min_z))
    box_hi = np.array((box.max_x, box.max_y, box.max_z))
    return _volumes(np.minimum(box_lo, lo), np.maximum(box_hi, hi)) - box.volume()

