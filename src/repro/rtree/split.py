"""Node-splitting policies.

``quadratic_split`` is Guttman's original quadratic-cost algorithm: pick the
two entries that waste the most space together as seeds, then greedily assign
the remainder by strongest preference, honouring the minimum fill.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import IndexError_

__all__ = ["quadratic_split"]


def quadratic_split(bounds: np.ndarray, min_entries: int) -> tuple[list[int], list[int]]:
    """Split the rows of a node's ``(n, 6)`` entry-bounds column in two.

    Returns the row indices of each group, seed first and then in
    assignment order; each group gets at least ``min_entries`` rows.  The
    pairwise seed search and the per-step preference scan run as NumPy
    array expressions over the column, with the same float64 operations in
    the same order as the scalar :class:`AABB` arithmetic — so every
    choice, and hence every tree layout, is the scalar one.
    """
    n = len(bounds)
    if n < 2:
        raise IndexError_("cannot split fewer than two entries")
    if n < 2 * min_entries:
        raise IndexError_(f"cannot split {n} entries with min fill {min_entries}")

    # Group boxes are bounds rows under :class:`AABB`'s arithmetic (the
    # helpers below): an AABB per entry would cost a third of a leaf split.
    rows = bounds.tolist()
    by_axis = np.ascontiguousarray(bounds.T)
    seed_a, seed_b = _pick_seeds(by_axis)
    group_a, group_b = [seed_a], [seed_b]
    box_a, box_b = rows[seed_a], rows[seed_b]
    volume_a, volume_b = _volume(box_a), _volume(box_b)
    # Every row's enlargement of each group box, refreshed only when that
    # box grows; ``diff`` is their preference gap plus ``assigned`` (0 while
    # a row waits, -inf once assigned), so its first maximum is the first
    # maximum of the scalar scan over the unassigned rows in their
    # original order.
    growth_a = _enlargements(by_axis, box_a, volume_a)
    growth_b = _enlargements(by_axis, box_b, volume_b)
    assigned = np.zeros(n)
    assigned[[seed_a, seed_b]] = -np.inf
    diff = np.abs(growth_a - growth_b) + assigned
    left = n - 2

    while left:
        # Force assignment if one group must absorb everything left to
        # satisfy the minimum fill.
        if len(group_a) + left == min_entries:
            group_a.extend(np.flatnonzero(assigned == 0.0).tolist())
            break
        if len(group_b) + left == min_entries:
            group_b.extend(np.flatnonzero(assigned == 0.0).tolist())
            break

        index = int(diff.argmax())
        assigned[index] = diff[index] = -np.inf
        left -= 1
        row = rows[index]
        prefer_a = growth_a[index] < growth_b[index]
        if growth_a[index] == growth_b[index]:
            # Resolve ties by smaller volume, then fewer entries.
            if volume_a != volume_b:
                prefer_a = volume_a < volume_b
            else:
                prefer_a = len(group_a) <= len(group_b)
        if prefer_a:
            group_a.append(index)
            if _contains(box_a, row):
                continue
            box_a = _union(box_a, row)
            volume_a = _volume(box_a)
            growth_a = _enlargements(by_axis, box_a, volume_a)
        else:
            group_b.append(index)
            if _contains(box_b, row):
                continue
            box_b = _union(box_b, row)
            volume_b = _volume(box_b)
            growth_b = _enlargements(by_axis, box_b, volume_b)
        diff = np.abs(growth_a - growth_b)
        diff += assigned
    return group_a, group_b


def _volume(box: list[float]) -> float:
    """:meth:`AABB.volume` of one bounds row."""
    x0, y0, z0, x1, y1, z1 = box
    return (x1 - x0) * (y1 - y0) * (z1 - z0)


def _contains(box: list[float], row: list[float]) -> bool:
    """:meth:`AABB.contains_box` on bounds rows."""
    return (
        box[0] <= row[0]
        and box[1] <= row[1]
        and box[2] <= row[2]
        and box[3] >= row[3]
        and box[4] >= row[4]
        and box[5] >= row[5]
    )


def _union(box: list[float], row: list[float]) -> list[float]:
    """:meth:`AABB.union` on bounds rows."""
    return [min(box[0], row[0]), min(box[1], row[1]), min(box[2], row[2]),
            max(box[3], row[3]), max(box[4], row[4]), max(box[5], row[5])]


def _pick_seeds(by_axis: np.ndarray) -> tuple[int, int]:
    """The pair wasting the most space when covered together.

    Scans pairs ``i < j`` in row-major order keeping the first strict
    maximum above ``-1.0``; ``(0, 1)`` when no pair beats it.  The union
    volumes are built one axis at a time as ``(n, n)`` outer max/min,
    ``(sx * sy) * sz`` like :meth:`AABB.volume`.
    """
    n = by_axis.shape[1]
    lo, hi = by_axis[:3], by_axis[3:]
    sizes = hi - lo
    vol = sizes[0] * sizes[1] * sizes[2]
    waste = np.maximum.outer(hi[0], hi[0])
    waste -= np.minimum.outer(lo[0], lo[0])
    for axis in (1, 2):
        extent = np.maximum.outer(hi[axis], hi[axis])
        extent -= np.minimum.outer(lo[axis], lo[axis])
        waste *= extent
    waste -= vol[:, None]
    waste -= vol[None, :]
    waste[_on_or_below_diagonal(n)] = -np.inf
    flat = int(waste.argmax())  # first maximum in row-major order
    if not waste.flat[flat] > -1.0:
        return 0, 1
    return divmod(flat, n)


@lru_cache(maxsize=None)
def _on_or_below_diagonal(n: int) -> np.ndarray:
    """Mask of the pairs ``j <= i`` of an ``(n, n)`` pair matrix (read only)."""
    return np.tri(n, dtype=bool)


def _enlargements(by_axis: np.ndarray, box: list[float], volume: float) -> np.ndarray:
    """``box.enlargement(row)`` for every row of the ``(6, n)`` transposed
    column: union volume (``(sx * sy) * sz``) minus ``volume``."""
    grown = np.maximum(by_axis[3:], np.array(box[3:])[:, None])
    grown -= np.minimum(by_axis[:3], np.array(box[:3])[:, None])
    out = grown[0] * grown[1]
    out *= grown[2]
    out -= volume
    return out
