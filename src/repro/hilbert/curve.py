"""Hilbert space-filling curve via Skilling's transpose algorithm.

The Hilbert curve underpins three pieces of the reproduction:

* the object store clusters segments into disk pages in Hilbert order
  (spatial locality on "disk"),
* the sharded service tiles the dataset into Hilbert-key shards, and
* the Hilbert prefetching baseline of the SCOUT demo (Park & Kim style)
  prefetches pages adjacent in curve order.

Reference: J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc.
707 (2004).  ``hilbert_encode`` maps a grid point to its index along the
curve; ``hilbert_decode`` is its exact inverse (property-tested).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import GeometryError
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3

__all__ = ["hilbert_encode", "hilbert_decode", "HilbertEncoder3D"]


def _axes_to_transpose(coords: list[int], order: int, dims: int) -> list[int]:
    """In-place Skilling transform: grid axes -> transposed Hilbert form."""
    m = 1 << (order - 1)
    # Inverse undo of the excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            if coords[i] & q:
                coords[0] ^= p
            else:
                t = (coords[0] ^ coords[i]) & p
                coords[0] ^= t
                coords[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dims):
        coords[i] ^= coords[i - 1]
    t = 0
    q = m
    while q > 1:
        if coords[dims - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dims):
        coords[i] ^= t
    return coords


def _transpose_to_axes(coords: list[int], order: int, dims: int) -> list[int]:
    """In-place inverse Skilling transform: transposed form -> grid axes."""
    n = 2 << (order - 1)
    # Gray decode by H ^ (H/2).
    t = coords[dims - 1] >> 1
    for i in range(dims - 1, 0, -1):
        coords[i] ^= coords[i - 1]
    coords[0] ^= t
    # Undo excess work.
    q = 2
    while q != n:
        p = q - 1
        for i in range(dims - 1, -1, -1):
            if coords[i] & q:
                coords[0] ^= p
            else:
                t = (coords[0] ^ coords[i]) & p
                coords[0] ^= t
                coords[i] ^= t
        q <<= 1
    return coords


def _interleave_transpose(coords: Sequence[int], order: int, dims: int) -> int:
    """Pack the transposed representation into a single integer key.

    Bit ``order-1`` of ``coords[0]`` becomes the most significant bit of the
    key, followed by bit ``order-1`` of ``coords[1]`` and so on.
    """
    key = 0
    for bit in range(order - 1, -1, -1):
        for axis in range(dims):
            key = (key << 1) | ((coords[axis] >> bit) & 1)
    return key


def _deinterleave_key(key: int, order: int, dims: int) -> list[int]:
    coords = [0] * dims
    position = order * dims - 1
    for bit in range(order - 1, -1, -1):
        for axis in range(dims):
            coords[axis] |= ((key >> position) & 1) << bit
            position -= 1
    return coords


def hilbert_encode(coords: Sequence[int], order: int) -> int:
    """Hilbert index of grid point ``coords`` on a ``2**order`` grid.

    ``coords`` are non-negative integers strictly below ``2**order``;
    the result is in ``[0, 2**(order*len(coords)))``.
    """
    dims = len(coords)
    if dims < 1:
        raise GeometryError("hilbert_encode needs at least one coordinate")
    if order < 1:
        raise GeometryError("hilbert order must be >= 1")
    limit = 1 << order
    work = []
    for c in coords:
        c = int(c)
        if not 0 <= c < limit:
            raise GeometryError(f"coordinate {c} outside [0, {limit}) for order {order}")
        work.append(c)
    if dims == 1:
        return work[0]
    _axes_to_transpose(work, order, dims)
    return _interleave_transpose(work, order, dims)


def hilbert_decode(key: int, dims: int, order: int) -> tuple[int, ...]:
    """Inverse of :func:`hilbert_encode`: index along the curve -> grid point."""
    if dims < 1:
        raise GeometryError("hilbert_decode needs dims >= 1")
    if order < 1:
        raise GeometryError("hilbert order must be >= 1")
    if not 0 <= key < (1 << (order * dims)):
        raise GeometryError(f"key {key} out of range for dims={dims}, order={order}")
    if dims == 1:
        return (key,)
    coords = _deinterleave_key(key, order, dims)
    _transpose_to_axes(coords, order, dims)
    return tuple(coords)


class HilbertEncoder3D:
    """Quantises 3-D points inside a bounding box onto the Hilbert curve.

    The encoder fixes a world box once (usually the dataset bounding box) and
    then maps arbitrary points to curve keys; points are clamped to the box
    so slight numeric overhang cannot raise.
    """

    def __init__(self, world: AABB, order: int = 10) -> None:
        if order < 1 or order > 20:
            raise GeometryError("order must be in [1, 20]")
        self.world = world
        self.order = order
        self._cells = 1 << order
        sx, sy, sz = world.sizes
        # Guard zero-size axes (planar or degenerate datasets).
        self._scale = (
            (self._cells - 1) / sx if sx > 0 else 0.0,
            (self._cells - 1) / sy if sy > 0 else 0.0,
            (self._cells - 1) / sz if sz > 0 else 0.0,
        )

    def grid_coords(self, point: Vec3 | Sequence[float]) -> tuple[int, int, int]:
        """Quantise ``point`` onto the grid (clamped to the world box)."""
        px = min(max(float(point[0]), self.world.min_x), self.world.max_x)
        py = min(max(float(point[1]), self.world.min_y), self.world.max_y)
        pz = min(max(float(point[2]), self.world.min_z), self.world.max_z)
        gx = int((px - self.world.min_x) * self._scale[0])
        gy = int((py - self.world.min_y) * self._scale[1])
        gz = int((pz - self.world.min_z) * self._scale[2])
        return gx, gy, gz

    def key(self, point: Vec3 | Sequence[float]) -> int:
        """Hilbert key of ``point``."""
        return hilbert_encode(self.grid_coords(point), self.order)

    def key_of_box(self, box: AABB) -> int:
        """Hilbert key of a box's centre — the usual packing key."""
        return self.key(box.center())

    def keys_of(self, points: Sequence[Vec3 | Sequence[float]]) -> list[int]:
        """Hilbert keys of many points via one batch kernel call.

        Elementwise identical to calling :meth:`key` per point; the Skilling
        transform (the expensive part) runs vectorised when the NumPy
        kernel backend is active.
        """
        from repro import kernels

        coords = [self.grid_coords(p) for p in points]
        return [int(k) for k in kernels.hilbert_keys(coords, self.order)]

    def keys_of_boxes(self, boxes: Sequence[AABB]) -> list[int]:
        """Hilbert keys of many box centres (the batch packing key)."""
        return self.keys_of([box.center() for box in boxes])

    def cell_center(self, key: int) -> Vec3:
        """World-space centre of the grid cell at curve position ``key``."""
        gx, gy, gz = hilbert_decode(key, 3, self.order)
        sx = (self.world.max_x - self.world.min_x) / self._cells
        sy = (self.world.max_y - self.world.min_y) / self._cells
        sz = (self.world.max_z - self.world.min_z) / self._cells
        return Vec3(
            self.world.min_x + (gx + 0.5) * sx,
            self.world.min_y + (gy + 0.5) * sy,
            self.world.min_z + (gz + 0.5) * sz,
        )
