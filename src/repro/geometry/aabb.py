"""Axis-aligned bounding boxes (AABBs).

The AABB is the unit of everything spatial in this library: R-tree entries,
FLAT partitions, range queries, join predicates.  Boxes are *closed*:
touching boxes intersect, which matches the distance-join semantics of
synapse detection (branches within distance epsilon, inclusive).

Instances are immutable (``frozen`` dataclass with slots) so they can be
shared between index levels without defensive copying.  Hot paths (the join
algorithms run millions of intersection tests) use the free functions at the
bottom of this module on pre-extracted bound tuples where profiling demands
it, but the method forms are kept readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import GeometryError
from repro.geometry.vec import Vec3

__all__ = ["AABB"]


@dataclass(frozen=True, slots=True)
class AABB:
    """A closed axis-aligned box ``[min_x, max_x] x [min_y, max_y] x [min_z, max_z]``."""

    min_x: float
    min_y: float
    min_z: float
    max_x: float
    max_y: float
    max_z: float

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_points(points: Iterable[Vec3 | Sequence[float]]) -> "AABB":
        """Tightest box containing ``points`` (must be non-empty)."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise GeometryError("AABB.from_points requires at least one point") from None
        min_x = max_x = float(first[0])
        min_y = max_y = float(first[1])
        min_z = max_z = float(first[2])
        for p in it:
            x, y, z = float(p[0]), float(p[1]), float(p[2])
            if x < min_x:
                min_x = x
            if x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            if y > max_y:
                max_y = y
            if z < min_z:
                min_z = z
            if z > max_z:
                max_z = z
        return AABB(min_x, min_y, min_z, max_x, max_y, max_z)

    @staticmethod
    def from_center_extent(
        center: Vec3 | Sequence[float], extent: float | Sequence[float]
    ) -> "AABB":
        """Box centred at ``center`` with total side lengths ``extent``.

        ``extent`` may be a scalar (cube) or a per-axis triple.
        """
        cx, cy, cz = float(center[0]), float(center[1]), float(center[2])
        if isinstance(extent, (int, float)):
            hx = hy = hz = float(extent) / 2.0
        else:
            hx, hy, hz = float(extent[0]) / 2.0, float(extent[1]) / 2.0, float(extent[2]) / 2.0
        return AABB(cx - hx, cy - hy, cz - hz, cx + hx, cy + hy, cz + hz)

    @staticmethod
    def union_all(boxes: Iterable["AABB"]) -> "AABB":
        """Tightest box containing every box in ``boxes`` (must be non-empty)."""
        it = iter(boxes)
        try:
            acc = next(it)
        except StopIteration:
            raise GeometryError("AABB.union_all requires at least one box") from None
        min_x, min_y, min_z = acc.min_x, acc.min_y, acc.min_z
        max_x, max_y, max_z = acc.max_x, acc.max_y, acc.max_z
        for b in it:
            if b.min_x < min_x:
                min_x = b.min_x
            if b.min_y < min_y:
                min_y = b.min_y
            if b.min_z < min_z:
                min_z = b.min_z
            if b.max_x > max_x:
                max_x = b.max_x
            if b.max_y > max_y:
                max_y = b.max_y
            if b.max_z > max_z:
                max_z = b.max_z
        return AABB(min_x, min_y, min_z, max_x, max_y, max_z)

    @staticmethod
    def union_bounds(
        bounds: Sequence[tuple[float, float, float, float, float, float]],
    ) -> "AABB":
        """:meth:`union_all` over ``(min_x, ..., max_z)`` tuples (non-empty)."""
        if not bounds:
            raise GeometryError("AABB.union_bounds requires at least one box")
        min_x, min_y, min_z, max_x, max_y, max_z = zip(*bounds)
        return AABB(min(min_x), min(min_y), min(min_z), max(max_x), max(max_y), max(max_z))

    def __post_init__(self) -> None:
        if not (
            self.min_x <= self.max_x and self.min_y <= self.max_y and self.min_z <= self.max_z
        ):
            raise GeometryError(f"degenerate AABB: {self!r}")
        for v in (self.min_x, self.min_y, self.min_z, self.max_x, self.max_y, self.max_z):
            if not math.isfinite(v):
                raise GeometryError(f"non-finite AABB bound: {self!r}")

    # -- predicates ---------------------------------------------------------
    def intersects(self, other: "AABB") -> bool:
        """True when the closed boxes share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
            and self.min_z <= other.max_z
            and other.min_z <= self.max_z
        )

    def intersects_expanded(self, other: "AABB", eps: float) -> bool:
        """True when ``self`` expanded by ``eps`` on every side intersects ``other``.

        Equivalent to ``self.expanded(eps).intersects(other)`` without
        allocating the expanded box; this is the inner test of the distance
        join and of FLAT's neighborhood detection.
        """
        return (
            self.min_x - eps <= other.max_x
            and other.min_x <= self.max_x + eps
            and self.min_y - eps <= other.max_y
            and other.min_y <= self.max_y + eps
            and self.min_z - eps <= other.max_z
            and other.min_z <= self.max_z + eps
        )

    def contains_point(self, point: Vec3 | Sequence[float]) -> bool:
        x, y, z = float(point[0]), float(point[1]), float(point[2])
        return (
            self.min_x <= x <= self.max_x
            and self.min_y <= y <= self.max_y
            and self.min_z <= z <= self.max_z
        )

    def contains_box(self, other: "AABB") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.min_z <= other.min_z
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
            and self.max_z >= other.max_z
        )

    # -- derived boxes -------------------------------------------------------
    def expanded(self, eps: float) -> "AABB":
        """Box grown by ``eps`` on every face (Minkowski sum with a cube)."""
        return AABB(
            self.min_x - eps,
            self.min_y - eps,
            self.min_z - eps,
            self.max_x + eps,
            self.max_y + eps,
            self.max_z + eps,
        )

    def union(self, other: "AABB") -> "AABB":
        return AABB(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            min(self.min_z, other.min_z),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
            max(self.max_z, other.max_z),
        )

    def intersection(self, other: "AABB") -> "AABB | None":
        """The overlap box, or ``None`` when the boxes are disjoint."""
        min_x = max(self.min_x, other.min_x)
        min_y = max(self.min_y, other.min_y)
        min_z = max(self.min_z, other.min_z)
        max_x = min(self.max_x, other.max_x)
        max_y = min(self.max_y, other.max_y)
        max_z = min(self.max_z, other.max_z)
        if min_x > max_x or min_y > max_y or min_z > max_z:
            return None
        return AABB(min_x, min_y, min_z, max_x, max_y, max_z)

    def translated(self, offset: Vec3) -> "AABB":
        return AABB(
            self.min_x + offset.x,
            self.min_y + offset.y,
            self.min_z + offset.z,
            self.max_x + offset.x,
            self.max_y + offset.y,
            self.max_z + offset.z,
        )

    # -- measures --------------------------------------------------------------
    @property
    def sizes(self) -> tuple[float, float, float]:
        return (self.max_x - self.min_x, self.max_y - self.min_y, self.max_z - self.min_z)

    def volume(self) -> float:
        sx, sy, sz = self.sizes
        return sx * sy * sz

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree 'margin' measure)."""
        sx, sy, sz = self.sizes
        return sx + sy + sz

    def center(self) -> Vec3:
        return Vec3(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
            (self.min_z + self.max_z) / 2.0,
        )

    def enlargement(self, other: "AABB") -> float:
        """Volume growth needed for ``self`` to also cover ``other``.

        This is the R-tree ChooseSubtree criterion.
        """
        return self.union(other).volume() - self.volume()

    def overlap_volume(self, other: "AABB") -> float:
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.volume()

    def min_distance_to_point(self, point: Vec3 | Sequence[float]) -> float:
        x, y, z = float(point[0]), float(point[1]), float(point[2])
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        dz = max(self.min_z - z, 0.0, z - self.max_z)
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def min_distance_to_box(self, other: "AABB") -> float:
        dx = max(other.min_x - self.max_x, 0.0, self.min_x - other.max_x)
        dy = max(other.min_y - self.max_y, 0.0, self.min_y - other.max_y)
        dz = max(other.min_z - self.max_z, 0.0, self.min_z - other.max_z)
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    # -- iteration / misc --------------------------------------------------------
    def corners(self) -> Iterator[Vec3]:
        """Yield the eight corner points."""
        for x in (self.min_x, self.max_x):
            for y in (self.min_y, self.max_y):
                for z in (self.min_z, self.max_z):
                    yield Vec3(x, y, z)

    def bounds(self) -> tuple[float, float, float, float, float, float]:
        return (self.min_x, self.min_y, self.min_z, self.max_x, self.max_y, self.max_z)
