"""Exact distance computations.

The synapse "touch rule" (Kozloski et al. 2008, cited as [7] in the paper)
declares a synapse candidate where an axonal and a dendritic branch come
within a small distance of each other.  The join algorithms first filter by
AABB (cheap) and then *refine* with the exact segment-segment distance here.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry.aabb import AABB
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3

__all__ = [
    "point_segment_distance",
    "segment_segment_closest",
    "segment_segment_distance",
    "point_aabb_distance",
    "segments_touch",
]

_EPS = 1e-12


def point_aabb_distance(point: Vec3 | Sequence[float], box: AABB) -> float:
    """Euclidean distance from ``point`` to the closed box (0 inside)."""
    return box.min_distance_to_point(point)


def point_segment_distance(point: Vec3, a: Vec3, b: Vec3) -> float:
    """Distance from ``point`` to the line segment ``a``–``b``."""
    ab = b - a
    denom = ab.norm_squared()
    if denom <= _EPS:
        return point.distance_to(a)
    t = (point - a).dot(ab) / denom
    t = max(0.0, min(1.0, t))
    closest = a.lerp(b, t)
    return point.distance_to(closest)


def segment_segment_closest(
    p0: Vec3, p1: Vec3, q0: Vec3, q1: Vec3
) -> tuple[float, float, float]:
    """Closest approach of two segments.

    Returns ``(s, t, distance)`` where ``s`` parameterises the closest point
    on ``p0p1`` and ``t`` the one on ``q0q1`` (both clamped to [0, 1]).
    Standard clamped closed-form solution (Eberly); handles degenerate
    (point-like) segments and the parallel case.
    """
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = d1.norm_squared()
    e = d2.norm_squared()
    f = d2.dot(r)

    if a <= _EPS and e <= _EPS:
        return 0.0, 0.0, p0.distance_to(q0)
    if a <= _EPS:
        # First segment degenerates to a point.
        t = max(0.0, min(1.0, f / e))
        return 0.0, t, p0.distance_to(q0.lerp(q1, t))
    c = d1.dot(r)
    if e <= _EPS:
        # Second segment degenerates to a point.
        s = max(0.0, min(1.0, -c / a))
        return s, 0.0, q0.distance_to(p0.lerp(p1, s))

    b = d1.dot(d2)
    denom = a * e - b * b
    if denom > _EPS:
        s = max(0.0, min(1.0, (b * f - c * e) / denom))
    else:
        s = 0.0  # parallel: pick an end and clamp below
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = max(0.0, min(1.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = max(0.0, min(1.0, (b - c) / a))
    closest_p = p0.lerp(p1, s)
    closest_q = q0.lerp(q1, t)
    return s, t, closest_p.distance_to(closest_q)


def segment_segment_distance(p0: Vec3, p1: Vec3, q0: Vec3, q1: Vec3) -> float:
    """Minimum distance between segments ``p0p1`` and ``q0q1``."""
    return segment_segment_closest(p0, p1, q0, q1)[2]


def segments_touch(seg_a: Segment, seg_b: Segment, eps: float = 0.0) -> bool:
    """Apply the touch rule: capsule surfaces within ``eps`` of each other.

    Two capsules touch when the distance between their axes does not exceed
    the sum of their radii plus the tolerance ``eps``.
    """
    axis_distance = segment_segment_distance(seg_a.p0, seg_a.p1, seg_b.p0, seg_b.p1)
    return axis_distance <= seg_a.radius + seg_b.radius + eps + 1e-12


def brute_force_closest_pair(points: Sequence[Vec3]) -> tuple[int, int, float]:
    """O(n^2) closest pair of points; small-scale test oracle.

    Returns ``(i, j, distance)`` with ``i < j``.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    best = (0, 1, math.inf)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i].distance_to(points[j])
            if d < best[2]:
                best = (i, j, d)
    return best
