"""Pure-Python scalar implementation of the kernel API.

This backend is the portable fallback *and* the semantic reference: every
function is a plain loop over the packed operands applying exactly the
arithmetic of the scalar :mod:`repro.geometry` modules.  The NumPy backend
is parity-tested elementwise against it.

Packed representations: a bounds batch is a ``list`` of 6-tuples
``(min_x, min_y, min_z, max_x, max_y, max_z)``; a segment batch is a tuple
``(p0s, p1s, radii)`` of parallel lists (3-tuples for the endpoints).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Iterator, NamedTuple, Sequence

from repro.geometry.distance import segment_segment_distance
from repro.geometry.vec import Vec3
from repro.hilbert.curve import hilbert_encode

Bounds = tuple[float, float, float, float, float, float]
Point = tuple[float, float, float]
SegPack = tuple[list[Point], list[Point], list[float]]


# -- packing -------------------------------------------------------------------
def pack_boxes(boxes: Sequence[Any]) -> list[Bounds]:
    return [b.bounds() for b in boxes]


def pack_bounds(bounds: Sequence[Bounds]) -> list[Bounds]:
    if hasattr(bounds, "tolist"):  # a NumPy column: its rows as Python floats
        bounds = bounds.tolist()
    return [tuple(float(v) for v in b) for b in bounds]  # type: ignore[misc]


def pack_objects(objects: Sequence[Any]) -> list[Bounds]:
    return [o.aabb.bounds() for o in objects]


def pack_segments(segments: Sequence[Any]) -> SegPack:
    p0s = [(s.p0.x, s.p0.y, s.p0.z) for s in segments]
    p1s = [(s.p1.x, s.p1.y, s.p1.z) for s in segments]
    radii = [float(s.radius) for s in segments]
    return (p0s, p1s, radii)


def batch_len(packed: Sequence[Any]) -> int:
    return len(packed)


def slice_packed(packed: list[Any], start: int, stop: int) -> list[Any]:
    return packed[start:stop]


# -- batch predicates and distances -------------------------------------------
def box_intersects(packed: list[Bounds], box: Any, eps: float = 0.0) -> list[bool]:
    q_min_x = box.min_x - eps
    q_min_y = box.min_y - eps
    q_min_z = box.min_z - eps
    q_max_x = box.max_x + eps
    q_max_y = box.max_y + eps
    q_max_z = box.max_z + eps
    return [
        b[0] <= q_max_x
        and q_min_x <= b[3]
        and b[1] <= q_max_y
        and q_min_y <= b[4]
        and b[2] <= q_max_z
        and q_min_z <= b[5]
        for b in packed
    ]


def box_contains(packed: list[Bounds], box: Any) -> list[bool]:
    return [
        b[0] >= box.min_x
        and b[1] >= box.min_y
        and b[2] >= box.min_z
        and b[3] <= box.max_x
        and b[4] <= box.max_y
        and b[5] <= box.max_z
        for b in packed
    ]


def point_box_distance(packed: list[Bounds], point: Any) -> list[float]:
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    out = []
    for b in packed:
        dx = max(b[0] - x, 0.0, x - b[3])
        dy = max(b[1] - y, 0.0, y - b[4])
        dz = max(b[2] - z, 0.0, z - b[5])
        out.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    return out


def box_box_distance(packed: list[Bounds], box: Any) -> list[float]:
    out = []
    for b in packed:
        dx = max(box.min_x - b[3], 0.0, b[0] - box.max_x)
        dy = max(box.min_y - b[4], 0.0, b[1] - box.max_y)
        dz = max(box.min_z - b[5], 0.0, b[2] - box.max_z)
        out.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    return out


def segment_distances(segpack: SegPack, q0: Any, q1: Any) -> list[float]:
    p0s, p1s, _ = segpack
    qa = Vec3(float(q0[0]), float(q0[1]), float(q0[2]))
    qb = Vec3(float(q1[0]), float(q1[1]), float(q1[2]))
    return [
        segment_segment_distance(Vec3(*p0), Vec3(*p1), qa, qb)
        for p0, p1 in zip(p0s, p1s)
    ]


def capsule_pairs_touch(segpack_a: SegPack, segpack_b: SegPack, eps: float = 0.0) -> list[bool]:
    p0a, p1a, ra = segpack_a
    p0b, p1b, rb = segpack_b
    out = []
    for i in range(len(p0a)):
        distance = segment_segment_distance(
            Vec3(*p0a[i]), Vec3(*p1a[i]), Vec3(*p0b[i]), Vec3(*p1b[i])
        )
        out.append(distance <= ra[i] + rb[i] + eps + 1e-12)
    return out


def xsorted_overlap_pairs(
    packed_a: list[Bounds], packed_b: list[Bounds], eps: float = 0.0
) -> tuple[list[int], list[int], int]:
    """All eps-expanded AABB-overlap pairs of two min_x-sorted batches.

    Two-sided enumeration equivalent to the classic plane-sweep merge: side
    one scans, for every ``a``, the ``b`` window with
    ``a.min_x - eps <= b.min_x <= a.max_x + eps``; side two scans, for every
    ``b``, the ``a`` window with ``a.min_x - eps > b.min_x`` (the exact
    complement of side one's membership test — comparing against the same
    rounded ``a.min_x - eps`` value, so no pair can fall into a float
    rounding gap or be reported twice) and ``a.min_x <= b.max_x + eps``.
    Returns ``(indices_a, indices_b, tested)`` where ``tested`` counts every
    candidate whose y/z overlap was checked — the sweep's comparison count.
    """
    n_a, n_b = len(packed_a), len(packed_b)
    out_a: list[int] = []
    out_b: list[int] = []
    if n_a == 0 or n_b == 0:
        return out_a, out_b, 0
    from bisect import bisect_left, bisect_right

    min_x_a = [a[0] for a in packed_a]
    min_x_b = [b[0] for b in packed_b]
    # Non-decreasing because x - eps is monotone in x; bisecting this array
    # keeps side two bitwise complementary to side one's lower bound.
    shifted_min_x_a = [x - eps for x in min_x_a]
    tested = 0
    for i, a in enumerate(packed_a):
        lo = bisect_left(min_x_b, a[0] - eps)
        hi = bisect_right(min_x_b, a[3] + eps)
        for j in range(lo, hi):
            b = packed_b[j]
            tested += 1
            if (
                a[1] - eps <= b[4]
                and b[1] <= a[4] + eps
                and a[2] - eps <= b[5]
                and b[2] <= a[5] + eps
            ):
                out_a.append(i)
                out_b.append(j)
    for j, b in enumerate(packed_b):
        lo = bisect_right(shifted_min_x_a, b[0])
        hi = bisect_right(min_x_a, b[3] + eps)
        for i in range(lo, hi):
            a = packed_a[i]
            tested += 1
            if (
                a[1] - eps <= b[4]
                and b[1] <= a[4] + eps
                and a[2] - eps <= b[5]
                and b[2] <= a[5] + eps
            ):
                out_a.append(i)
                out_b.append(j)
    return out_a, out_b, tested


def box_overlap_pairs(
    packed_a: list[Bounds], packed_b: list[Bounds], eps: float = 0.0
) -> tuple[list[int], list[int]]:
    """All eps-expanded AABB-overlap pairs of two (unsorted) batches.

    Pair order is B-major (ascending A index within each B); each test is
    exactly the :func:`box_intersects` arithmetic, so the pair set equals
    one ``box_intersects`` call per B box.
    """
    out_a: list[int] = []
    out_b: list[int] = []
    for j, b in enumerate(packed_b):
        q_min_x = b[0] - eps
        q_min_y = b[1] - eps
        q_min_z = b[2] - eps
        q_max_x = b[3] + eps
        q_max_y = b[4] + eps
        q_max_z = b[5] + eps
        for i, a in enumerate(packed_a):
            if (
                a[0] <= q_max_x
                and q_min_x <= a[3]
                and a[1] <= q_max_y
                and q_min_y <= a[4]
                and a[2] <= q_max_z
                and q_min_z <= a[5]
            ):
                out_a.append(i)
                out_b.append(j)
    return out_a, out_b


class Hierarchy(NamedTuple):
    """A balanced box hierarchy as level lists (see :func:`pack_hierarchy`)."""

    nodes: list[list[Bounds]]  # per depth, root first
    child_starts: list[list[int]]  # per internal depth: CSR offsets into depth + 1
    leaf_starts: list[int]  # CSR offsets of each leaf's objects
    objects: list[Bounds]  # object bounds, leaf by leaf
    offsets: list[int]  # global id of each depth's first node (plus the total)


def pack_hierarchy(
    level_bounds: Sequence[Sequence[Bounds]],
    child_starts: Sequence[Sequence[int]],
    leaf_starts: Sequence[int],
    object_bounds: Sequence[Bounds],
) -> Hierarchy:
    offsets = [0]
    for level in level_bounds:
        offsets.append(offsets[-1] + len(level))
    return Hierarchy(
        nodes=[list(level) for level in level_bounds],
        child_starts=[list(starts) for starts in child_starts],
        leaf_starts=list(leaf_starts),
        objects=list(object_bounds),
        offsets=offsets,
    )


def _expanded_nodes(hierarchy: Hierarchy, eps: float) -> list[list[Bounds]]:
    # node.min - eps and node.max + eps, computed once per node, exactly as
    # AABB.intersects_expanded computes them per test.
    return [
        [(n[0] - eps, n[1] - eps, n[2] - eps, n[3] + eps, n[4] + eps, n[5] + eps) for n in level]
        for level in hierarchy.nodes
    ]


def touch_assign(
    hierarchy: Hierarchy, packed_b: list[Bounds], eps: float, filtering: bool
) -> tuple[list[int], int, int]:
    """TOUCH phase 2, one B box at a time: sink it to its lowest unambiguous node.

    Returns ``(bucket, comparisons, filtered)``: each box's global node id
    (``-1`` when it fell into empty space and ``filtering`` dropped it).
    """
    expanded = _expanded_nodes(hierarchy, eps)
    child_starts, offsets = hierarchy.child_starts, hierarchy.offsets
    leaf_depth = len(child_starts)
    root = expanded[0][0]
    bucket: list[int] = []
    comparisons = filtered = 0
    for b0, b1, b2, b3, b4, b5 in packed_b:
        comparisons += 1
        empty = not (
            root[0] <= b3 and b0 <= root[3] and root[1] <= b4
            and b1 <= root[4] and root[2] <= b5 and b2 <= root[5]
        )
        node = depth = 0
        while not empty and depth < leaf_depth:
            level, starts = expanded[depth + 1], child_starts[depth]
            first = second = -1
            for child, n in enumerate(level[starts[node] : starts[node + 1]], starts[node]):
                comparisons += 1
                if (
                    n[0] <= b3 and b0 <= n[3] and n[1] <= b4
                    and b1 <= n[4] and n[2] <= b5 and b2 <= n[5]
                ):
                    if first >= 0:
                        second = child
                        break
                    first = child
            if second >= 0:  # several children may hold partners: bucket here
                break
            if first < 0:  # b sits in the empty space between the children
                empty = True
                break
            node, depth = first, depth + 1
        if empty and filtering:
            filtered += 1
            bucket.append(-1)
        else:
            bucket.append(offsets[depth] + node)
    return bucket, comparisons, filtered


def touch_probe(
    hierarchy: Hierarchy, packed_b: list[Bounds], bucket: list[int], eps: float
) -> Iterator[tuple[list[int], list[int], int]]:
    """TOUCH phase 3, one bucketed B box at a time.

    Every child of every reached node is compared; each reached leaf's
    objects are filtered with the :func:`box_overlap_pairs` arithmetic.
    Survivors come out B-major, ascending object position within a box —
    the same order as the vectorised backend.
    """
    expanded = _expanded_nodes(hierarchy, eps)
    child_starts, offsets = hierarchy.child_starts, hierarchy.offsets
    leaf_starts, objects = hierarchy.leaf_starts, hierarchy.objects
    leaves = [objects[lo:hi] for lo, hi in zip(leaf_starts, leaf_starts[1:])]
    leaf_depth = len(child_starts)
    out_a: list[int] = []
    out_b: list[int] = []
    tested = 0
    for j, node in enumerate(bucket):
        if node < 0:
            continue
        b0, b1, b2, b3, b4, b5 = packed_b[j]
        depth = bisect_right(offsets, node) - 1
        frontier = [node - offsets[depth]]
        while depth < leaf_depth:
            level = expanded[depth + 1]
            starts = child_starts[depth]
            reached = []
            for parent in frontier:
                first, last = starts[parent], starts[parent + 1]
                for child, n in enumerate(level[first:last], first):
                    if (
                        n[0] <= b3 and b0 <= n[3] and n[1] <= b4
                        and b1 <= n[4] and n[2] <= b5 and b2 <= n[5]
                    ):
                        reached.append(child)
                tested += last - first
            frontier = reached
            depth += 1
        q_min_x, q_min_y, q_min_z = b0 - eps, b1 - eps, b2 - eps
        q_max_x, q_max_y, q_max_z = b3 + eps, b4 + eps, b5 + eps
        for leaf in frontier:
            tested += len(leaves[leaf])
            for i, a in enumerate(leaves[leaf], leaf_starts[leaf]):
                if (
                    a[0] <= q_max_x
                    and q_min_x <= a[3]
                    and a[1] <= q_max_y
                    and q_min_y <= a[4]
                    and a[2] <= q_max_z
                    and q_min_z <= a[5]
                ):
                    out_a.append(i)
                    out_b.append(j)
    yield out_a, out_b, tested


def hilbert_keys(coords: Sequence[Sequence[int]], order: int) -> list[int]:
    return [hilbert_encode(c, order) for c in coords]


# -- mask utilities ------------------------------------------------------------
def nonzero(mask: Sequence[bool]) -> list[int]:
    return [i for i, hit in enumerate(mask) if hit]


def count(mask: Sequence[bool]) -> int:
    return sum(1 for hit in mask if hit)
