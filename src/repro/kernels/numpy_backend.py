"""NumPy-vectorised implementation of the kernel API.

Every function mirrors :mod:`repro.kernels.python_backend` elementwise (the
parity tests enforce it): the box predicates reproduce the closed-box
semantics of :class:`repro.geometry.aabb.AABB`, the capsule tests reproduce
the clamped Eberly closest-approach of :mod:`repro.geometry.distance`, and
:func:`hilbert_keys` is Skilling's transpose algorithm with the per-point
loop turned into array ops (the bit-level loops run over the *order*, not
over the batch).

Packed representations: a bounds batch is an ``(n, 6)`` float64 array with
:meth:`AABB.bounds` column order; a segment batch is a tuple
``(p0s, p1s, radii)`` of ``(n, 3)``/``(n,)`` arrays.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

_EPS = 1e-12
SegPack = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Most flattened index pairs one vectorised pass materialises (plane-sweep
#: windows, TOUCH (node, child) and (B, A object) pairs): bounds a join's
#: transient arrays whatever the input size.
PAIR_CHUNK = 1 << 13


# -- packing -------------------------------------------------------------------
def _bounds_array(bounds: Iterable[Any], n: int) -> np.ndarray:
    # fromiter over the flattened tuples skips the per-tuple sequence
    # conversion np.array does: ~1.4x faster from 100 boxes up, same values.
    if n == 0:
        return np.empty((0, 6), dtype=float)
    return np.fromiter(chain.from_iterable(bounds), dtype=float, count=6 * n).reshape(n, 6)


def pack_boxes(boxes: Sequence[Any]) -> np.ndarray:
    return _bounds_array((b.bounds() for b in boxes), len(boxes))


def pack_bounds(bounds: Sequence[Any]) -> np.ndarray:
    if isinstance(bounds, np.ndarray) and bounds.dtype == np.float64 and bounds.ndim == 2:
        return bounds  # a float64 (n, 6) column is its own pack
    if not len(bounds):
        return np.empty((0, 6), dtype=float)
    return np.asarray(bounds, dtype=float).reshape(len(bounds), 6)


def pack_objects(objects: Sequence[Any]) -> np.ndarray:
    return _bounds_array((o.aabb.bounds() for o in objects), len(objects))


def pack_segments(segments: Sequence[Any]) -> SegPack:
    if not segments:
        return (np.empty((0, 3)), np.empty((0, 3)), np.empty(0))
    p0s = np.array([(s.p0.x, s.p0.y, s.p0.z) for s in segments], dtype=float)
    p1s = np.array([(s.p1.x, s.p1.y, s.p1.z) for s in segments], dtype=float)
    radii = np.array([s.radius for s in segments], dtype=float)
    return (p0s, p1s, radii)


def batch_len(packed: Any) -> int:
    return len(packed)


def slice_packed(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    return packed[start:stop]


# -- batch predicates and distances -------------------------------------------
def box_intersects(packed: np.ndarray, box: Any, eps: float = 0.0) -> np.ndarray:
    # Column-at-a-time with in-place combination: one temporary per axis
    # test, no (n, 3) intermediates — measurably cheaper on the small
    # batches the index scans issue.
    mask = packed[:, 0] <= box.max_x + eps
    mask &= packed[:, 3] >= box.min_x - eps
    mask &= packed[:, 1] <= box.max_y + eps
    mask &= packed[:, 4] >= box.min_y - eps
    mask &= packed[:, 2] <= box.max_z + eps
    mask &= packed[:, 5] >= box.min_z - eps
    return mask


def box_contains(packed: np.ndarray, box: Any) -> np.ndarray:
    mask = packed[:, 0] >= box.min_x
    mask &= packed[:, 1] >= box.min_y
    mask &= packed[:, 2] >= box.min_z
    mask &= packed[:, 3] <= box.max_x
    mask &= packed[:, 4] <= box.max_y
    mask &= packed[:, 5] <= box.max_z
    return mask


def point_box_distance(packed: np.ndarray, point: Any) -> np.ndarray:
    p = np.array([float(point[0]), float(point[1]), float(point[2])])
    below = packed[:, :3] - p
    above = p - packed[:, 3:]
    gaps = np.maximum(np.maximum(below, above), 0.0)
    return np.sqrt((gaps * gaps).sum(axis=1))


def box_box_distance(packed: np.ndarray, box: Any) -> np.ndarray:
    lo = np.array([box.min_x, box.min_y, box.min_z])
    hi = np.array([box.max_x, box.max_y, box.max_z])
    below = lo - packed[:, 3:]
    above = packed[:, :3] - hi
    gaps = np.maximum(np.maximum(below, above), 0.0)
    return np.sqrt((gaps * gaps).sum(axis=1))


def _pair_axis_distances(
    p0a: np.ndarray, p1a: np.ndarray, p0b: np.ndarray, p1b: np.ndarray
) -> np.ndarray:
    """Clamped closest-approach distance for n aligned segment pairs.

    Vectorisation of :func:`repro.geometry.distance.segment_segment_closest`
    with identical branch structure, so results agree to float precision.
    """
    d1 = p1a - p0a
    d2 = p1b - p0b
    r = p0a - p0b
    a = (d1 * d1).sum(axis=1)
    e = (d2 * d2).sum(axis=1)
    f = (d2 * r).sum(axis=1)
    c = (d1 * r).sum(axis=1)
    b = (d1 * d2).sum(axis=1)

    a_degenerate = a <= _EPS
    e_degenerate = e <= _EPS
    safe_a = np.where(a_degenerate, 1.0, a)
    safe_e = np.where(e_degenerate, 1.0, e)

    # General case: clamp s from the denominator, then clamp t and re-derive s.
    denom = a * e - b * b
    safe_denom = np.where(denom > _EPS, denom, 1.0)
    s = np.where(denom > _EPS, np.clip((b * f - c * e) / safe_denom, 0.0, 1.0), 0.0)
    t = (b * s + f) / safe_e
    t_low = t < 0.0
    t_high = t > 1.0
    t = np.clip(t, 0.0, 1.0)
    s = np.where(t_low, np.clip(-c / safe_a, 0.0, 1.0), s)
    s = np.where(t_high, np.clip((b - c) / safe_a, 0.0, 1.0), s)

    # Degenerate cases override the general solution.
    s = np.where(a_degenerate, 0.0, s)
    t = np.where(a_degenerate, np.clip(f / safe_e, 0.0, 1.0), t)
    t = np.where(e_degenerate, 0.0, t)
    s = np.where(e_degenerate & ~a_degenerate, np.clip(-c / safe_a, 0.0, 1.0), s)
    s = np.where(a_degenerate & e_degenerate, 0.0, s)
    t = np.where(a_degenerate & e_degenerate, 0.0, t)

    closest_a = p0a + s[:, None] * d1
    closest_b = p0b + t[:, None] * d2
    gap = closest_a - closest_b
    return np.sqrt((gap * gap).sum(axis=1))


def segment_distances(segpack: SegPack, q0: Any, q1: Any) -> np.ndarray:
    p0s, p1s, _ = segpack
    n = len(p0s)
    qa = np.broadcast_to(
        np.array([float(q0[0]), float(q0[1]), float(q0[2])]), (n, 3)
    )
    qb = np.broadcast_to(
        np.array([float(q1[0]), float(q1[1]), float(q1[2])]), (n, 3)
    )
    return _pair_axis_distances(p0s, p1s, qa, qb)


def capsule_pairs_touch(segpack_a: SegPack, segpack_b: SegPack, eps: float = 0.0) -> np.ndarray:
    p0a, p1a, ra = segpack_a
    p0b, p1b, rb = segpack_b
    distances = _pair_axis_distances(p0a, p1a, p0b, p1b)
    return distances <= ra + rb + eps + 1e-12


def _blocks(counts: np.ndarray, chunk: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``[start, stop)`` whose ``counts`` sum to at most ``chunk``.

    A single row whose count alone exceeds ``chunk`` forms its own range.
    """
    ends = np.cumsum(counts)
    start, rows = 0, len(counts)
    while start < rows:
        base = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, base + chunk, side="right")), start + 1)
        yield start, stop
        start = stop


def _flatten(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` of every element of the ranges ``[starts[r], starts[r] + counts[r])``.

    Row-major, ascending position within a row (the repeat/arange trick).
    """
    total = int(counts.sum())
    row = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(total)
    position += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return row, position


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _expand_windows(
    pivot: np.ndarray,
    other: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    eps: float,
    pivot_is_a: bool,
) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Flatten per-pivot index windows and y/z-filter them in bulk.

    ``lo``/``hi`` delimit each pivot's candidate window in ``other``.  The
    windows are expanded into flat (pivot, other) index pairs one block
    of pivots at a time, each block's window sizes summing to at most
    :data:`PAIR_CHUNK`, so the transient index and gather arrays stay
    bounded however many pairs the sweep tests.  ``pivot_is_a`` keeps the
    eps expansion on the A side in both sweep directions — bitwise
    identical to the scalar backend's comparisons.
    """
    counts = np.maximum(hi - lo, 0)  # complementary bounds can cross on empty windows
    total = int(counts.sum())
    if total == 0:
        return [], [], 0
    # Contiguous column copies make the flat gathers below ~3x cheaper
    # than strided 2-D advanced indexing on the (n, 6) packs.
    piv_min_y = np.ascontiguousarray(pivot[:, 1])
    piv_min_z = np.ascontiguousarray(pivot[:, 2])
    piv_max_y = np.ascontiguousarray(pivot[:, 4])
    piv_max_z = np.ascontiguousarray(pivot[:, 5])
    oth_min_y = np.ascontiguousarray(other[:, 1])
    oth_min_z = np.ascontiguousarray(other[:, 2])
    oth_max_y = np.ascontiguousarray(other[:, 4])
    oth_max_z = np.ascontiguousarray(other[:, 5])
    keep_piv: list[np.ndarray] = []
    keep_oth: list[np.ndarray] = []
    for start, stop in _blocks(counts, PAIR_CHUNK):
        pi, oi = _flatten(lo[start:stop], counts[start:stop])
        pi += start
        if pivot_is_a:
            mask = piv_min_y[pi] - eps <= oth_max_y[oi]
            mask &= oth_min_y[oi] <= piv_max_y[pi] + eps
            mask &= piv_min_z[pi] - eps <= oth_max_z[oi]
            mask &= oth_min_z[oi] <= piv_max_z[pi] + eps
        else:
            mask = oth_min_y[oi] - eps <= piv_max_y[pi]
            mask &= piv_min_y[pi] <= oth_max_y[oi] + eps
            mask &= oth_min_z[oi] - eps <= piv_max_z[pi]
            mask &= piv_min_z[pi] <= oth_max_z[oi] + eps
        keep_piv.append(pi[mask])
        keep_oth.append(oi[mask])
    return keep_piv, keep_oth, total


def xsorted_overlap_pairs(
    packed_a: np.ndarray, packed_b: np.ndarray, eps: float = 0.0
) -> tuple[list[int], list[int], int]:
    """All eps-expanded AABB-overlap pairs of two min_x-sorted batches.

    Same two-sided enumeration as the scalar backend — side one windows are
    found with two vectorised ``searchsorted`` calls per side and the y/z
    filter runs over the flattened windows — so indices, order and the
    ``tested`` count match the scalar sweep exactly.
    """
    n_a, n_b = len(packed_a), len(packed_b)
    if n_a == 0 or n_b == 0:
        return [], [], 0
    min_x_a = np.ascontiguousarray(packed_a[:, 0])
    min_x_b = np.ascontiguousarray(packed_b[:, 0])

    lo1 = np.searchsorted(min_x_b, min_x_a - eps, side="left")
    hi1 = np.searchsorted(min_x_b, packed_a[:, 3] + eps, side="right")
    a1, b1, tested_1 = _expand_windows(packed_a, packed_b, lo1, hi1, eps, pivot_is_a=True)

    # Side two's lower bound bisects the same rounded a.min_x - eps values
    # side one compared against, so the two sides are exact complements
    # (no pair can fall into a float rounding gap or be reported twice).
    lo2 = np.searchsorted(min_x_a - eps, min_x_b, side="right")
    hi2 = np.searchsorted(min_x_a, packed_b[:, 3] + eps, side="right")
    b2, a2, tested_2 = _expand_windows(packed_b, packed_a, lo2, hi2, eps, pivot_is_a=False)

    return _concat(a1 + a2).tolist(), _concat(b1 + b2).tolist(), tested_1 + tested_2


def box_overlap_pairs(
    packed_a: np.ndarray, packed_b: np.ndarray, eps: float = 0.0
) -> tuple[list[int], list[int]]:
    """All eps-expanded AABB-overlap pairs of two (unsorted) batches.

    One broadcast intersect matrix instead of one :func:`box_intersects`
    call per B box.  Pair order is
    B-major (ascending A index within each B), matching the scalar
    backend exactly; each elementwise test applies the same float
    arithmetic as :func:`box_intersects`.
    """
    if len(packed_a) == 0 or len(packed_b) == 0:
        return [], []
    mask = packed_a[None, :, 0] <= (packed_b[:, 3] + eps)[:, None]
    mask &= packed_a[None, :, 3] >= (packed_b[:, 0] - eps)[:, None]
    mask &= packed_a[None, :, 1] <= (packed_b[:, 4] + eps)[:, None]
    mask &= packed_a[None, :, 4] >= (packed_b[:, 1] - eps)[:, None]
    mask &= packed_a[None, :, 2] <= (packed_b[:, 5] + eps)[:, None]
    mask &= packed_a[None, :, 5] >= (packed_b[:, 2] - eps)[:, None]
    indices_b, indices_a = np.nonzero(mask)
    return indices_a.tolist(), indices_b.tolist()


class Hierarchy(NamedTuple):
    """A balanced box hierarchy as level arrays (see :func:`pack_hierarchy`).

    Node and object bounds are stored one row per coordinate (``(6, n)``,
    C-contiguous), so every per-pair gather reads a contiguous column.
    """

    nodes: list[np.ndarray]  # per depth, root first: (6, n_d) node bounds
    child_starts: list[np.ndarray]  # per internal depth: CSR offsets into depth + 1
    leaf_starts: np.ndarray  # CSR offsets of each leaf's objects
    objects: np.ndarray  # (6, n) object bounds, leaf by leaf
    offsets: np.ndarray  # global id of each depth's first node (plus the total)


def pack_hierarchy(
    level_bounds: Sequence[Sequence[Any]],
    child_starts: Sequence[Sequence[int]],
    leaf_starts: Sequence[int],
    object_bounds: Sequence[Any],
) -> Hierarchy:
    return Hierarchy(
        nodes=[np.array(level, dtype=float).T.copy() for level in level_bounds],
        child_starts=[np.asarray(starts, dtype=np.int64) for starts in child_starts],
        leaf_starts=np.asarray(leaf_starts, dtype=np.int64),
        objects=_bounds_array(object_bounds, len(object_bounds)).T.copy(),
        offsets=np.cumsum([0] + [len(level) for level in level_bounds]),
    )


def _expanded_nodes(hierarchy: Hierarchy, eps: float) -> list[np.ndarray]:
    # node.min - eps and node.max + eps, once per node: the same float
    # values AABB.intersects_expanded computes per test.
    return [np.concatenate([nodes[:3] - eps, nodes[3:] + eps]) for nodes in hierarchy.nodes]


def _node_hits(nodes: np.ndarray, b: np.ndarray, pos: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """``AABB.intersects_expanded(node, b, eps)`` for every (eps-expanded node, b) index pair."""
    mask = nodes[0][pos] <= b[3][bi]
    mask &= b[0][bi] <= nodes[3][pos]
    mask &= nodes[1][pos] <= b[4][bi]
    mask &= b[1][bi] <= nodes[4][pos]
    mask &= nodes[2][pos] <= b[5][bi]
    mask &= b[2][bi] <= nodes[5][pos]
    return mask


def touch_assign(
    hierarchy: Hierarchy, packed_b: np.ndarray, eps: float, filtering: bool
) -> tuple[np.ndarray, int, int]:
    """TOUCH phase 2 for every B box at once, one depth of the hierarchy at a time.

    The frontier is a pair of index arrays (B box, node at this depth).
    Each depth tests every (frontier row, child) pair in blocks of at
    most :data:`PAIR_CHUNK` pairs; the hit count per row sorts each box
    into none (empty space), one (descend) or many (bucket here).
    """
    b = np.ascontiguousarray(packed_b.T)
    expanded = _expanded_nodes(hierarchy, eps)
    bucket = np.full(b.shape[1], -1, dtype=np.int64)
    hit = _node_hits(expanded[0], b, np.zeros(b.shape[1], dtype=np.int64), np.arange(b.shape[1]))
    comparisons = b.shape[1]
    rows_b = np.flatnonzero(hit)
    rows_node = np.zeros(len(rows_b), dtype=np.int64)
    empty_b = [np.flatnonzero(~hit)]
    empty_node = [np.zeros(len(empty_b[0]), dtype=np.int64)]
    for depth, starts in enumerate(hierarchy.child_starts):
        nodes, base = expanded[depth + 1], hierarchy.offsets[depth]
        counts = starts[rows_node + 1] - starts[rows_node]
        down_b: list[np.ndarray] = []
        down_node: list[np.ndarray] = []
        for start, stop in _blocks(counts, PAIR_CHUNK):
            blk_b, blk_node = rows_b[start:stop], rows_node[start:stop]
            blk_counts = counts[start:stop]
            row, pos = _flatten(starts[blk_node], blk_counts)
            hit = _node_hits(nodes, b, pos, blk_b[row])
            seen = np.cumsum(hit)
            first = np.cumsum(blk_counts) - blk_counts
            before = seen[first] - hit[first]
            # The scalar descent stops at a node's second hit, so a child
            # counts as compared while fewer than two hits precede it.
            comparisons += int(np.count_nonzero(seen - hit - before[row] < 2))
            hits = seen[first + blk_counts - 1] - before
            one = hits == 1
            down_b.append(blk_b[one])
            down_node.append(pos[hit & one[row]])
            many = hits > 1
            bucket[blk_b[many]] = base + blk_node[many]
            none = hits == 0
            empty_b.append(blk_b[none])
            empty_node.append(base + blk_node[none])
        rows_b, rows_node = _concat(down_b), _concat(down_node)
    bucket[rows_b] = hierarchy.offsets[-2] + rows_node
    empty = _concat(empty_b)
    if filtering:
        return bucket, comparisons, len(empty)
    bucket[empty] = _concat(empty_node)
    return bucket, comparisons, 0


def touch_probe(
    hierarchy: Hierarchy, packed_b: np.ndarray, bucket: np.ndarray, eps: float
) -> Iterator[tuple[list[int], list[int], int]]:
    """TOUCH phase 3: every bucketed B box against the objects under its node.

    Descends all buckets together, one depth at a time: a box bucketed at
    depth ``d`` joins the frontier there, and every child of a frontier
    node is compared (no early stop).  The reached leaves are expanded
    into (object, B box) pairs and filtered with the
    :func:`box_overlap_pairs` arithmetic, both in blocks of at most
    :data:`PAIR_CHUNK` pairs.  The frontier stays sorted by B index, so
    survivors come out B-major, ascending object position within a box.
    """
    b = np.ascontiguousarray(packed_b.T)
    expanded = _expanded_nodes(hierarchy, eps)
    offsets = hierarchy.offsets
    assigned = np.flatnonzero(bucket >= 0)
    depth_of = np.searchsorted(offsets, bucket[assigned], side="right") - 1
    rows_b = np.empty(0, dtype=np.int64)
    rows_node = np.empty(0, dtype=np.int64)
    for depth in range(len(hierarchy.nodes)):
        joining = assigned[depth_of == depth]
        if len(joining):
            rows_b = np.concatenate([rows_b, joining])
            rows_node = np.concatenate([rows_node, bucket[joining] - offsets[depth]])
            order = np.argsort(rows_b, kind="stable")
            rows_b, rows_node = rows_b[order], rows_node[order]
        if depth == len(hierarchy.child_starts):
            break
        starts, nodes = hierarchy.child_starts[depth], expanded[depth + 1]
        counts = starts[rows_node + 1] - starts[rows_node]
        down_b: list[np.ndarray] = []
        down_node: list[np.ndarray] = []
        for start, stop in _blocks(counts, PAIR_CHUNK):
            row, pos = _flatten(starts[rows_node[start:stop]], counts[start:stop])
            bi = rows_b[start:stop][row]
            hit = _node_hits(nodes, b, pos, bi)
            down_b.append(bi[hit])
            down_node.append(pos[hit])
        yield [], [], int(counts.sum())
        rows_b, rows_node = _concat(down_b), _concat(down_node)
    starts, a = hierarchy.leaf_starts, hierarchy.objects
    counts = starts[rows_node + 1] - starts[rows_node]
    for start, stop in _blocks(counts, PAIR_CHUNK):
        row, ai = _flatten(starts[rows_node[start:stop]], counts[start:stop])
        bi = rows_b[start:stop][row]
        tested = len(ai)
        # Test x alone first and gather y/z only for its survivors: the
        # leaf MBR already overlaps the box, yet most objects miss on x.
        mask = a[0][ai] <= b[3][bi] + eps
        mask &= a[3][ai] >= b[0][bi] - eps
        ai, bi = ai[mask], bi[mask]
        mask = a[1][ai] <= b[4][bi] + eps
        mask &= a[4][ai] >= b[1][bi] - eps
        mask &= a[2][ai] <= b[5][bi] + eps
        mask &= a[5][ai] >= b[2][bi] - eps
        yield ai[mask].tolist(), bi[mask].tolist(), tested


def hilbert_keys(coords: Sequence[Sequence[int]], order: int) -> np.ndarray:
    from repro.errors import GeometryError
    from repro.kernels import python_backend

    if len(coords) == 0:
        return np.empty(0, dtype=np.int64)
    if order < 1:
        raise GeometryError("hilbert order must be >= 1")
    work = np.asarray(coords, dtype=np.int64).copy()
    if work.ndim != 2:
        work = work.reshape(len(coords), -1)
    n, dims = work.shape
    if order * dims > 62:
        # Keys would overflow int64; the scalar path has arbitrary precision.
        return python_backend.hilbert_keys(coords, order)
    limit = 1 << order
    if bool((work < 0).any()) or bool((work >= limit).any()):
        raise GeometryError(f"coordinate outside [0, {limit}) for order {order}")
    if dims == 1:
        return work[:, 0].copy()

    # Skilling axes->transpose, with the bit loops outside the batch.
    m = 1 << (order - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            high = (work[:, i] & q) != 0
            work[high, 0] ^= p
            low = ~high
            t = (work[low, 0] ^ work[low, i]) & p
            work[low, 0] ^= t
            work[low, i] ^= t
        q >>= 1
    for i in range(1, dims):
        work[:, i] ^= work[:, i - 1]
    t = np.zeros(n, dtype=np.int64)
    q = m
    while q > 1:
        hit = (work[:, dims - 1] & q) != 0
        t[hit] ^= q - 1
        q >>= 1
    work ^= t[:, None]

    # Interleave the transposed form into one key per point.
    keys = np.zeros(n, dtype=np.int64)
    for bit in range(order - 1, -1, -1):
        for axis in range(dims):
            keys = (keys << 1) | ((work[:, axis] >> bit) & 1)
    return keys


# -- mask utilities ------------------------------------------------------------
def nonzero(mask: np.ndarray) -> list[int]:
    return np.nonzero(mask)[0].tolist()


def count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))
