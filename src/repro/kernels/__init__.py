"""Batch geometry kernels: one API, a vectorised and a scalar implementation.

The spatial hot paths — R-tree leaf scans, FLAT partition scans, the filter
phases of the join algorithms, Hilbert packing — all reduce to the same few
primitives applied to *many* geometries at once: box-versus-box overlap,
point/box distances, capsule-pair touch tests, curve-key encoding.  This
package exposes those primitives over *packed* operands (arrays of bounds,
points or segment axes) so a consumer performs one call per batch instead of
one Python-level iteration per object.

Two interchangeable backends implement the API:

* :mod:`repro.kernels.numpy_backend` — NumPy-vectorised (the default when
  NumPy imports cleanly),
* :mod:`repro.kernels.python_backend` — pure-Python scalar loops, used as a
  fallback and as the parity/performance reference.

The backend is selected once at import time (override with the
``REPRO_KERNELS`` environment variable, value ``numpy`` or ``python``) and
can be switched at runtime with :func:`set_backend` or scoped with the
:func:`use_backend` context manager — the parity tests and the benchmark
harness run every kernel under both.  Packed operands are backend-specific;
anything cached by a consumer must be keyed by :func:`active_backend` (see
``pack_token``).

Every batch call is counted in :data:`counters`, which is how
``EngineStats.kernel_batches`` knows how much work ran vectorised.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.errors import GeometryError

__all__ = [
    "active_backend",
    "available_backends",
    "set_backend",
    "use_backend",
    "pack_token",
    "counters",
    "KernelCounters",
    "pack_boxes",
    "pack_bounds",
    "pack_objects",
    "pack_segments",
    "batch_len",
    "slice_packed",
    "box_intersects",
    "box_contains",
    "box_overlap_pairs",
    "point_box_distance",
    "box_box_distance",
    "segment_distances",
    "capsule_pairs_touch",
    "xsorted_overlap_pairs",
    "pack_hierarchy",
    "touch_assign",
    "touch_probe",
    "hilbert_keys",
    "nonzero",
    "count",
]

from repro.kernels import python_backend as _python_backend

try:  # pragma: no cover - exercised implicitly on every import
    from repro.kernels import numpy_backend as _numpy_backend
except Exception:  # pragma: no cover - container without a working NumPy
    _numpy_backend = None  # type: ignore[assignment]

_BACKENDS: dict[str, Any] = {"python": _python_backend}
if _numpy_backend is not None:
    _BACKENDS["numpy"] = _numpy_backend


class KernelCounters:
    """Running totals of batch kernel work, kept **per thread**.

    Each thread accumulates (and reads) its own totals, so a
    before/after delta around a query — :func:`repro.engine.executors.timed`
    does exactly this — counts only that thread's kernel calls even while
    the :class:`~repro.service.ShardedEngine` worker pool runs other
    queries concurrently.  ``reset`` clears the calling thread's slot only.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._slots_lock = threading.Lock()
        self._slots: list[list[int]] = []

    def _slot(self) -> list[int]:
        slot = getattr(self._local, "slot", None)
        if slot is None:
            slot = self._local.slot = [0, 0]
            with self._slots_lock:
                self._slots.append(slot)
        return slot

    @property
    def batches(self) -> int:
        return self._slot()[0]

    @property
    def elements(self) -> int:
        return self._slot()[1]

    def add(self, n: int) -> None:
        slot = self._slot()
        slot[0] += 1
        slot[1] += n

    def reset(self) -> None:
        slot = self._slot()
        slot[0] = 0
        slot[1] = 0

    def snapshot(self) -> tuple[int, int]:
        slot = self._slot()
        return (slot[0], slot[1])

    def totals(self) -> tuple[int, int]:
        """``(batches, elements)`` summed across every thread ever seen.

        The cross-thread aggregate the metrics registry exports; exact at
        any quiescent point.  ``reset`` still only clears the calling
        thread's slot, so totals are monotone while any thread works.
        """
        with self._slots_lock:
            return (
                sum(slot[0] for slot in self._slots),
                sum(slot[1] for slot in self._slots),
            )


#: Per-thread batch counters, surfaced per query by the engine executors.
counters = KernelCounters()


def _default_backend_name() -> str:
    requested = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if requested:
        if requested not in _BACKENDS:
            raise GeometryError(
                f"REPRO_KERNELS={requested!r} is not available; "
                f"choose from {sorted(_BACKENDS)}"
            )
        return requested
    return "numpy" if "numpy" in _BACKENDS else "python"


_active_name = _default_backend_name()
_active = _BACKENDS[_active_name]


def active_backend() -> str:
    """Name of the backend currently serving kernel calls."""
    return _active_name


def available_backends() -> tuple[str, ...]:
    """The selectable backend names (always includes ``python``)."""
    return tuple(sorted(_BACKENDS))


def set_backend(name: str) -> None:
    """Switch the active backend (``numpy`` or ``python``)."""
    global _active_name, _active
    if name not in _BACKENDS:
        raise GeometryError(f"unknown kernel backend {name!r}; choose from {sorted(_BACKENDS)}")
    _active_name = name
    _active = _BACKENDS[name]


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Scoped backend switch — restores the previous backend on exit."""
    previous = _active_name
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def pack_token() -> str:
    """Cache key for packed operands (packs are backend-specific)."""
    return _active_name


def _record(n: int) -> None:
    counters.add(n)


# -- packing (uncounted: pure layout, no geometry work) -----------------------
def pack_boxes(boxes: Sequence[Any]) -> Any:
    """Pack AABBs into the backend's native bounds batch."""
    return _active.pack_boxes(boxes)


def pack_bounds(bounds: Sequence[tuple[float, float, float, float, float, float]]) -> Any:
    """Pack raw ``(min_x, min_y, min_z, max_x, max_y, max_z)`` rows.

    ``bounds`` may be a float64 ``(n, 6)`` NumPy column; a backend whose
    packed form is that column returns it as is, not a copy.
    """
    return _active.pack_bounds(bounds)


def pack_objects(objects: Sequence[Any]) -> Any:
    """Pack the AABBs of spatial objects into a bounds batch."""
    return _active.pack_objects(objects)


def pack_segments(segments: Sequence[Any]) -> Any:
    """Pack capsule segments into ``(p0s, p1s, radii)`` batches."""
    return _active.pack_segments(segments)


def batch_len(packed: Any) -> int:
    """Number of elements in a packed bounds batch."""
    return _active.batch_len(packed)


def slice_packed(packed: Any, start: int, stop: int) -> Any:
    """Contiguous sub-batch ``[start:stop)`` of a packed bounds batch."""
    return _active.slice_packed(packed, start, stop)


# -- batch predicates and distances -------------------------------------------
def box_intersects(packed: Any, box: Any, eps: float = 0.0) -> Any:
    """Mask: which packed boxes intersect ``box`` (each expanded by ``eps``)?

    Matches :meth:`repro.geometry.aabb.AABB.intersects_expanded` applied
    per element (closed boxes: touching counts as intersecting).
    """
    _record(_active.batch_len(packed))
    return _active.box_intersects(packed, box, eps)


def box_contains(packed: Any, box: Any) -> Any:
    """Mask: which packed boxes lie entirely inside ``box``?"""
    _record(_active.batch_len(packed))
    return _active.box_contains(packed, box)


def point_box_distance(packed: Any, point: Any) -> Any:
    """Per-box Euclidean distance from ``point`` (0 inside the box)."""
    _record(_active.batch_len(packed))
    return _active.point_box_distance(packed, point)


def box_box_distance(packed: Any, box: Any) -> Any:
    """Per-box minimum distance to ``box`` (0 when intersecting)."""
    _record(_active.batch_len(packed))
    return _active.box_box_distance(packed, box)


def segment_distances(segpack: Any, q0: Any, q1: Any) -> Any:
    """Axis distances from every packed segment to the one segment ``q0q1``."""
    _record(_active.batch_len(segpack[0]))
    return _active.segment_distances(segpack, q0, q1)


def capsule_pairs_touch(segpack_a: Any, segpack_b: Any, eps: float = 0.0) -> Any:
    """Elementwise touch-rule mask over two equal-length capsule batches.

    Pair ``i`` touches when the axis distance does not exceed
    ``radius_a[i] + radius_b[i] + eps`` (plus the shared 1e-12 slack of
    :func:`repro.geometry.distance.segments_touch`).
    """
    _record(_active.batch_len(segpack_a[0]))
    return _active.capsule_pairs_touch(segpack_a, segpack_b, eps)


def box_overlap_pairs(
    packed_a: Any, packed_b: Any, eps: float = 0.0
) -> tuple[list[int], list[int]]:
    """Every eps-expanded AABB-overlap pair of two (unsorted) batches.

    Parallel index lists ``(indices_a, indices_b)`` in B-major order,
    equal to running :func:`box_intersects` once per B box.  Counted as
    one batch of ``len(a) * len(b)`` pairwise tests.
    """
    _record(_active.batch_len(packed_a) * _active.batch_len(packed_b))
    return _active.box_overlap_pairs(packed_a, packed_b, eps)


def xsorted_overlap_pairs(
    packed_a: Any, packed_b: Any, eps: float = 0.0
) -> tuple[list[int], list[int], int]:
    """Every eps-expanded AABB-overlap pair of two min_x-sorted batches.

    The plane-sweep filter phase as one batch call: returns parallel index
    lists ``(indices_a, indices_b)`` plus the number of candidates whose
    y/z overlap was tested (the sweep's comparison count).  Both inputs
    must be packed in ascending ``min_x`` order.
    """
    result = _active.xsorted_overlap_pairs(packed_a, packed_b, eps)
    _record(result[2])
    return result


def pack_hierarchy(
    level_bounds: Sequence[Sequence[Any]],
    child_starts: Sequence[Sequence[int]],
    leaf_starts: Sequence[int],
    object_bounds: Sequence[Any],
) -> Any:
    """Pack a balanced box hierarchy as level arrays (uncounted: pure layout).

    ``level_bounds[d]`` holds the bounds tuples of the nodes at depth ``d``
    (root first); the children of node ``i`` at depth ``d`` are nodes
    ``child_starts[d][i]:child_starts[d][i + 1]`` at depth ``d + 1``; the
    objects of leaf ``i`` are ``object_bounds[leaf_starts[i]:leaf_starts[i + 1]]``.
    A node's global id is its position in the root-first, depth-by-depth
    concatenation of ``level_bounds``.
    """
    return _active.pack_hierarchy(level_bounds, child_starts, leaf_starts, object_bounds)


def touch_assign(
    hierarchy: Any, packed_b: Any, eps: float, filtering: bool
) -> tuple[Any, int, int]:
    """TOUCH phase 2: sink every packed B box to its lowest unambiguous node.

    A box descends while exactly one child (expanded by ``eps``) can hold
    partners, stops at the node where several can, and falls into empty
    space where none can — then it is dropped when ``filtering``, else
    kept at that node.  Returns ``(bucket, comparisons, filtered)``:
    ``bucket`` holds each box's global node id, ``-1`` for dropped boxes;
    ``comparisons`` counts node tests up to each node's second hit, as a
    scalar descent stopping there would.  Counted as one batch.
    """
    result = _active.touch_assign(hierarchy, packed_b, eps, filtering)
    _record(result[1])
    return result


def touch_probe(
    hierarchy: Any, packed_b: Any, bucket: Any, eps: float
) -> Iterator[tuple[list[int], list[int], int]]:
    """TOUCH phase 3: each bucketed B box against the objects under its node.

    Yields ``(indices_a, indices_b, tested)`` chunks: object positions
    (leaf-by-leaf order) and B indices of every eps-expanded AABB overlap,
    B-major, ascending object position within a box, plus the comparisons
    the chunk made (every child of a reached node, every object of a
    reached leaf).  Each chunk is counted as one batch.
    """
    for chunk in _active.touch_probe(hierarchy, packed_b, bucket, eps):
        _record(chunk[2])
        yield chunk


def hilbert_keys(coords: Sequence[Any], order: int) -> Any:
    """Hilbert curve keys for a batch of integer grid coordinates.

    Elementwise identical to :func:`repro.hilbert.curve.hilbert_encode`.
    """
    _record(len(coords))
    return _active.hilbert_keys(coords, order)


# -- mask utilities ------------------------------------------------------------
def nonzero(mask: Any) -> list[int]:
    """Indices of the true elements of a mask, ascending."""
    return _active.nonzero(mask)


def count(mask: Any) -> int:
    """Number of true elements of a mask."""
    return _active.count(mask)
