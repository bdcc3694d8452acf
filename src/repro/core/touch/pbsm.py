"""PBSM: Partition Based Spatial Merge join (Patel & DeWitt).

Space-oriented partitioning: a uniform grid tiles the joint bounding box and
every object is *replicated* into each cell it overlaps; cells are then
joined locally.  Replication is exactly what TOUCH is designed to avoid —
"it (a) increases the memory footprint and (b) requires multiple comparisons
(as well as making the removal of duplicate results necessary)" (paper
§4.1).  Duplicates are suppressed with the standard reference-point method,
and both costs (replicas, suppressed duplicates) are counted.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import kernels
from repro.core.touch.stats import (
    REF_BYTES,
    CandidateBatch,
    JoinResult,
    JoinStats,
    RefineFunc,
)
from repro.errors import JoinError
from repro.geometry.aabb import AABB
from repro.objects import SpatialObject

__all__ = ["pbsm_join"]


def pbsm_join(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    eps: float = 0.0,
    refine: RefineFunc | None = None,
    target_per_cell: int = 64,
    cells_per_axis: int | None = None,
) -> JoinResult:
    """Grid-partition both datasets, join cell-locally, dedup by reference point.

    ``cells_per_axis`` fixes the grid resolution; by default it is sized so
    an average cell holds about ``target_per_cell`` objects.
    """
    stats = JoinStats(algorithm="PBSM", n_a=len(objects_a), n_b=len(objects_b))
    if not objects_a or not objects_b:
        return JoinResult(pairs=[], stats=stats)

    start = time.perf_counter()
    world = AABB.union_all(o.aabb for o in objects_a).union(
        AABB.union_all(o.aabb for o in objects_b)
    ).expanded(eps + 1e-9)
    if cells_per_axis is None:
        total = len(objects_a) + len(objects_b)
        cells_per_axis = max(1, round((total / target_per_cell) ** (1.0 / 3.0)))
    if cells_per_axis < 1:
        raise JoinError("cells_per_axis must be >= 1")
    grid = _Grid(world, cells_per_axis)

    cells_a: dict[int, list[SpatialObject]] = {}
    cells_b: dict[int, list[SpatialObject]] = {}
    assignments_a = _assign(objects_a, grid, eps, cells_a)
    assignments_b = _assign(objects_b, grid, 0.0, cells_b)
    stats.replicated = (assignments_a - len(objects_a)) + (assignments_b - len(objects_b))
    stats.build_ms = (time.perf_counter() - start) * 1000.0
    stats.memory_bytes = (
        (assignments_a + assignments_b) * REF_BYTES
        + (len(cells_a) + len(cells_b)) * 64  # per-cell list overhead
    )

    start = time.perf_counter()
    pairs: list[tuple[int, int]] = []
    candidates = CandidateBatch(refine, stats, pairs)
    for cell_id, bucket_a in cells_a.items():
        bucket_b = cells_b.get(cell_id)
        if not bucket_b:
            continue
        # One pack per cell, one batch filter call per (a, cell) pair.
        packed_b = kernels.pack_objects(bucket_b)
        for a in bucket_a:
            box_a = a.aabb
            a_min_x = box_a.min_x - eps
            a_min_y = box_a.min_y - eps
            a_min_z = box_a.min_z - eps
            stats.comparisons += len(bucket_b)
            mask = kernels.box_intersects(packed_b, box_a, eps)
            for i in kernels.nonzero(mask):
                b = bucket_b[i]
                box_b = b.aabb
                # Reference-point dedup: report only in the cell containing
                # the low corner of the (expanded-a, b) overlap region.
                ref = (
                    max(a_min_x, box_b.min_x),
                    max(a_min_y, box_b.min_y),
                    max(a_min_z, box_b.min_z),
                )
                if grid.cell_of_point(ref) != cell_id:
                    stats.dedup_skipped += 1
                    continue
                candidates.add(a, b)
    candidates.flush()
    stats.probe_ms = (time.perf_counter() - start) * 1000.0
    return JoinResult(pairs=pairs, stats=stats)


class _Grid:
    """Uniform grid over ``world`` with ``cells_per_axis`` cells per axis."""

    def __init__(self, world: AABB, cells_per_axis: int) -> None:
        self.world = world
        self.n = cells_per_axis
        sx, sy, sz = world.sizes
        self.step_x = sx / cells_per_axis if sx > 0 else 1.0
        self.step_y = sy / cells_per_axis if sy > 0 else 1.0
        self.step_z = sz / cells_per_axis if sz > 0 else 1.0

    def _clamp(self, index: int) -> int:
        return min(max(index, 0), self.n - 1)

    def cell_of_point(self, point: tuple[float, float, float]) -> int:
        ix = self._clamp(int((point[0] - self.world.min_x) / self.step_x))
        iy = self._clamp(int((point[1] - self.world.min_y) / self.step_y))
        iz = self._clamp(int((point[2] - self.world.min_z) / self.step_z))
        return (ix * self.n + iy) * self.n + iz

    def cells_of_box(self, box: AABB, eps: float) -> list[int]:
        lo_x = self._clamp(int((box.min_x - eps - self.world.min_x) / self.step_x))
        hi_x = self._clamp(int((box.max_x + eps - self.world.min_x) / self.step_x))
        lo_y = self._clamp(int((box.min_y - eps - self.world.min_y) / self.step_y))
        hi_y = self._clamp(int((box.max_y + eps - self.world.min_y) / self.step_y))
        lo_z = self._clamp(int((box.min_z - eps - self.world.min_z) / self.step_z))
        hi_z = self._clamp(int((box.max_z + eps - self.world.min_z) / self.step_z))
        cells = []
        for ix in range(lo_x, hi_x + 1):
            for iy in range(lo_y, hi_y + 1):
                for iz in range(lo_z, hi_z + 1):
                    cells.append((ix * self.n + iy) * self.n + iz)
        return cells


def _assign(
    objects: Sequence[SpatialObject],
    grid: _Grid,
    eps: float,
    cells: dict[int, list[SpatialObject]],
) -> int:
    assignments = 0
    for obj in objects:
        for cell_id in grid.cells_of_box(obj.aabb, eps):
            cells.setdefault(cell_id, []).append(obj)
            assignments += 1
    return assignments
