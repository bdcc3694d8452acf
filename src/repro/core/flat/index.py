"""FLAT query execution: seed once, crawl the neighborhood, re-seed if needed.

The crawl makes execution cost proportional to the *result* (partitions
intersecting the range) instead of to the index paths an overlapping R-tree
would descend — the paper's central claim for dense data.  Re-seeding keeps
results exact even when the neighbour graph leaves a range disconnected:
the loop asks the seed R-tree for any not-yet-visited partition in the range
and only terminates when none exists, so recall is always 100%.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.flat import updates as _updates
from repro.core.flat.neighborhood import build_neighbor_links, default_neighbor_eps
from repro.core.flat.partitions import Partition, build_partitions
from repro.core.flat.stats import FLATQueryStats
from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.objects import SpatialObject
from repro.rtree.bulk import str_bulk_load
from repro.rtree.tree import RTree
from repro.storage.arena import BoundsView, ColumnarArena
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk, DiskParameters
from repro.storage.page import DEFAULT_PAGE_BYTES, OBJECT_BYTES, Page

__all__ = ["FLATIndex", "FLATQueryResult"]


@dataclass
class FLATQueryResult:
    """Result of one FLAT range query: matching uids plus the live counters."""

    uids: list[int]
    stats: FLATQueryStats


class FLATIndex:
    """FLAT over a static dataset of spatial objects.

    Parameters
    ----------
    objects:
        Dataset to index (uids must be unique).
    page_capacity:
        Objects per partition/page (default: one 8 KiB page of segments).
    neighbor_eps:
        Adjacency expansion; defaults to an adaptive value derived from the
        partition MBRs (see :func:`default_neighbor_eps`).
    seed_fanout:
        Fan-out of the seed R-tree over partition MBRs.
    disk_params:
        Latency constants for the simulated disk backing the partitions.
    arena:
        The arena whose live objects, in live order, ``objects`` are, if
        any: partitioning then reads its bounds array, and page bounds
        columns share its bounds tuples instead of holding copies.
    """

    def __init__(
        self,
        objects: Sequence[SpatialObject],
        page_capacity: int | None = None,
        neighbor_eps: float | None = None,
        seed_fanout: int = 16,
        disk_params: DiskParameters | None = None,
        arena: ColumnarArena | None = None,
    ) -> None:
        if not objects:
            raise IndexError_("FLAT requires a non-empty dataset")
        if page_capacity is None:
            page_capacity = DEFAULT_PAGE_BYTES // OBJECT_BYTES
        self.page_capacity = page_capacity
        self._arena = arena

        self._objects: dict[int, SpatialObject] = {}
        for obj in objects:
            if obj.uid in self._objects:
                raise IndexError_(f"duplicate object uid {obj.uid}")
            self._objects[obj.uid] = obj

        # Indexing phase: partition, link neighbours, build the seed tree,
        # and lay the partitions out as pages on the simulated disk.  Each
        # object's row is its bounds_row: the arena's tuple when there is one.
        if arena is None:
            rows = [obj.aabb.bounds() for obj in objects]
            bounds = np.array(rows, dtype=float)
        else:
            rows = arena.live_bounds()
            bounds = arena.bounds_array()[arena.live_rows]
        self.partitions: list[Partition] = build_partitions(objects, page_capacity, bounds)
        self.neighbor_eps = (
            neighbor_eps if neighbor_eps is not None else default_neighbor_eps(self.partitions)
        )
        self.neighbors: list[list[int]] = build_neighbor_links(self.partitions, self.neighbor_eps)
        self.seed_tree: RTree = str_bulk_load(
            [(p.partition_id, p.mbr) for p in self.partitions],
            max_entries=seed_fanout,
        )
        self.disk = Disk(params=disk_params if disk_params is not None else DiskParameters())
        self._partition_of_uid: dict[int, int] = {}
        row_of_uid = dict(zip(self._objects, rows))
        for partition in self.partitions:
            self.disk.store(
                Page(
                    page_id=partition.partition_id,
                    object_uids=partition.object_uids,
                    mbr=partition.mbr,
                    bounds=BoundsView(map(row_of_uid.__getitem__, partition.object_uids)),
                )
            )
            for uid in partition.object_uids:
                self._partition_of_uid[uid] = partition.partition_id
        self.world: AABB = AABB.union_all(p.mbr for p in self.partitions)

    # -- lookups --------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def object(self, uid: int) -> SpatialObject:
        try:
            return self._objects[uid]
        except KeyError:
            raise IndexError_(f"unknown object uid {uid}") from None

    def objects(self) -> list[SpatialObject]:
        """All indexed objects (insertion order not guaranteed)."""
        return list(self._objects.values())

    def partitions_intersecting(self, box: AABB) -> list[int]:
        """Partition ids whose MBR intersects ``box`` (in-memory, no I/O).

        Prefetchers use this to translate a predicted query box into page
        ids; it performs pure index work and touches no data pages.
        """
        return self.seed_tree.range_query(box)

    def page_bounds_view(self, uids: Sequence[int]) -> BoundsView:
        """Build the immutable per-object bounds column view for a page.

        Pages carry their bounds column (:class:`BoundsView`) from the
        moment they are stored; because pages are immutable snapshots, the
        view needs no invalidation — maintenance stores a new page with a
        new view, so a pack built from a superseded snapshot can never be
        served against the current index state.  Each row is
        :meth:`bounds_row` of the object this index holds for the uid.
        """
        row = self.bounds_row
        objects = self._objects
        return BoundsView(row(objects[uid]) for uid in uids)

    def bounds_row(self, obj: SpatialObject) -> tuple[float, float, float, float, float, float]:
        """``obj``'s row in a page view: the arena's own tuple when it holds ``obj``."""
        if self._arena is None:
            return obj.aabb.bounds()
        return self._arena.bounds_of(obj)

    def index_bytes(self) -> int:
        """Modelled memory footprint of the index structures (not the data)."""
        link_bytes = 8 * sum(len(adj) for adj in self.neighbors)
        mbr_bytes = 48 * len(self.partitions)
        return self.seed_tree.byte_size() + link_bytes + mbr_bytes

    # -- maintenance (model building: paper section 1) -----------------------
    def insert(self, obj: SpatialObject) -> None:
        """Add an object, splitting and re-linking partitions locally.

        See :mod:`repro.core.flat.updates` for the maintenance algorithm.
        """
        _updates.insert_object(self, obj)

    def delete(self, uid: int) -> None:
        """Remove an object; empty partitions are dissolved."""
        _updates.delete_object(self, uid)

    def move(self, obj: SpatialObject) -> None:
        """Replace object ``obj.uid``'s geometry (page-level when possible).

        See :func:`repro.core.flat.updates.move_object` for the in-place
        versus delete-reinsert decision.
        """
        _updates.move_object(self, obj)

    def validate(self) -> None:
        """Check every FLAT invariant (partition coverage, links, seed tree)."""
        _updates.validate_index(self)

    # -- nearest neighbours ----------------------------------------------------
    def knn(self, point: Vec3, k: int) -> tuple[list[tuple[int, float]], FLATQueryStats]:
        """The ``k`` objects nearest to ``point`` (AABB distance).

        Two-level best-first search: partitions are visited in order of MBR
        distance and the scan stops as soon as the next partition cannot
        beat the current ``k``-th best — so the page fetches reported in the
        stats track the answer's locality, not the dataset size.

        The answer is canonical — the ``k`` smallest by ``(distance,
        uid)``, agreeing with every other KNN entry point under distance
        ties (see :func:`repro.engine.executors.run_knn_flat`).
        """
        stats = FLATQueryStats()
        results: list[tuple[int, float]] = []
        if k < 1:
            return results, stats
        live = [p for p in self.partitions if p.num_objects > 0]
        frontier_distances = kernels.point_box_distance(
            kernels.pack_boxes([p.mbr for p in live]), point
        )
        frontier = [
            (float(distance), p.partition_id)
            for distance, p in zip(frontier_distances, live)
        ]
        heapq.heapify(frontier)
        best: list[tuple[float, int]] = []  # max-heap via negated (distance, uid)
        while frontier:
            partition_distance, pid = heapq.heappop(frontier)
            if len(best) == k and partition_distance > -best[0][0]:
                break
            page, latency = self.disk.read(pid)
            stats.partitions_fetched += 1
            stats.crawl_order.append(pid)
            stats.stall_time_ms += latency
            distances = kernels.point_box_distance(page.bounds.packed(), point)
            stats.objects_scanned += len(page.object_uids)
            for uid, raw_distance in zip(page.object_uids, distances):
                distance = float(raw_distance)
                if len(best) < k:
                    heapq.heappush(best, (-distance, -uid))
                elif (distance, uid) < (-best[0][0], -best[0][1]):
                    heapq.heapreplace(best, (-distance, -uid))
        results = sorted(
            ((-neg_uid, -neg_d) for neg_d, neg_uid in best), key=lambda t: (t[1], t[0])
        )
        stats.num_results = len(results)
        return results, stats

    # -- query phase ---------------------------------------------------------
    def query(
        self, box: AABB, pool: BufferPool | None = None, verify: bool = True
    ) -> FLATQueryResult:
        """Range query: all object uids whose AABB intersects ``box``.

        When ``pool`` is given, data pages are fetched through the buffer
        pool (demand fetches; misses add stall time) — this is how SCOUT
        sessions run FLAT.  Without a pool, pages are read directly from the
        simulated disk.

        ``verify`` controls the exactness guarantee.  The original FLAT
        trusts the neighbour graph: one seed descent, one crawl.  With
        ``verify=True`` (default) the seed tree is additionally asked for
        unvisited partitions in the range until none remain, so results are
        exact even if the neighbour graph leaves the range disconnected —
        at the price of one extra (failing) seed search.  Ablation A1
        quantifies the difference; on the built-in circuit workloads the
        crawl is already complete and verification never finds more work.
        """
        stats = FLATQueryStats()
        visited: set[int] = set()
        results: list[int] = []

        while True:
            seed_pid, seed_stats = self.seed_tree.find_any_in_range(box, exclude=visited)
            stats.seed_attempts += 1
            stats.seed_nodes_visited += seed_stats.nodes_visited
            stats.seed_entries_tested += seed_stats.entries_tested
            if seed_pid is None:
                break
            if stats.partitions_fetched > 0:
                stats.reseeds += 1
            self._crawl(seed_pid, box, visited, results, stats, pool)
            if not verify:
                break

        stats.num_results = len(results)
        return FLATQueryResult(uids=results, stats=stats)

    def _crawl(
        self,
        seed_pid: int,
        box: AABB,
        visited: set[int],
        results: list[int],
        stats: FLATQueryStats,
        pool: BufferPool | None,
    ) -> None:
        """Breadth-first crawl of the neighbour graph restricted to ``box``."""
        frontier: deque[int] = deque([seed_pid])
        visited.add(seed_pid)
        while frontier:
            pid = frontier.popleft()
            page = self._fetch_page(pid, stats, pool)
            stats.partitions_fetched += 1
            stats.crawl_order.append(pid)
            uids = page.object_uids
            stats.objects_scanned += len(uids)
            mask = kernels.box_intersects(page.bounds.packed(), box)
            for i in kernels.nonzero(mask):
                results.append(uids[i])
            for neighbor_pid in self.neighbors[pid]:
                stats.neighbor_tests += 1
                if neighbor_pid in visited:
                    continue
                if self.partitions[neighbor_pid].mbr.intersects(box):
                    visited.add(neighbor_pid)
                    frontier.append(neighbor_pid)

    def _fetch_page(self, pid: int, stats: FLATQueryStats, pool: BufferPool | None) -> Page:
        if pool is not None:
            before = pool.stats.stall_time_ms
            page = pool.fetch(pid)
            stats.stall_time_ms += pool.stats.stall_time_ms - before
            return page
        page, latency = self.disk.read(pid)
        stats.stall_time_ms += latency
        return page
