"""FLAT experiments: E1 (Fig 2/3), E2 (density claim), E3 (Fig 4), E8 (stats).

The demo compares FLAT and the R-tree live: both execute the same audience-
chosen window, and the screens show time, disk pages retrieved and — for the
R-tree — nodes retrieved per level.  These experiments script that loop.

Cost accounting
---------------
Every page access costs one ``read_latency``, for both systems alike: FLAT
pays its seed-tree node visits plus the partitions it crawls, the R-tree
pays its internal plus leaf node visits (one node per page, the textbook
layout).  FLAT runs in its original single-seed mode here (``verify=False``
— the exactness verification pass is this reproduction's addition; ablation
A1 measures its cost, and every experiment asserts the results still match
the R-tree's exactly).  The R-tree baseline is built by insertion in dataset
order — the incremental model-building pipeline the demo targets and the
regime where MBR overlap degrades range queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Sequence

from repro.experiments.datasets import (
    DEFAULT_SEED,
    circuit_dataset,
    flat_index_for,
    rtree_baseline_for,
)
from repro.storage.disk import DiskParameters
from repro.utils.tables import Table
from repro.workloads.ranges import density_stratified_queries, grid_queries

__all__ = [
    "FlatVsRTreeResult",
    "flat_vs_rtree_experiment",
    "DensitySweepResult",
    "density_sweep_experiment",
    "CrawlTraceResult",
    "crawl_trace_experiment",
    "TissueStatisticsResult",
    "tissue_statistics_experiment",
]


def _io_ms(data_pages: float, directory_visits: float, params: DiskParameters) -> float:
    """Uniform model: every page access (data or directory) is a disk read."""
    return (data_pages + directory_visits) * params.read_latency_ms


@dataclass
class MethodSummary:
    """Per-method averages over a query workload."""

    method: str
    mean_data_pages: float
    mean_directory_visits: float
    mean_io_ms: float
    mean_wall_ms: float
    mean_results: float
    nodes_per_level: dict[int, float] = field(default_factory=dict)


@dataclass
class FlatVsRTreeResult:
    """E1: FLAT vs R-tree on dense or sparse regions (Figures 2 and 3)."""

    region: str
    num_queries: int
    extent: float
    flat: MethodSummary
    rtree: MethodSummary

    def render(self) -> str:
        table = Table(
            [
                "method",
                "data pages/q",
                "dir visits/q",
                "io ms/q",
                "wall ms/q",
                "results/q",
            ],
            title=f"E1 FLAT vs R-tree - {self.region} region "
            f"({self.num_queries} queries, extent {self.extent:g} um)",
        )
        for summary in (self.flat, self.rtree):
            table.add_row(
                [
                    summary.method,
                    summary.mean_data_pages,
                    summary.mean_directory_visits,
                    summary.mean_io_ms,
                    summary.mean_wall_ms,
                    summary.mean_results,
                ]
            )
        lines = [table.render()]
        levels = ", ".join(
            f"L{level}: {count:.1f}"
            for level, count in sorted(self.rtree.nodes_per_level.items(), reverse=True)
        )
        lines.append(f"R-tree nodes/level per query: {levels}")
        return "\n".join(lines)


def flat_vs_rtree_experiment(
    region: str = "dense",
    n_neurons: int = 40,
    page_capacity: int = 48,
    extent: float = 80.0,
    num_queries: int = 12,
    seed: int = DEFAULT_SEED,
    rtree_method: str = "insert",
) -> FlatVsRTreeResult:
    """Run the E1 comparison on density-stratified windows.

    ``region`` is ``"dense"`` or ``"sparse"`` — the two behaviours the
    audience probes in the demo.  ``rtree_method="str"`` swaps in a bulk-
    loaded baseline (ablation: static repacking closes most of the R-tree's
    gap, isolating overlap as the cause of its degradation).
    """
    circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
    index = flat_index_for(n_neurons=n_neurons, seed=seed, page_capacity=page_capacity)
    rtree = rtree_baseline_for(
        n_neurons=n_neurons, seed=seed, page_capacity=page_capacity, method=rtree_method
    )
    params = DiskParameters()

    queries = density_stratified_queries(
        circuit.segments(), num_queries, extent, dense=(region == "dense"), seed=seed
    )

    flat_data, flat_dir, flat_wall, flat_results = [], [], [], []
    rt_data, rt_dir, rt_wall, rt_results = [], [], [], []
    level_acc: dict[int, int] = {}
    for box in queries:
        start = time.perf_counter()
        result = index.query(box, verify=False)
        elapsed = time.perf_counter() - start
        flat_data.append(result.stats.partitions_fetched)
        flat_dir.append(result.stats.seed_nodes_visited)
        flat_wall.append(elapsed * 1000.0)
        flat_results.append(result.stats.num_results)

        start = time.perf_counter()
        uids, stats = rtree.range_query_with_stats(box)
        elapsed = time.perf_counter() - start
        rt_data.append(stats.leaf_nodes_visited)
        rt_dir.append(stats.internal_nodes_visited)
        rt_wall.append(elapsed * 1000.0)
        rt_results.append(len(uids))
        for level, count in stats.nodes_per_level.items():
            level_acc[level] = level_acc.get(level, 0) + count
        if sorted(uids) != sorted(result.uids):
            raise AssertionError("FLAT and R-tree disagree on a range query")

    return FlatVsRTreeResult(
        region=region,
        num_queries=len(queries),
        extent=extent,
        flat=MethodSummary(
            method="FLAT",
            mean_data_pages=mean(flat_data),
            mean_directory_visits=mean(flat_dir),
            mean_io_ms=_io_ms(mean(flat_data), mean(flat_dir), params),
            mean_wall_ms=mean(flat_wall),
            mean_results=mean(flat_results),
        ),
        rtree=MethodSummary(
            method="R-tree",
            mean_data_pages=mean(rt_data),
            mean_directory_visits=mean(rt_dir),
            mean_io_ms=_io_ms(mean(rt_data), mean(rt_dir), params),
            mean_wall_ms=mean(rt_wall),
            mean_results=mean(rt_results),
            nodes_per_level={
                level: count / len(queries) for level, count in level_acc.items()
            },
        ),
    )


@dataclass
class DensitySweepRow:
    density_factor: int
    n_neurons: int
    n_segments: int
    extent: float
    mean_results: float
    flat_data_pages: float
    flat_io_ms: float
    rtree_data_pages: float
    rtree_io_ms: float
    rtree_overlap: float


@dataclass
class DensitySweepResult:
    """E2: cost vs density at (approximately) constant result size.

    The window volume shrinks as density grows so the result size stays
    level; FLAT's data-page count should then stay flat while the R-tree's
    page accesses keep climbing with overlap — the §2.1 claim.
    """

    rows: list[DensitySweepRow]

    def render(self) -> str:
        table = Table(
            [
                "density",
                "neurons",
                "segments",
                "results/q",
                "FLAT pages/q",
                "FLAT io ms",
                "R-tree pages/q",
                "R-tree io ms",
                "R-tree overlap",
            ],
            title="E2 density sweep (constant expected result size)",
        )
        for row in self.rows:
            table.add_row(
                [
                    f"x{row.density_factor}",
                    row.n_neurons,
                    row.n_segments,
                    row.mean_results,
                    row.flat_data_pages,
                    row.flat_io_ms,
                    row.rtree_data_pages,
                    row.rtree_io_ms,
                    row.rtree_overlap,
                ]
            )
        return table.render()

    def flat_growth(self) -> float:
        """FLAT I/O at the densest point relative to the sparsest."""
        return self.rows[-1].flat_io_ms / max(self.rows[0].flat_io_ms, 1e-9)

    def rtree_growth(self) -> float:
        return self.rows[-1].rtree_io_ms / max(self.rows[0].rtree_io_ms, 1e-9)


def density_sweep_experiment(
    density_factors: Sequence[int] = (1, 2, 4, 8),
    base_neurons: int = 10,
    base_extent: float = 140.0,
    page_capacity: int = 48,
    num_queries: int = 10,
    seed: int = DEFAULT_SEED,
) -> DensitySweepResult:
    """Run E2: same column, ``base_neurons * factor`` neurons per step."""
    params = DiskParameters()
    rows = []
    for factor in density_factors:
        n_neurons = base_neurons * factor
        circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
        index = flat_index_for(n_neurons=n_neurons, seed=seed, page_capacity=page_capacity)
        rtree = rtree_baseline_for(n_neurons=n_neurons, seed=seed, page_capacity=page_capacity)
        # Constant expected result size: result count scales with window
        # volume x density, so shrink the volume by the density factor.
        extent = base_extent / factor ** (1.0 / 3.0)
        queries = density_stratified_queries(
            circuit.segments(), num_queries, extent, dense=True, seed=seed
        )
        flat_data, flat_dir, rt_data, rt_dir, results = [], [], [], [], []
        for box in queries:
            flat_result = index.query(box, verify=False)
            flat_data.append(flat_result.stats.partitions_fetched)
            flat_dir.append(flat_result.stats.seed_nodes_visited)
            uids, stats = rtree.range_query_with_stats(box)
            rt_data.append(stats.leaf_nodes_visited)
            rt_dir.append(stats.internal_nodes_visited)
            results.append(len(uids))
        rows.append(
            DensitySweepRow(
                density_factor=factor,
                n_neurons=n_neurons,
                n_segments=circuit.num_segments,
                extent=extent,
                mean_results=mean(results),
                flat_data_pages=mean(flat_data),
                flat_io_ms=_io_ms(mean(flat_data), mean(flat_dir), params),
                rtree_data_pages=mean(rt_data),
                rtree_io_ms=_io_ms(mean(rt_data), mean(rt_dir), params),
                rtree_overlap=rtree.overlap_factor(),
            )
        )
    return DensitySweepResult(rows=rows)


@dataclass
class CrawlTraceResult:
    """E3 (Figure 4): the order in which FLAT loads the query result."""

    crawl_order: list[int]
    contiguous_fraction: float  # visited partitions adjacent to an earlier one
    reseeds: int
    data_pages: int
    num_results: int

    def render(self) -> str:
        head = ", ".join(str(pid) for pid in self.crawl_order[:16])
        more = " ..." if len(self.crawl_order) > 16 else ""
        return (
            "E3 crawl trace (Figure 4)\n"
            f"partitions in visit order: {head}{more}\n"
            f"contiguous fraction: {self.contiguous_fraction:.3f}   "
            f"reseeds: {self.reseeds}   data pages: {self.data_pages}   "
            f"results: {self.num_results}"
        )


def crawl_trace_experiment(
    n_neurons: int = 40,
    page_capacity: int = 48,
    extent: float = 150.0,
    seed: int = DEFAULT_SEED,
) -> CrawlTraceResult:
    """Run one dense window and record FLAT's crawl order."""
    circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
    index = flat_index_for(n_neurons=n_neurons, seed=seed, page_capacity=page_capacity)
    box = density_stratified_queries(circuit.segments(), 1, extent, dense=True, seed=seed)[0]
    result = index.query(box)
    order = result.stats.crawl_order
    contiguous = 0
    seen: set[int] = set()
    for position, pid in enumerate(order):
        if position > 0 and any(nb in seen for nb in index.neighbors[pid]):
            contiguous += 1
        seen.add(pid)
    fraction = contiguous / max(len(order) - 1, 1)
    return CrawlTraceResult(
        crawl_order=order,
        contiguous_fraction=fraction,
        reseeds=result.stats.reseeds,
        data_pages=result.stats.partitions_fetched,
        num_results=result.stats.num_results,
    )


@dataclass
class TissueStatisticsResult:
    """E8: tissue-density scan — the statistics use case of §2.1."""

    cells_per_axis: int
    densities: list[float]  # segments per um^3 per grid cell
    flat_total_pages: int
    rtree_total_pages: int

    def render(self) -> str:
        lo, hi = min(self.densities), max(self.densities)
        avg = sum(self.densities) / len(self.densities)
        return (
            "E8 tissue statistics scan\n"
            f"grid: {self.cells_per_axis}^3 windows   "
            f"density (segments/um^3): min {lo:.2e}  mean {avg:.2e}  max {hi:.2e}\n"
            f"total data pages - FLAT: {self.flat_total_pages}   "
            f"R-tree: {self.rtree_total_pages}"
        )


def tissue_statistics_experiment(
    n_neurons: int = 40,
    page_capacity: int = 48,
    cells_per_axis: int = 4,
    seed: int = DEFAULT_SEED,
) -> TissueStatisticsResult:
    """Scan the column with adjacent windows and histogram tissue density."""
    circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
    index = flat_index_for(n_neurons=n_neurons, seed=seed, page_capacity=page_capacity)
    rtree = rtree_baseline_for(n_neurons=n_neurons, seed=seed, page_capacity=page_capacity)
    queries = grid_queries(circuit.column_box(), cells_per_axis)

    densities = []
    flat_pages = 0
    rt_pages = 0
    for box in queries:
        result = index.query(box, verify=False)
        flat_pages += result.stats.partitions_fetched
        _, stats = rtree.range_query_with_stats(box)
        rt_pages += stats.leaf_nodes_visited
        densities.append(len(result.uids) / box.volume())
    return TissueStatisticsResult(
        cells_per_axis=cells_per_axis,
        densities=densities,
        flat_total_pages=flat_pages,
        rtree_total_pages=rt_pages,
    )
