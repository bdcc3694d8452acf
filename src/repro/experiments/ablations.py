"""Ablations A1-A8: the design choices of FLAT, SCOUT and TOUCH, isolated.

Each function toggles exactly one mechanism and reports the counters it
moves, using the same datasets as the main experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Sequence

from repro.core.flat.index import FLATIndex
from repro.core.scout.prefetcher import ScoutPrefetcher
from repro.core.scout.session import ExplorationSession
from repro.core.touch.join import touch_join
from repro.experiments.datasets import (
    DEFAULT_SEED,
    circuit_dataset,
    dense_join_workload,
    flat_index_for,
)
from repro.storage.buffer_pool import BufferPool
from repro.utils.rng import derive_seed
from repro.utils.tables import Table
from repro.workloads.ranges import density_stratified_queries
from repro.workloads.walks import branch_walk

__all__ = [
    "a1_flat_verification",
    "a2_flat_page_capacity",
    "a3_scout_content_awareness",
    "a4_scout_pruning",
    "a5_touch_filtering",
    "a6_touch_fanout",
    "a7_flat_incremental_maintenance",
    "a8_touch_eps_sensitivity",
]


@dataclass
class AblationResult:
    """A rendered table plus the raw rows for assertions."""

    name: str
    table: Table
    rows: list[dict]

    def render(self) -> str:
        return self.table.render()


def a1_flat_verification(
    n_neurons: int = 40, num_queries: int = 10, seed: int = DEFAULT_SEED
) -> AblationResult:
    """A1: crawl-only vs crawl+verify — recall and extra seed cost."""
    circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
    index = flat_index_for(n_neurons=n_neurons, seed=seed)
    segments = circuit.segments()
    queries = density_stratified_queries(segments, num_queries, 120.0, dense=True, seed=seed)

    table = Table(
        ["mode", "recall", "seed nodes/q", "data pages/q", "reseeds total"],
        title="A1 FLAT verification pass",
    )
    rows = []
    for verify in (False, True):
        recalls, seed_nodes, data_pages, reseeds = [], [], [], 0
        for box in queries:
            result = index.query(box, verify=verify)
            expected = {s.uid for s in segments if s.aabb.intersects(box)}
            got = set(result.uids)
            recalls.append(len(got & expected) / max(len(expected), 1))
            seed_nodes.append(result.stats.seed_nodes_visited)
            data_pages.append(result.stats.partitions_fetched)
            reseeds += result.stats.reseeds
        row = {
            "mode": "verify" if verify else "crawl-only",
            "recall": mean(recalls),
            "seed_nodes": mean(seed_nodes),
            "data_pages": mean(data_pages),
            "reseeds": reseeds,
        }
        rows.append(row)
        table.add_row(
            [row["mode"], row["recall"], row["seed_nodes"], row["data_pages"], row["reseeds"]]
        )
    return AblationResult("A1", table, rows)


def a2_flat_page_capacity(
    capacities: Sequence[int] = (12, 24, 48, 96),
    n_neurons: int = 40,
    num_queries: int = 8,
    seed: int = DEFAULT_SEED,
) -> AblationResult:
    """A2: partition size sweep — pages fetched vs objects scanned."""
    circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
    segments = circuit.segments()
    queries = density_stratified_queries(segments, num_queries, 120.0, dense=True, seed=seed)

    table = Table(
        ["page capacity", "partitions", "pages/q", "objects scanned/q", "io ms/q"],
        title="A2 FLAT partition size",
    )
    rows = []
    for capacity in capacities:
        index = FLATIndex(segments, page_capacity=capacity)
        pages, scanned = [], []
        for box in queries:
            result = index.query(box, verify=False)
            pages.append(result.stats.partitions_fetched)
            scanned.append(result.stats.objects_scanned)
        row = {
            "capacity": capacity,
            "partitions": index.num_partitions,
            "pages": mean(pages),
            "scanned": mean(scanned),
            "io_ms": mean(pages) * index.disk.params.read_latency_ms,
        }
        rows.append(row)
        table.add_row(
            [capacity, row["partitions"], row["pages"], row["scanned"], row["io_ms"]]
        )
    return AblationResult("A2", table, rows)


def _run_scout_walks(index, walks, **prefetcher_kwargs):
    stall = misses = issued = used = 0.0
    for walk in walks:
        pool = BufferPool(index.disk, capacity=384)
        prefetcher = ScoutPrefetcher(index, pool, **prefetcher_kwargs)
        metrics = ExplorationSession(index, pool, prefetcher).run(walk.queries)
        stall += metrics.total_stall_ms
        misses += metrics.demand_misses
        issued += metrics.total_prefetched
        used += metrics.prefetch_used
    return {
        "stall_ms": stall,
        "misses": misses,
        "issued": issued,
        "used": used,
        "accuracy": used / issued if issued else 0.0,
    }


def _scout_setup(n_neurons: int, seed: int, num_walks: int = 2):
    circuit = circuit_dataset(n_neurons=n_neurons, seed=seed)
    index = flat_index_for(n_neurons=n_neurons, seed=seed, page_capacity=12)
    walks = [
        branch_walk(circuit, window_extent=90.0, seed=derive_seed(seed, "walk", i), min_steps=14)
        for i in range(num_walks)
    ]
    return index, walks


def a3_scout_content_awareness(
    n_neurons: int = 40, seed: int = DEFAULT_SEED
) -> AblationResult:
    """A3: skeleton smoothing on vs off (single-edge extrapolation)."""
    index, walks = _scout_setup(n_neurons, seed)
    table = Table(
        ["mode", "stall ms", "missed", "issued", "accuracy"],
        title="A3 SCOUT direction smoothing (content awareness)",
    )
    rows = []
    for label, smooth in (("smoothed (k=4)", 4), ("single edge (k=1)", 1)):
        result = _run_scout_walks(index, walks, smooth_steps=smooth)
        result["mode"] = label
        rows.append(result)
        table.add_row(
            [label, result["stall_ms"], result["misses"], result["issued"], result["accuracy"]]
        )
    return AblationResult("A3", table, rows)


def a4_scout_pruning(n_neurons: int = 40, seed: int = DEFAULT_SEED) -> AblationResult:
    """A4: candidate pruning on vs off — accuracy and wasted prefetches."""
    index, walks = _scout_setup(n_neurons, seed)
    table = Table(
        ["mode", "stall ms", "missed", "issued", "used", "accuracy"],
        title="A4 SCOUT candidate pruning",
    )
    rows = []
    for label, prune in (("pruning on", True), ("pruning off", False)):
        result = _run_scout_walks(index, walks, prune=prune)
        result["mode"] = label
        rows.append(result)
        table.add_row(
            [
                label,
                result["stall_ms"],
                result["misses"],
                result["issued"],
                result["used"],
                result["accuracy"],
            ]
        )
    return AblationResult("A4", table, rows)


def a5_touch_filtering(
    n_per_side: int = 2000, eps: float = 3.0, seed: int = DEFAULT_SEED
) -> AblationResult:
    """A5: empty-space filtering on vs off — comparisons moved."""
    objects_a, objects_b = dense_join_workload(n_per_side, seed=seed)
    table = Table(
        ["mode", "comparisons", "filtered", "pairs", "total ms"],
        title="A5 TOUCH empty-space filtering",
    )
    rows = []
    for label, filtering in (("filtering on", True), ("filtering off", False)):
        result = touch_join(objects_a, objects_b, eps=eps, filtering=filtering)
        row = {
            "mode": label,
            "comparisons": result.stats.comparisons,
            "filtered": result.stats.filtered,
            "pairs": len(result.pairs),
            "total_ms": result.stats.total_ms,
        }
        rows.append(row)
        table.add_row(
            [label, row["comparisons"], row["filtered"], row["pairs"], row["total_ms"]]
        )
    if rows[0]["pairs"] != rows[1]["pairs"]:
        raise AssertionError("filtering must not change join results")
    return AblationResult("A5", table, rows)


def a7_flat_incremental_maintenance(
    n_neurons: int = 30,
    added_neurons: int = 4,
    num_queries: int = 6,
    seed: int = DEFAULT_SEED,
) -> AblationResult:
    """A7: grow the model incrementally vs rebuilding FLAT from scratch.

    The paper's motivation is *model building*: neurons are added to the
    circuit between analyses.  This ablation adds ``added_neurons`` to an
    indexed circuit either through :meth:`FLATIndex.insert` (local
    maintenance) or by rebuilding the index, and compares build effort and
    resulting query cost.
    """
    from repro.neuro.circuit import generate_circuit
    from repro.utils.timers import Stopwatch

    base = circuit_dataset(n_neurons=n_neurons, seed=seed)
    grown = generate_circuit(
        n_neurons=n_neurons + added_neurons,
        seed=seed,
        column_radius=base.config.column_radius,
        column_height=base.config.column_height,
    )
    # The grown circuit regenerates all segments with fresh uids; the last
    # neurons' segments are "the update batch".
    new_segments = [
        s for s in grown.segments() if s.neuron_id >= n_neurons
    ]
    shared_segments = [s for s in grown.segments() if s.neuron_id < n_neurons]

    table = Table(
        ["strategy", "maintenance ms", "partitions", "pages/query", "recall"],
        title=f"A7 FLAT incremental maintenance (+{added_neurons} neurons, "
        f"{len(new_segments)} segments)",
    )
    queries = density_stratified_queries(
        grown.segments(), num_queries, 120.0, dense=True, seed=seed
    )
    expected = [
        sorted(s.uid for s in grown.segments() if s.aabb.intersects(box)) for box in queries
    ]

    rows = []
    for strategy in ("incremental", "rebuild"):
        stopwatch = Stopwatch()
        if strategy == "incremental":
            index = FLATIndex(shared_segments, page_capacity=48)
            with stopwatch:
                for segment in new_segments:
                    index.insert(segment)
            index.validate()
        else:
            with stopwatch:
                index = FLATIndex(grown.segments(), page_capacity=48)
        pages, recalls = [], []
        for box, truth in zip(queries, expected):
            result = index.query(box)
            pages.append(result.stats.partitions_fetched)
            got = set(result.uids)
            recalls.append(len(got & set(truth)) / max(len(truth), 1))
        row = {
            "strategy": strategy,
            "maintenance_ms": stopwatch.elapsed * 1000.0,
            "partitions": sum(1 for p in index.partitions if p.num_objects > 0),
            "pages": mean(pages),
            "recall": mean(recalls),
        }
        rows.append(row)
        table.add_row(
            [strategy, row["maintenance_ms"], row["partitions"], row["pages"], row["recall"]]
        )
    return AblationResult("A7", table, rows)


def a8_touch_eps_sensitivity(
    eps_values: Sequence[float] = (0.5, 1.5, 3.0, 6.0, 12.0),
    n_per_side: int = 2000,
    seed: int = DEFAULT_SEED,
) -> AblationResult:
    """A8: join tolerance sweep — selectivity vs work for TOUCH.

    The touch distance is a biological parameter (how close branches must
    come to form a synapse); this sweep shows TOUCH's comparisons growing
    smoothly with the tolerance while results stay exact (validated against
    the nested-loop oracle at the smallest size).
    """
    from repro.core.touch.nested_loop import nested_loop_join

    objects_a, objects_b = dense_join_workload(n_per_side, seed=seed)
    table = Table(
        ["eps um", "pairs", "comparisons", "filtered", "total ms"],
        title="A8 TOUCH tolerance sensitivity",
    )
    rows = []
    for eps in eps_values:
        result = touch_join(objects_a, objects_b, eps=eps)
        row = {
            "eps": eps,
            "pairs": len(result.pairs),
            "comparisons": result.stats.comparisons,
            "filtered": result.stats.filtered,
            "total_ms": result.stats.total_ms,
        }
        rows.append(row)
        table.add_row([eps, row["pairs"], row["comparisons"], row["filtered"], row["total_ms"]])
    # Oracle spot-check at the largest tolerance.
    oracle = nested_loop_join(objects_a[:300], objects_b[:300], eps=eps_values[-1])
    check = touch_join(objects_a[:300], objects_b[:300], eps=eps_values[-1])
    if oracle.sorted_pairs() != check.sorted_pairs():
        raise AssertionError("TOUCH disagrees with the oracle in the eps sweep")
    return AblationResult("A8", table, rows)


def a6_touch_fanout(
    fanouts: Sequence[int] = (4, 8, 16, 32),
    n_per_side: int = 2000,
    eps: float = 3.0,
    seed: int = DEFAULT_SEED,
) -> AblationResult:
    """A6: hierarchy fanout sweep — comparisons and time."""
    objects_a, objects_b = dense_join_workload(n_per_side, seed=seed)
    table = Table(
        ["fanout", "comparisons", "memory B", "total ms"],
        title="A6 TOUCH tree fanout",
    )
    rows = []
    reference: list | None = None
    for fanout in fanouts:
        result = touch_join(objects_a, objects_b, eps=eps, fanout=fanout)
        if reference is None:
            reference = result.sorted_pairs()
        elif result.sorted_pairs() != reference:
            raise AssertionError("fanout must not change join results")
        row = {
            "fanout": fanout,
            "comparisons": result.stats.comparisons,
            "memory": result.stats.memory_bytes,
            "total_ms": result.stats.total_ms,
        }
        rows.append(row)
        table.add_row([fanout, row["comparisons"], row["memory"], row["total_ms"]])
    return AblationResult("A6", table, rows)
