"""Unified benchmark runner: the repo's recorded performance trajectory.

This module is the library behind the ``repro bench`` CLI subcommand.  It
executes a curated set of workloads — batch-kernel microbenches plus the
hot end-to-end paths the interactive bench scripts
(``benchmarks/bench_flat_query.py``, ``bench_touch_join.py``, ...)
exercise — under every available kernel backend, and emits one
schema-versioned JSON artifact (``BENCH_PR2.json`` by default) per run:

* per workload and backend mode: best-of-N wall time, work units processed
  and units/second,
* for every vectorised entry: its speedup over the scalar fallback on the
  identical workload,
* suite metadata (smoke vs full sizes, schema version, default backend).

CI runs the smoke suite on every push, uploads the JSON as an artifact and
fails when any workload regresses more than ``--max-regression`` (default
30%) against the committed ``benchmarks/baseline.json`` — so a performance
regression breaks the build exactly like a correctness regression.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import kernels

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadResult",
    "Regression",
    "run_suite",
    "results_to_json",
    "compare_to_baseline",
    "main",
]

SCHEMA_VERSION = 1

#: Workload names whose vectorised/fallback speedup backs the PR's headline
#: claim (range scans and join filtering >= 2x with the NumPy kernels).
HEADLINE_WORKLOADS = ("flat.range_scan", "join.filter")


@dataclass
class WorkloadResult:
    """One (workload, kernel-backend) measurement."""

    name: str
    mode: str  # kernel backend the workload ran under
    wall_ms: float  # best-of-repeats wall clock
    units: int  # work units processed per run (see ``unit``)
    unit: str  # what a unit is ("object tests", "objects scanned", ...)
    repeats: int
    speedup_vs_fallback: float | None = None  # filled on vectorised entries

    @property
    def units_per_sec(self) -> float:
        if self.wall_ms <= 0.0:
            return 0.0
        return self.units / (self.wall_ms / 1000.0)

    def as_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "mode": self.mode,
            "wall_ms": round(self.wall_ms, 4),
            "units": self.units,
            "unit": self.unit,
            "units_per_sec": round(self.units_per_sec, 1),
            "repeats": self.repeats,
            "speedup_vs_fallback": (
                None
                if self.speedup_vs_fallback is None
                else round(self.speedup_vs_fallback, 3)
            ),
        }


@dataclass
class Regression:
    """One workload that got slower than the baseline allows."""

    name: str
    mode: str
    wall_ms: float
    baseline_wall_ms: float

    @property
    def ratio(self) -> float:
        return self.wall_ms / self.baseline_wall_ms

    def describe(self) -> str:
        return (
            f"{self.name} [{self.mode}]: {self.wall_ms:.2f} ms vs baseline "
            f"{self.baseline_wall_ms:.2f} ms ({self.ratio:.2f}x)"
        )


@dataclass
class _Workload:
    """A benchmark: build state once per mode, time the run callable."""

    name: str
    unit: str
    setup: Callable[[dict[str, Any]], Any]
    run: Callable[[Any], int]  # returns work units processed
    # wall-time override: return the measured milliseconds for runs whose
    # interesting phase is a sub-span of the call (e.g. a join's probe phase)
    measured_ms: Callable[[Any, int], float] | None = None
    teardown: Callable[[Any], None] | None = None  # release state resources
    # repeats floor above the suite default, for workloads whose run is
    # dominated by IPC/scheduling noise rather than compute
    min_repeats: int | None = None


def _smoke_config() -> dict[str, Any]:
    return {
        "suite": "smoke",
        "repeats": 5,
        "n_neurons": 60,
        "page_capacity": 512,
        "extent": 200.0,
        "n_queries": 8,
        "knn_k": 16,
        "join_side": 2000,
        "micro_boxes": 20000,
        "micro_windows": 80,
        "micro_pairs": 8192,
        "micro_points": 8192,
        "service_shards": 4,
        "service_neurons": 40,
        "service_queries": 10,
        "service_extent": 180.0,
        "mutate_neurons": 30,
        "mutate_batch": 400,
        "rw_neurons": 20,
        "rw_ops": 24,
        "rw_write_fraction": 0.3,
        "wal_batches": 64,
        "wal_batch_size": 16,
        "recover_objects": 1500,
        "recover_batches": 48,
        "recover_batch_size": 8,
        "serve_neurons": 20,
        "serve_queries": 16,
        "catchup_batches": 24,
        "catchup_batch_size": 8,
        "catalog_objects": 600,
        "catalog_eps": 1.5,
    }


def _full_config() -> dict[str, Any]:
    return {
        "suite": "full",
        "repeats": 5,
        "n_neurons": 120,
        "page_capacity": 512,
        "extent": 250.0,
        "n_queries": 16,
        "knn_k": 32,
        "join_side": 4000,
        "micro_boxes": 100000,
        "micro_windows": 40,
        "micro_pairs": 32768,
        "micro_points": 32768,
        "service_shards": 4,
        "service_neurons": 60,
        "service_queries": 16,
        "service_extent": 220.0,
        "mutate_neurons": 60,
        "mutate_batch": 800,
        "rw_neurons": 30,
        "rw_ops": 48,
        "rw_write_fraction": 0.3,
        "wal_batches": 128,
        "wal_batch_size": 32,
        "recover_objects": 4000,
        "recover_batches": 96,
        "recover_batch_size": 16,
        "serve_neurons": 40,
        "serve_queries": 32,
        "catchup_batches": 48,
        "catchup_batch_size": 16,
        "catalog_objects": 2000,
        "catalog_eps": 1.5,
    }


# -- workload definitions ------------------------------------------------------
def _micro_boxes(cfg: dict[str, Any]) -> Any:
    from repro.geometry.aabb import AABB
    from repro.utils.rng import make_rng

    rng = make_rng(2013)
    n = cfg["micro_boxes"]
    boxes = [
        AABB.from_center_extent(
            (rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(-500, 500)),
            rng.uniform(1.0, 12.0),
        )
        for _ in range(n)
    ]
    windows = [
        AABB.from_center_extent(
            (rng.uniform(-400, 400), rng.uniform(-400, 400), rng.uniform(-400, 400)),
            120.0,
        )
        for _ in range(cfg["micro_windows"])
    ]
    return kernels.pack_boxes(boxes), windows, n


def _run_box_intersects(state: Any) -> int:
    packed, windows, n = state
    for window in windows:
        kernels.nonzero(kernels.box_intersects(packed, window, 1.5))
    return n * len(windows)


def _run_point_distance(state: Any) -> int:
    packed, windows, n = state
    for window in windows:
        kernels.point_box_distance(packed, window.center())
    return n * len(windows)


def _micro_segments(cfg: dict[str, Any]) -> Any:
    from repro.geometry.segment import Segment
    from repro.geometry.vec import Vec3
    from repro.utils.rng import make_rng

    rng = make_rng(97)
    n = cfg["micro_pairs"]

    def seg(uid: int) -> Segment:
        p0 = Vec3(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-100, 100))
        step = Vec3(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8))
        return Segment(uid, p0, p0 + step, rng.uniform(0.2, 2.0))

    side_a = [seg(i) for i in range(n)]
    side_b = [seg(n + i) for i in range(n)]
    return side_a, side_b, n


def _run_capsule_filter(state: Any) -> int:
    side_a, side_b, n = state
    touching = kernels.capsule_pairs_touch(
        kernels.pack_segments(side_a), kernels.pack_segments(side_b), eps=1.0
    )
    kernels.count(touching)
    return n


def _micro_coords(cfg: dict[str, Any]) -> Any:
    from repro.utils.rng import make_rng

    rng = make_rng(41)
    n = cfg["micro_points"]
    grid = rng.integers(0, 1 << 10, size=(n, 3))
    coords = [(int(x), int(y), int(z)) for x, y, z in grid]
    return coords, n


def _run_hilbert(state: Any) -> int:
    coords, n = state
    kernels.hilbert_keys(coords, order=10)
    return n


def _flat_state(cfg: dict[str, Any]) -> Any:
    from repro.experiments.datasets import circuit_dataset, flat_index_for
    from repro.workloads.ranges import density_stratified_queries

    circuit = circuit_dataset(n_neurons=cfg["n_neurons"])
    index = flat_index_for(
        n_neurons=cfg["n_neurons"], page_capacity=cfg["page_capacity"]
    )
    queries = density_stratified_queries(
        circuit.segments(), cfg["n_queries"], cfg["extent"], dense=True, seed=2013
    )
    centers = [box.center() for box in queries]
    # Warm the per-partition packs so the timed runs measure the scan path.
    for box in queries:
        index.query(box)
    return index, queries, centers, cfg["knn_k"]


def _run_flat_range(state: Any) -> int:
    index, queries, _, _ = state
    scanned = 0
    for box in queries:
        scanned += index.query(box).stats.objects_scanned
    return scanned


def _run_flat_knn(state: Any) -> int:
    index, _, centers, k = state
    scanned = 0
    for center in centers:
        _, stats = index.knn(center, k)
        scanned += stats.objects_scanned
    return scanned


def _rtree_state(cfg: dict[str, Any]) -> Any:
    from repro.experiments.datasets import circuit_dataset
    from repro.rtree.bulk import str_bulk_load
    from repro.workloads.ranges import density_stratified_queries

    circuit = circuit_dataset(n_neurons=cfg["n_neurons"])
    segments = circuit.segments()
    tree = str_bulk_load(
        [(s.uid, s.aabb) for s in segments],
        max_entries=16,
        leaf_capacity=cfg["page_capacity"],
    )
    queries = density_stratified_queries(
        segments, cfg["n_queries"], cfg["extent"], dense=True, seed=2013
    )
    for box in queries:
        tree.range_query(box)  # warm the node packs
    return tree, queries


def _run_rtree_range(state: Any) -> int:
    tree, queries = state
    tested = 0
    for box in queries:
        _, stats = tree.range_query_with_stats(box)
        tested += stats.entries_tested
    return tested


def _join_state(cfg: dict[str, Any]) -> Any:
    from repro.experiments.datasets import dense_join_workload

    axons, dendrites = dense_join_workload(cfg["join_side"])
    return axons, dendrites


def _run_sweep_filter(state: Any) -> tuple[int, float]:
    from repro.core.touch.plane_sweep import plane_sweep_join
    from repro.core.touch.stats import segment_touch_refine

    axons, dendrites = state
    result = plane_sweep_join(axons, dendrites, eps=3.0, refine=segment_touch_refine)
    return result.stats.comparisons, result.stats.probe_ms


def _run_touch(state: Any) -> int:
    from repro.core.touch.join import touch_join
    from repro.core.touch.stats import segment_touch_refine

    axons, dendrites = state
    result = touch_join(
        axons, dendrites, eps=3.0, refine=segment_touch_refine, leaf_capacity=128
    )
    return result.stats.comparisons


def _run_pbsm(state: Any) -> int:
    from repro.core.touch.pbsm import pbsm_join
    from repro.core.touch.stats import segment_touch_refine

    axons, dendrites = state
    result = pbsm_join(
        axons, dendrites, eps=3.0, refine=segment_touch_refine, target_per_cell=256
    )
    return result.stats.comparisons


def _service_workload(shards_key: str) -> _Workload:
    """Sharded range-scan throughput through the :class:`ShardedEngine`.

    The timed quantity is the batch's *modelled* service latency — the
    busiest shard's summed simulated-I/O time (see
    :func:`repro.service.stats.batch_makespan_ms`) — the same deterministic
    cost model every experiment in this repo reports.  With one shard that
    equals the single-node latency, so ``wall(s1) / wall(sharded)`` is the
    modelled sharding speedup the PR claims (> 1.5x on the committed smoke
    baseline).  Real thread-pool wall time still shapes nothing here: on a
    one-core CI runner it would measure the GIL, not the architecture.
    """
    makespan_holder: dict[int, float] = {}

    def setup(cfg: dict[str, Any]) -> Any:
        from repro.engine.queries import RangeQuery
        from repro.experiments.datasets import circuit_dataset
        from repro.service import ShardedEngine
        from repro.workloads.ranges import density_stratified_queries

        circuit = circuit_dataset(n_neurons=cfg["service_neurons"])
        segments = circuit.segments()
        queries = [
            RangeQuery(box)
            for box in density_stratified_queries(
                segments, cfg["service_queries"], cfg["service_extent"], dense=True, seed=2013
            )
        ]
        num_shards = 1 if shards_key == "one" else cfg["service_shards"]
        service = ShardedEngine.from_circuit(
            circuit,
            num_shards=num_shards,
            page_capacity=cfg["page_capacity"],
            max_queued=len(queries) + 8,
        )
        return service, queries

    def run(state: Any) -> int:
        from repro.service import batch_makespan_ms

        service, queries = state
        results = service.query_many(queries)
        makespan_holder[id(state)] = batch_makespan_ms(results)
        return sum(r.num_results for r in results)

    def measured(state: Any, _units: int) -> float:
        return makespan_holder[id(state)]

    def teardown(state: Any) -> None:
        service, _ = state
        service.close()

    suffix = "1shard" if shards_key == "one" else "sharded"
    return _Workload(
        name=f"service.range_scan_{suffix}",
        unit="results returned",
        setup=setup,
        run=run,
        measured_ms=measured,
        teardown=teardown,
    )


def _executor_service_workload(executor: str) -> _Workload:
    """Range-scan batch cost under one service executor mode.

    Wall time cannot compare the executors honestly — a one-core CI
    runner time-slices the process pool just like it time-slices threads,
    and on any host the thread pool's wall includes GIL convoy effects
    that vary with scheduler mood.  So both modes are measured on the
    same deterministic footing: per-shard *CPU* time
    (``time.thread_time()`` around each shard subtask, which excludes
    GIL waits and preemption), aggregated by what each architecture
    must pay for the batch —

    * ``thread`` (``service.range_scan_gilbound``): the **serialised
      sum** of every shard subtask's CPU.  One interpreter executes all
      shard work back-to-back; that sum is the batch's floor no matter
      how many threads fan it out.
    * ``process`` (``service.range_scan_procpool``): the **CPU
      makespan** — the busiest shard's summed CPU.  Each shard's worker
      owns a core (and its own interpreter), so the batch completes when
      the busiest shard does.

    ``wall(gilbound) / wall(procpool)`` is therefore the modelled
    GIL-escape speedup at ``service_shards`` shards, gated in
    ``test_bench.py`` alongside the sharding speedup.

    The batch is full-dataset scans rather than the stratified windows of
    the sharding workloads: the executor comparison wants every shard
    busy (Hilbert tiling gives near-equal row counts, so a full scan
    spreads CPU evenly), because shard *skew* is a property of the query
    mix already measured by ``sharded_range_speedup``, not of the
    executor under test.
    """
    measured_holder: dict[int, float] = {}

    def setup(cfg: dict[str, Any]) -> Any:
        from repro.engine.queries import RangeQuery
        from repro.experiments.datasets import circuit_dataset
        from repro.geometry.aabb import AABB
        from repro.service import ShardedEngine

        circuit = circuit_dataset(n_neurons=cfg["service_neurons"])
        segments = circuit.segments()
        world = AABB.union_all(obj.aabb for obj in segments)
        # 4x the sharding workloads' batch: per-shard CPU must dwarf the
        # thread_time() sampling noise, because the procpool aggregate
        # (min over runs of the *busiest* shard) inflates under noise
        # where the gilbound sum averages it out.
        queries = [RangeQuery(world) for _ in range(cfg["service_queries"] * 4)]
        service = ShardedEngine.from_circuit(
            circuit,
            num_shards=cfg["service_shards"],
            page_capacity=cfg["page_capacity"],
            max_queued=len(queries) + 8,
            executor=executor,
        )
        service.warm()
        return service, queries

    def run(state: Any) -> int:
        from repro.service import batch_cpu_makespan_ms, batch_cpu_serialized_ms

        service, queries = state
        results = service.query_many(queries)
        if executor == "process":
            measured_holder[id(state)] = batch_cpu_makespan_ms(results)
        else:
            measured_holder[id(state)] = batch_cpu_serialized_ms(results)
        return sum(r.num_results for r in results)

    def measured(state: Any, _units: int) -> float:
        return measured_holder[id(state)]

    def teardown(state: Any) -> None:
        service, _ = state
        service.close()

    suffix = "procpool" if executor == "process" else "gilbound"
    return _Workload(
        name=f"service.range_scan_{suffix}",
        unit="results returned",
        setup=setup,
        run=run,
        measured_ms=measured,
        teardown=teardown,
        min_repeats=8,  # min-of-max needs more samples than min-of-sum
    )


def _mutation_state(cfg: dict[str, Any]) -> Any:
    from repro.engine import Delete, Insert, RangeQuery, SpatialEngine
    from repro.experiments.datasets import circuit_dataset
    from repro.geometry.aabb import AABB
    from repro.geometry.vec import Vec3
    from repro.objects import BoxObject
    from repro.utils.rng import make_rng

    circuit = circuit_dataset(n_neurons=cfg["mutate_neurons"])
    engine = SpatialEngine.from_circuit(circuit, page_capacity=cfg["page_capacity"])
    # Warm both index families so the timed runs measure *incremental*
    # maintenance (FLAT page rewrites/splits, R-tree insert/delete), not
    # a lazy rebuild.
    world = engine.profile.world
    engine.execute(RangeQuery(world, strategy="flat"))
    engine.execute(RangeQuery(world, strategy="rtree"))
    rng = make_rng(2013)
    base_uid = max(o.uid for o in engine.objects) + 1
    size = max(world.sizes) * 0.01
    inserts = []
    for i in range(cfg["mutate_batch"]):
        center = Vec3(
            float(rng.uniform(world.min_x, world.max_x)),
            float(rng.uniform(world.min_y, world.max_y)),
            float(rng.uniform(world.min_z, world.max_z)),
        )
        inserts.append(
            Insert(BoxObject(uid=base_uid + i, box=AABB.from_center_extent(center, size)))
        )
    deletes = [Delete(base_uid + i) for i in range(cfg["mutate_batch"])]
    return engine, inserts, deletes


def _run_ingest(state: Any) -> int:
    # Insert a batch through the warm indexes, then delete it again, so
    # every repeat starts from the same dataset.  Units = mutations applied.
    engine, inserts, deletes = state
    engine.apply_many(inserts)
    engine.apply_many(deletes)
    return len(inserts) + len(deletes)


def _read_write_workload() -> _Workload:
    """Mixed live traffic through the :class:`ShardedEngine` write path.

    Replays a seeded read-write stream (range/knn reads interleaved with
    insert/delete/move writes, each write published as one epoch) and then
    applies the compensating batch that restores the initial dataset, so
    repeats are identical.  Wall time covers reads, epoch publication
    (in-place shard applies) and the restore batch.
    """

    def setup(cfg: dict[str, Any]) -> Any:
        from repro.experiments.datasets import circuit_dataset
        from repro.service import ShardedEngine
        from repro.workloads.traffic import read_write_workload

        circuit = circuit_dataset(n_neurons=cfg["rw_neurons"])
        segments = circuit.segments()
        ops = read_write_workload(
            segments,
            cfg["rw_ops"],
            write_fraction=cfg["rw_write_fraction"],
            extent=cfg["service_extent"],
            seed=2013,
        )
        service = ShardedEngine.from_circuit(
            circuit,
            num_shards=cfg["service_shards"],
            page_capacity=cfg["page_capacity"],
            max_queued=cfg["rw_ops"] + 8,
        )
        originals = {o.uid: o for o in segments}
        return service, ops, originals

    def run(state: Any) -> int:
        from repro.engine.mutations import Delete, Insert, Move

        service, ops, originals = state
        current = dict(originals)
        for op in ops:
            if isinstance(op, (Insert, Delete, Move)):
                service.apply(op)
                if isinstance(op, Insert):
                    current[op.obj.uid] = op.obj
                elif isinstance(op, Delete):
                    del current[op.uid]
                else:
                    current[op.uid] = op.obj
            else:
                service.execute(op)
        restore: list[Any] = [Delete(uid) for uid in current if uid not in originals]
        for uid, obj in originals.items():
            if uid not in current:
                restore.append(Insert(obj))
            elif current[uid] is not obj:
                restore.append(Move(uid, obj))
        if restore:
            service.apply_many(restore)
        return len(ops) + len(restore)

    def teardown(state: Any) -> None:
        service, _, _ = state
        service.close()

    return _Workload(
        name="mutate.read_write_mix",
        unit="ops served",
        setup=setup,
        run=run,
        teardown=teardown,
    )


def _durability_batches(
    n_batches: int, batch_size: int, first_uid: int, seed: int
) -> list[list[Any]]:
    """Seeded insert batches — the write stream both durability benches log."""
    from repro.engine.mutations import Insert
    from repro.geometry.aabb import AABB
    from repro.objects import BoxObject
    from repro.utils.rng import make_rng

    rng = make_rng(seed)
    batches: list[list[Any]] = []
    uid = first_uid
    for _ in range(n_batches):
        batch = []
        for _ in range(batch_size):
            center = (
                float(rng.uniform(-500, 500)),
                float(rng.uniform(-500, 500)),
                float(rng.uniform(-500, 500)),
            )
            batch.append(
                Insert(BoxObject(uid=uid, box=AABB.from_center_extent(center, 4.0)))
            )
            uid += 1
        batches.append(batch)
    return batches


def _wal_workload() -> _Workload:
    """Group-commit append throughput of the write-ahead log.

    Each run appends the same seeded insert batches through an open
    :class:`~repro.durability.WriteAheadLog` (group-commit window of 8
    batches, small segments so rotation is exercised) and force-flushes at
    the end, so every timed run performs identical encode+write work.
    """

    def setup(cfg: dict[str, Any]) -> Any:
        import tempfile
        from pathlib import Path

        from repro.durability.wal import WriteAheadLog

        batches = _durability_batches(
            cfg["wal_batches"], cfg["wal_batch_size"], first_uid=0, seed=2013
        )
        tmpdir = Path(tempfile.mkdtemp(prefix="repro_wal_bench_"))
        wal = WriteAheadLog(
            tmpdir, flush_batches=8, segment_bytes=256 * 1024
        )
        return wal, batches, tmpdir

    def run(state: Any) -> int:
        wal, batches, _tmpdir = state
        for batch in batches:
            wal.append(batch)
        wal.flush()
        return sum(len(batch) for batch in batches)

    def teardown(state: Any) -> None:
        import shutil

        wal, _batches, tmpdir = state
        wal.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    return _Workload(
        name="wal.append_throughput",
        unit="mutations logged",
        setup=setup,
        run=run,
        teardown=teardown,
    )


def _recover_workload() -> _Workload:
    """WAL-suffix replay cost of crash recovery.

    Setup builds one crash directory — a base checkpoint plus a durable
    WAL of seeded insert batches, abandoned without a clean shutdown —
    and every timed run recovers a fresh engine from it.  The measured
    quantity is :attr:`~repro.durability.Recovery.replay_ms`, the
    batch-by-batch ``apply_many`` replay the subsystem adds on top of the
    checkpoint load.
    """
    replay_holder: dict[int, float] = {}

    def setup(cfg: dict[str, Any]) -> Any:
        import tempfile
        from pathlib import Path

        from repro.api import create as create_engine
        from repro.geometry.aabb import AABB
        from repro.objects import BoxObject
        from repro.utils.rng import make_rng

        rng = make_rng(41)
        objects = []
        for uid in range(cfg["recover_objects"]):
            center = (
                float(rng.uniform(-500, 500)),
                float(rng.uniform(-500, 500)),
                float(rng.uniform(-500, 500)),
            )
            objects.append(BoxObject(uid=uid, box=AABB.from_center_extent(center, 4.0)))
        tmpdir = Path(tempfile.mkdtemp(prefix="repro_recover_bench_"))
        durable = create_engine(objects, tmpdir, wal_kwargs={"flush_batches": 8})
        batches = _durability_batches(
            cfg["recover_batches"],
            cfg["recover_batch_size"],
            first_uid=cfg["recover_objects"],
            seed=97,
        )
        for batch in batches:
            durable.apply_many(batch)
        durable.close()  # flushed WAL + epoch-0 checkpoint = the crash dir
        return tmpdir

    def run(state: Any) -> int:
        from repro.durability.recovery import recover_engine

        recovery = recover_engine(state)
        replay_holder[id(state)] = recovery.replay_ms
        return recovery.mutations_replayed

    def measured(state: Any, _units: int) -> float:
        return replay_holder[id(state)]

    def teardown(state: Any) -> None:
        import shutil

        shutil.rmtree(state, ignore_errors=True)

    return _Workload(
        name="recover.replay_ms",
        unit="mutations replayed",
        setup=setup,
        run=run,
        measured_ms=measured,
        teardown=teardown,
    )


def _catalog_workload() -> _Workload:
    """End-to-end cost of a cross-dataset join through the catalog.

    Setup builds one catalog with two tagged datasets of seeded random
    boxes; every timed run resolves both tags, opens the two roots
    read-only at their pinned epochs, and executes the spatial join —
    the full ``Catalog.join`` path a `repro query --dataset A@v1
    --against B@v1` pays, including the checkpoint loads.

    The strategy is pinned to plane-sweep: the planner's TOUCH default
    issues one tiny kernel call per reached leaf per probe, where fixed
    per-call overhead (not kernel math) dominates at bench scale —
    pinning keeps the A/B backend comparison about the vectorized
    filter path and the run-to-run numbers about catalog overhead.
    """

    def setup(cfg: dict[str, Any]) -> Any:
        import tempfile
        from pathlib import Path

        from repro.catalog import Catalog
        from repro.geometry.aabb import AABB
        from repro.objects import BoxObject
        from repro.utils.rng import make_rng

        def random_boxes(seed: int, first_uid: int) -> list[Any]:
            rng = make_rng(seed)
            boxes = []
            for i in range(cfg["catalog_objects"]):
                center = (
                    float(rng.uniform(-200, 200)),
                    float(rng.uniform(-200, 200)),
                    float(rng.uniform(-200, 200)),
                )
                boxes.append(
                    BoxObject(uid=first_uid + i, box=AABB.from_center_extent(center, 4.0))
                )
            return boxes

        tmpdir = Path(tempfile.mkdtemp(prefix="repro_catalog_bench_"))
        catalog = Catalog(tmpdir)
        catalog.create("circuit", random_boxes(23, 1)).close()
        catalog.tag("circuit", "v1")
        catalog.create("atlas", random_boxes(29, 1_000_000)).close()
        catalog.tag("atlas", "v1")
        return {"root": tmpdir, "eps": cfg["catalog_eps"]}

    def run(state: Any) -> int:
        from repro.catalog import Catalog

        catalog = Catalog(state["root"], create=False)
        result = catalog.join(
            "circuit@v1", "atlas@v1", eps=state["eps"], strategy="plane-sweep"
        )
        return len(result.pairs)

    def teardown(state: Any) -> None:
        import shutil

        shutil.rmtree(state["root"], ignore_errors=True)

    return _Workload(
        name="catalog.cross_join_ms",
        unit="join pairs",
        setup=setup,
        run=run,
        teardown=teardown,
    )


def _trace_overhead_workload() -> _Workload:
    """Disabled-path cost of the span plumbing on the flat range-scan path.

    Every ``engine.execute`` crosses the ``trace.span`` site; with no trace
    open that is one ContextVar read returning a shared no-op.  Each run
    times the identical query batch twice — once with ``trace.span``
    stubbed out entirely (no instrumentation at all), once through the
    real disabled path — and reports the overhead as a *percentage*
    (clamped at zero), which ``test_bench.py`` gates below 5%.
    """
    pct_holder: dict[int, float] = {}

    def setup(cfg: dict[str, Any]) -> Any:
        from repro.engine.engine import SpatialEngine
        from repro.engine.queries import RangeQuery
        from repro.experiments.datasets import circuit_dataset
        from repro.workloads.ranges import density_stratified_queries

        circuit = circuit_dataset(n_neurons=cfg["n_neurons"])
        engine = SpatialEngine.from_circuit(
            circuit, page_capacity=cfg["page_capacity"]
        )
        queries = [
            RangeQuery(box, strategy="flat")
            for box in density_stratified_queries(
                circuit.segments(), cfg["n_queries"], cfg["extent"], dense=True, seed=2013
            )
        ]
        for query in queries:
            engine.execute(query)  # warm the per-partition packs
        return engine, queries

    def run(state: Any) -> int:
        from repro.obs import trace as trace_mod

        engine, queries = state
        noop = trace_mod._NOOP
        real_span = trace_mod.span

        def stub_span(name: str, **attrs: Any) -> Any:
            return noop

        trace_mod.span = stub_span
        try:
            start = time.perf_counter()
            for query in queries:
                engine.execute(query)
            stubbed_ms = (time.perf_counter() - start) * 1000.0
        finally:
            trace_mod.span = real_span
        start = time.perf_counter()
        for query in queries:
            engine.execute(query)
        real_ms = (time.perf_counter() - start) * 1000.0
        pct = 0.0
        if stubbed_ms > 0.0:
            pct = max(0.0, (real_ms - stubbed_ms) / stubbed_ms * 100.0)
        pct_holder[id(state)] = pct
        return len(queries) * 2

    def measured(state: Any, _units: int) -> float:
        return pct_holder[id(state)]

    return _Workload(
        name="obs.trace_overhead_pct",
        unit="queries timed",
        setup=setup,
        run=run,
        measured_ms=measured,
    )


def _sweep_probe_workload() -> _Workload:
    """join.filter times only the probe (filter + refine) phase of the sweep:
    sorting and packing are identical build work in both modes."""
    probe_ms_holder: dict[int, float] = {}

    def run(state: Any) -> int:
        comparisons, probe_ms = _run_sweep_filter(state)
        probe_ms_holder[id(state)] = probe_ms
        return comparisons

    def measured(state: Any, _units: int) -> float:
        return probe_ms_holder[id(state)]

    return _Workload(
        name="join.filter",
        unit="mbr comparisons",
        setup=_join_state,
        run=run,
        measured_ms=measured,
    )


def _serve_roundtrip_workload() -> _Workload:
    """Wire cost of one query through ``repro serve``, end to end.

    Setup boots an in-process server (daemon thread, ephemeral port) over
    a sharded service and connects one blocking client; each run issues
    the same seeded range windows sequentially and reports the *mean*
    roundtrip — encode, TCP, admission, execute, payload encode, decode —
    in milliseconds per request.
    """
    mean_ms_holder: dict[int, float] = {}

    def setup(cfg: dict[str, Any]) -> Any:
        from repro.engine.queries import RangeQuery
        from repro.geometry.aabb import AABB
        from repro.server import Client, serve_in_background
        from repro.service.sharded import ShardedEngine
        from repro.utils.rng import make_rng

        service = ShardedEngine.generate(
            n_neurons=cfg["serve_neurons"], seed=17, num_shards=cfg["service_shards"]
        )
        handle = serve_in_background(service)
        client = Client(handle.host, handle.port)
        client.hello(name="bench")
        rng = make_rng(2024)
        extent = cfg["service_extent"]
        queries = []
        for _ in range(cfg["serve_queries"]):
            center = (
                float(rng.uniform(-300, 300)),
                float(rng.uniform(-300, 300)),
                float(rng.uniform(-300, 300)),
            )
            queries.append(RangeQuery(AABB.from_center_extent(center, extent)))
        return handle, client, queries

    def run(state: Any) -> int:
        import time as _time

        _handle, client, queries = state
        start = _time.perf_counter()
        for query in queries:
            client.query(query)
        total_ms = (_time.perf_counter() - start) * 1000.0
        mean_ms_holder[id(state)] = total_ms / len(queries)
        return len(queries)

    def measured(state: Any, _units: int) -> float:
        return mean_ms_holder[id(state)]

    def teardown(state: Any) -> None:
        handle, client, _queries = state
        client.close()
        handle.stop()

    return _Workload(
        name="serve.request_roundtrip_ms",
        unit="requests",
        setup=setup,
        run=run,
        measured_ms=measured,
        teardown=teardown,
    )


def _serve_catchup_workload() -> _Workload:
    """WAL-shipping drain rate: how fast a lagging follower reaches the tip.

    Setup boots a primary server once.  Each run bootstraps a fresh
    follower (snapshot at the current epoch), applies a seeded backlog of
    insert batches to the primary — queueing them on the follower's
    subscription — then starts the tail and times the drain until the
    follower's epoch reaches the primary's.  Fresh uids every run keep
    runs identical in shape and repeatable on one primary.
    """
    drain_ms_holder: dict[int, float] = {}

    def setup(cfg: dict[str, Any]) -> Any:
        from repro.server import serve_in_background
        from repro.service.sharded import ShardedEngine

        service = ShardedEngine.generate(
            n_neurons=cfg["serve_neurons"], seed=23, num_shards=cfg["service_shards"]
        )
        handle = serve_in_background(service)
        uid_counter = [10_000_000]
        return handle, service, uid_counter, cfg["catchup_batches"], cfg["catchup_batch_size"]

    def run(state: Any) -> int:
        import time as _time

        from repro.engine.mutations import Insert
        from repro.geometry.aabb import AABB
        from repro.objects import BoxObject
        from repro.server import bootstrap_replica
        from repro.utils.rng import make_rng

        handle, primary, uid_counter, n_batches, batch_size = state
        replica, tail = bootstrap_replica(handle.host, handle.port)
        rng = make_rng(uid_counter[0])
        shipped = 0
        try:
            # The backlog lands on the follower's subscription queue
            # while its tail is not yet draining: a lagging replica.
            for _ in range(n_batches):
                batch = []
                for _ in range(batch_size):
                    uid = uid_counter[0]
                    uid_counter[0] += 1
                    center = (
                        float(rng.uniform(-400, 400)),
                        float(rng.uniform(-400, 400)),
                        float(rng.uniform(-400, 400)),
                    )
                    batch.append(
                        BoxObject(uid=uid, box=AABB.from_center_extent(center, 3.0))
                    )
                primary.apply_many([Insert(obj) for obj in batch])
                shipped += len(batch)
            target = primary.epoch
            start = _time.perf_counter()
            tail.start()
            while replica.epoch < target:
                if tail.error is not None:
                    raise RuntimeError(f"replica tail failed: {tail.error}")
                _time.sleep(0.0005)
            drain_ms_holder[id(state)] = (_time.perf_counter() - start) * 1000.0
        finally:
            tail.stop()
            replica.close()
        return shipped

    def measured(state: Any, _units: int) -> float:
        return drain_ms_holder[id(state)]

    def teardown(state: Any) -> None:
        handle = state[0]
        handle.stop()

    return _Workload(
        name="serve.replica_catchup_ms",
        unit="mutations shipped",
        setup=setup,
        run=run,
        measured_ms=measured,
        teardown=teardown,
        min_repeats=12,  # socket scheduling noise needs more samples
    )


def _workloads() -> list[_Workload]:
    return [
        _Workload("kernel.box_intersects", "box tests", _micro_boxes, _run_box_intersects),
        _Workload("kernel.point_box_distance", "distances", _micro_boxes, _run_point_distance),
        _Workload("kernel.capsule_filter", "capsule pairs", _micro_segments, _run_capsule_filter),
        _Workload("kernel.hilbert_keys", "keys", _micro_coords, _run_hilbert),
        _Workload("flat.range_scan", "objects scanned", _flat_state, _run_flat_range),
        _Workload("flat.knn", "objects scanned", _flat_state, _run_flat_knn),
        _Workload("rtree.range", "entries tested", _rtree_state, _run_rtree_range),
        _sweep_probe_workload(),
        _Workload("join.touch", "mbr comparisons", _join_state, _run_touch),
        _Workload("join.pbsm", "mbr comparisons", _join_state, _run_pbsm),
        _service_workload("one"),
        _service_workload("sharded"),
        _executor_service_workload("thread"),
        _executor_service_workload("process"),
        _Workload("mutate.ingest_throughput", "mutations applied", _mutation_state, _run_ingest),
        _read_write_workload(),
        _wal_workload(),
        _recover_workload(),
        _serve_roundtrip_workload(),
        _serve_catchup_workload(),
        _catalog_workload(),
        _trace_overhead_workload(),
    ]


# -- the runner ----------------------------------------------------------------
def measure_calibration(repeats: int = 5) -> float:
    """Wall time (ms) of a fixed pure-Python spin — the machine-speed probe.

    The regression gate compares *normalised* times (workload wall divided
    by this calibration) so a slower CI runner or a busy host does not read
    as a code regression.  Same-machine comparisons are unaffected: the
    factor cancels.
    """
    def spin() -> float:
        acc = 0.0
        for i in range(250000):
            acc += (i & 7) * 0.5 - (i & 3) * 0.25
        return acc

    spin()  # warm
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    best = float("inf")
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            spin()
            best = min(best, (time.perf_counter() - start) * 1000.0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


#: Keep repeating a workload until at least this much timed signal has
#: accumulated — sub-millisecond runs are pure scheduler jitter otherwise.
_MIN_TIMED_MS = 150.0
#: Hard ceiling on adaptive repeats so a microsecond workload terminates.
_MAX_REPEATS = 60


def _time_workload_interleaved(
    workload: _Workload, cfg: dict[str, Any], modes: Sequence[str]
) -> dict[str, WorkloadResult]:
    """Time one workload under several backends with interleaved repeats.

    Sequential per-mode timing bakes slow machine drift (thermal state,
    background load) into whichever mode runs second; on a busy runner the
    drift routinely exceeds the backend delta being measured.  Alternating
    single repeats (A/B/A/B) exposes both modes to the same drift, so the
    best-of mins stay comparable.  Each mode keeps its own state, built and
    run entirely under its backend.
    """
    states: dict[str, Any] = {}
    units: dict[str, int] = {}
    best: dict[str, float] = {}
    wall_total: dict[str, float] = {}
    done: dict[str, int] = {}
    repeats = max(cfg["repeats"], workload.min_repeats or 0)

    def finished(mode: str) -> bool:
        return done[mode] >= repeats and (
            wall_total[mode] >= _MIN_TIMED_MS or done[mode] >= _MAX_REPEATS
        )

    try:
        for mode in modes:
            with kernels.use_backend(mode):
                states[mode] = workload.setup(cfg)
                units[mode] = workload.run(states[mode])  # warmup
            best[mode] = float("inf")
            wall_total[mode] = 0.0
            done[mode] = 0
        # Best-of-N with the collector paused: the quantity of interest is
        # the algorithmic cost, not allocator noise or a mid-run GC cycle.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while not all(finished(mode) for mode in modes):
                # Every mode runs each round — a mode that met its budget
                # keeps pacing the others so the interleaving never breaks.
                for mode in modes:
                    state = states[mode]
                    with kernels.use_backend(mode):
                        start = time.perf_counter()
                        run_units = workload.run(state)
                        wall_ms = (time.perf_counter() - start) * 1000.0
                    elapsed_ms = wall_ms
                    if workload.measured_ms is not None:
                        elapsed_ms = workload.measured_ms(state, run_units)
                    units[mode] = run_units
                    best[mode] = min(best[mode], elapsed_ms)
                    wall_total[mode] += wall_ms
                    done[mode] += 1
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        if workload.teardown is not None:
            for state in states.values():
                workload.teardown(state)
    return {
        mode: WorkloadResult(
            name=workload.name,
            mode=mode,
            wall_ms=best[mode],
            units=units[mode],
            unit=workload.unit,
            repeats=done[mode],
        )
        for mode in modes
    }


def run_suite(
    smoke: bool = True,
    modes: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
    only: str | None = None,
) -> tuple[dict[str, Any], list[WorkloadResult]]:
    """Run every workload under every requested backend mode.

    Returns ``(config, results)``; vectorised entries carry their speedup
    over the scalar fallback when both modes ran.  ``only`` restricts the
    run to workloads whose name starts with the given prefix (e.g.
    ``"mutate."``).
    """
    cfg = _smoke_config() if smoke else _full_config()
    if modes is None:
        modes = list(kernels.available_backends())
    selected = _workloads()
    if only is not None:
        selected = [w for w in selected if w.name.startswith(only)]
        if not selected:
            raise ValueError(f"no benchmark workload matches prefix {only!r}")
    results: list[WorkloadResult] = []
    for workload in selected:
        by_mode = _time_workload_interleaved(workload, cfg, modes)
        for result in by_mode.values():
            results.append(result)
            if progress is not None:
                progress(
                    f"  {result.name} [{result.mode}]: {result.wall_ms:.2f} ms "
                    f"({result.units_per_sec:,.0f} {result.unit}/s)"
                )
        fallback = by_mode.get("python")
        for mode, result in by_mode.items():
            if mode != "python" and fallback is not None and result.wall_ms > 0:
                result.speedup_vs_fallback = _speedup(fallback.wall_ms, result.wall_ms)
    return cfg, results


#: Mode deltas below this fraction of the scalar wall (or below
#: MIN_REGRESSION_MS in absolute terms) are measurement noise, not a
#: backend win or loss; the speedup reports them as exact parity.  This
#: matters for workloads whose measured phase has no kernel work at all
#: (WAL appends, pure-column ingest, socket round-trips): their true ratio
#: is 1.0 and anything else is scheduler jitter.
SPEEDUP_NOISE_FRACTION = 0.05


def _speedup(fallback_wall_ms: float, wall_ms: float) -> float:
    floor = max(MIN_REGRESSION_MS, SPEEDUP_NOISE_FRACTION * fallback_wall_ms)
    if abs(fallback_wall_ms - wall_ms) <= floor:
        return 1.0
    return fallback_wall_ms / wall_ms


def sharded_speedup(
    results: Sequence[WorkloadResult] | Sequence[dict[str, Any]],
    mode: str | None = None,
) -> float | None:
    """Modelled sharded/1-shard range-scan speedup from a result set.

    Accepts live :class:`WorkloadResult` lists or the ``workloads`` array
    of a report JSON; ``mode`` defaults to the active kernel backend.
    """
    mode = mode if mode is not None else kernels.active_backend()
    walls: dict[str, float] = {}
    for entry in results:
        record = entry.as_json() if isinstance(entry, WorkloadResult) else entry
        if record["mode"] == mode:
            walls[record["name"]] = float(record["wall_ms"])
    single = walls.get("service.range_scan_1shard")
    sharded = walls.get("service.range_scan_sharded")
    if not single or not sharded or sharded <= 0.0:
        return None
    return single / sharded


def procpool_speedup(
    results: Sequence[WorkloadResult] | Sequence[dict[str, Any]],
    mode: str | None = None,
) -> float | None:
    """Modelled process-pool/GIL-bound range-scan speedup from a result set.

    The ratio of the thread mode's serialised per-shard CPU sum to the
    process mode's CPU makespan (see :func:`_executor_service_workload`);
    ``mode`` defaults to the active kernel backend.
    """
    mode = mode if mode is not None else kernels.active_backend()
    walls: dict[str, float] = {}
    for entry in results:
        record = entry.as_json() if isinstance(entry, WorkloadResult) else entry
        if record["mode"] == mode:
            walls[record["name"]] = float(record["wall_ms"])
    gilbound = walls.get("service.range_scan_gilbound")
    procpool = walls.get("service.range_scan_procpool")
    if not gilbound or not procpool or procpool <= 0.0:
        return None
    return gilbound / procpool


def results_to_json(
    cfg: dict[str, Any],
    results: Sequence[WorkloadResult],
    calibration_ms: float | None = None,
) -> dict[str, Any]:
    speedup = sharded_speedup(results)
    gil_escape = procpool_speedup(results)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": cfg["suite"],
        "default_backend": kernels.active_backend(),
        "available_backends": list(kernels.available_backends()),
        "calibration_ms": (
            round(measure_calibration(), 4) if calibration_ms is None else calibration_ms
        ),
        "config": {k: v for k, v in cfg.items() if k != "suite"},
        "service": {
            "shards": cfg.get("service_shards"),
            "sharded_range_speedup": None if speedup is None else round(speedup, 3),
            "procpool_range_speedup": (
                None if gil_escape is None else round(gil_escape, 3)
            ),
        },
        "workloads": [r.as_json() for r in results],
    }


#: Ignore regressions smaller than this many milliseconds in absolute terms;
#: at that scale, scheduler jitter swamps any real signal.
MIN_REGRESSION_MS = 2.0


def compare_to_baseline(
    report: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.30,
) -> list[Regression]:
    """Workloads slower than ``baseline`` by more than ``max_regression``.

    Entries are matched on (name, mode); workloads absent from the baseline
    (newly added) are ignored, as are baselines from another suite size or
    schema version.  When both reports carry a ``calibration_ms`` probe the
    baseline walls are rescaled by the machine-speed ratio first, so the
    gate measures the code, not the runner.
    """
    if baseline.get("schema_version") != report.get("schema_version"):
        return []
    if baseline.get("suite") != report.get("suite"):
        return []
    scale = 1.0
    report_cal = report.get("calibration_ms")
    baseline_cal = baseline.get("calibration_ms")
    if report_cal and baseline_cal and float(baseline_cal) > 0.0:
        scale = float(report_cal) / float(baseline_cal)
    baseline_walls = {
        (w["name"], w["mode"]): float(w["wall_ms"]) for w in baseline.get("workloads", [])
    }
    regressions: list[Regression] = []
    for entry in report.get("workloads", []):
        key = (entry["name"], entry["mode"])
        baseline_wall = baseline_walls.get(key)
        if baseline_wall is None or baseline_wall <= 0.0:
            continue
        rescaled = baseline_wall * scale
        wall = float(entry["wall_ms"])
        if wall > rescaled * (1.0 + max_regression) and wall - rescaled > MIN_REGRESSION_MS:
            regressions.append(
                Regression(
                    name=entry["name"],
                    mode=entry["mode"],
                    wall_ms=wall,
                    baseline_wall_ms=rescaled,
                )
            )
    return regressions


def headline_speedups(report: dict[str, Any]) -> dict[str, float | None]:
    """The speedups backing the PR claim, keyed by workload name."""
    out: dict[str, float | None] = {name: None for name in HEADLINE_WORKLOADS}
    for entry in report.get("workloads", []):
        if entry["name"] in out and entry.get("speedup_vs_fallback") is not None:
            out[entry["name"]] = float(entry["speedup_vs_fallback"])
    return out


# -- CLI -----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the repro benchmark suite and emit a BENCH JSON artifact.",
    )
    parser.add_argument("--smoke", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--json", type=str, default="BENCH_PR2.json", metavar="PATH",
        help="where to write the JSON report (default: BENCH_PR2.json)",
    )
    parser.add_argument(
        "--baseline", type=str, default=None, metavar="PATH",
        help="compare against this baseline JSON; exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30, metavar="FRACTION",
        help="allowed slowdown vs the baseline (default 0.30 = 30%%)",
    )
    parser.add_argument(
        "--modes", type=str, default=None, metavar="CSV",
        help="kernel backends to measure (default: all available)",
    )
    parser.add_argument(
        "--only", type=str, default=None, metavar="PREFIX",
        help="run only workloads whose name starts with PREFIX (e.g. 'mutate.')",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    modes = args.modes.split(",") if args.modes else None
    suite = "smoke" if args.smoke else "full"
    backends = modes or list(kernels.available_backends())
    scope = f", only {args.only}*" if args.only else ""
    print(f"running {suite} benchmark suite (backends: {backends}{scope})")
    try:
        cfg, results = run_suite(
            smoke=args.smoke, modes=modes, progress=print, only=args.only
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    report = results_to_json(cfg, results)

    path = Path(args.json)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {path}")

    for name, speedup in headline_speedups(report).items():
        if speedup is not None:
            print(f"  {name}: {speedup:.2f}x vs scalar fallback")
    service_speedup = report.get("service", {}).get("sharded_range_speedup")
    if service_speedup is not None:
        shards = report.get("service", {}).get("shards")
        print(
            f"  service.range_scan: {service_speedup:.2f}x modelled throughput "
            f"with {shards} shards vs 1 shard"
        )
    gil_escape = report.get("service", {}).get("procpool_range_speedup")
    if gil_escape is not None:
        shards = report.get("service", {}).get("shards")
        print(
            f"  service.procpool: {gil_escape:.2f}x modelled GIL-escape "
            f"with {shards} process workers vs one interpreter"
        )

    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found; skipping regression check")
            return 0
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        regressions = compare_to_baseline(report, baseline, args.max_regression)
        if regressions:
            print(f"PERFORMANCE REGRESSION (> {args.max_regression:.0%} over baseline):")
            for regression in regressions:
                print(f"  {regression.describe()}")
            return 1
        print(f"no regression vs {baseline_path} (threshold {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
