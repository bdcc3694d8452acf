"""Kernel and index microbenchmarks: NumPy backend vs the scalar fallback.

This module is the library behind the ``repro bench`` CLI subcommand.  It
times what no other harness measures on its own — the four batch kernels
and the FLAT, R-tree and join hot loops they serve — under every available
kernel backend, and emits one schema-versioned JSON artifact
(``BENCH_PR2.json`` by default) per run:

* per workload and backend mode: best-of-N wall time, work units processed
  and units/second,
* for every vectorised entry: its speedup over the scalar fallback on the
  identical workload,
* suite metadata (smoke vs full sizes, schema version, default backend).

CI runs the smoke suite on every push, uploads the JSON as an artifact and
fails when any workload regresses more than ``--max-regression`` (default
30%) against the committed ``benchmarks/baseline.json`` — so a performance
regression breaks the build exactly like a correctness regression.

System-level numbers (wire reads, write batches, recovery, the sharded
service) come from ``perfbench/run.py`` on a CPU clock; the paper's
FLAT/SCOUT/TOUCH claims come from ``repro claims`` and ``repro report``.
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
from repro.errors import GeometryError

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadResult",
    "Regression",
    "run_suite",
    "results_to_json",
    "compare_to_baseline",
    "build_parser",
    "main",
    "run_from_args",
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
    """One baseline workload that got slower than allowed, or did not run."""

    name: str
    mode: str
    wall_ms: float | None  # None: the report has no entry for the workload
    baseline_wall_ms: float

    @property
    def ratio(self) -> float:
        if self.wall_ms is None:
            return float("inf")
        return self.wall_ms / self.baseline_wall_ms

    def describe(self) -> str:
        if self.wall_ms is None:
            return (
                f"{self.name} [{self.mode}]: missing from the report "
                f"(baseline {self.baseline_wall_ms:.2f} ms)"
            )
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
    repeats = cfg["repeats"]

    def finished(mode: str) -> bool:
        return done[mode] >= repeats and (
            wall_total[mode] >= _MIN_TIMED_MS or done[mode] >= _MAX_REPEATS
        )

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
) -> tuple[dict[str, Any], list[WorkloadResult]]:
    """Run every workload under every requested backend mode.

    Returns ``(config, results)``; vectorised entries carry their speedup
    over the scalar fallback when both modes ran.
    """
    cfg = _smoke_config() if smoke else _full_config()
    if modes is None:
        modes = list(kernels.available_backends())
    results: list[WorkloadResult] = []
    for workload in _workloads():
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
#: backend win or loss; the speedup reports them as exact parity, so
#: scheduler jitter on a short workload never reads as a backend loss.
SPEEDUP_NOISE_FRACTION = 0.05


def _speedup(fallback_wall_ms: float, wall_ms: float) -> float:
    floor = max(MIN_REGRESSION_MS, SPEEDUP_NOISE_FRACTION * fallback_wall_ms)
    if abs(fallback_wall_ms - wall_ms) <= floor:
        return 1.0
    return fallback_wall_ms / wall_ms


def results_to_json(
    cfg: dict[str, Any],
    results: Sequence[WorkloadResult],
    calibration_ms: float | None = None,
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": cfg["suite"],
        "default_backend": kernels.active_backend(),
        "available_backends": list(kernels.available_backends()),
        "calibration_ms": (
            round(measure_calibration(), 4) if calibration_ms is None else calibration_ms
        ),
        "config": {k: v for k, v in cfg.items() if k != "suite"},
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

    Entries are matched on (name, mode).  A baseline workload the report
    lacks, under a mode the report ran, is a regression too: a deleted or
    renamed workload must not drop out of the gate unnoticed.  Workloads
    absent from the baseline (newly added) are ignored, as are baselines
    from another suite size or schema version.  When both reports carry a
    ``calibration_ms`` probe the baseline walls are rescaled by the
    machine-speed ratio first, so the gate measures the code, not the
    runner.
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
    report_walls = {
        (w["name"], w["mode"]): float(w["wall_ms"]) for w in report.get("workloads", [])
    }
    modes_run = {mode for _, mode in report_walls}
    regressions: list[Regression] = []
    for entry in baseline.get("workloads", []):
        name, mode = entry["name"], entry["mode"]
        if mode not in modes_run:
            continue
        rescaled = float(entry["wall_ms"]) * scale
        wall = report_walls.get((name, mode))
        if wall is None:
            regressions.append(Regression(name, mode, None, rescaled))
        elif (
            rescaled > 0.0
            and wall > rescaled * (1.0 + max_regression)
            and wall - rescaled > MIN_REGRESSION_MS
        ):
            regressions.append(Regression(name, mode, wall, rescaled))
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
        description="Time the kernel and index microbenchmarks under each kernel "
        "backend and emit a BENCH JSON artifact.",
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
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


def run_from_args(args: argparse.Namespace) -> int:
    """Run the suite for parsed :func:`build_parser` flags; the exit code."""
    modes = args.modes.split(",") if args.modes else None
    unknown = [mode for mode in modes or () if mode not in kernels.available_backends()]
    if unknown:
        raise GeometryError(
            f"unknown kernel backend(s) {unknown}; choose from "
            f"{list(kernels.available_backends())}"
        )
    suite = "smoke" if args.smoke else "full"
    backends = modes or list(kernels.available_backends())
    print(f"running {suite} benchmark suite (backends: {backends})")
    cfg, results = run_suite(smoke=args.smoke, modes=modes, progress=print)
    report = results_to_json(cfg, results)

    path = Path(args.json)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {path}")

    for name, speedup in headline_speedups(report).items():
        if speedup is not None:
            print(f"  {name}: {speedup:.2f}x vs scalar fallback")

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
