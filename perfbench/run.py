"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Tables and the run record are printed above it.  The program
is imported from ``src/`` of the checkout this file sits in; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore", "ingest", "analyze")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny dataset and sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.environ["REPRO_KERNELS"] = "numpy"  # pinned: both sides of a comparison match
    # One CPU for the whole process, set before any thread starts so every
    # thread inherits it: client, server and shard threads hand off on one
    # run queue instead of waking another vCPU through the hypervisor.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import report, workloads
    from perfbench.tracer import Tracer, instrument

    tracer = instrument(Tracer()) if args.trace else None
    sizes = workloads.Sizes.toy() if args.toy else workloads.Sizes()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ticks = report.host_ticks()
    try:
        run = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, workdir, sizes
        )
        ticks = tuple(now - then for now, then in zip(report.host_ticks(), ticks))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(report.latency_table(run).render())
    print(report.metrics_table(report.kind_metrics(run), f"{args.workload}: per-kind").render())
    if args.trace:
        budget = report.Budget(run, tracer)
        for kind in sorted({op.kind for op in run.ops + run.extra_ops if op.traced}):
            print(budget.table(kind).render())
        metrics = budget.metrics(run, report.overhead_pct(run))
        units = report.LAYER_UNITS
        title = f"{args.workload}: per-layer metrics (traced blocks)"
    else:
        metrics = report.end_to_end(run)
        units = report.END_TO_END_UNITS
        title = f"{args.workload}: end-to-end metrics"
    print(report.metrics_table({k: (v, units[k]) for k, v in metrics.items()}, title).render())
    failed = len(run.failures)
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({"run_record": report.run_record(
        run, ROOT, args.seed, args.seconds, bool(args.trace), ticks)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.checked,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
