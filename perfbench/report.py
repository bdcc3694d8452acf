"""Metrics, budget tables and the run record of one workload run.

End-to-end metrics come only from untraced ops; per-layer metrics only from
the traced blocks of a ``--trace 1`` run.  Percentiles are nearest-rank, so
every reported latency is one that an op actually took.

Op latencies and set-up times are read on the process CPU clock.  The
process is pinned to one CPU, so that clock is the wall clock minus the
time the core was given to someone else: another process, or another
guest of the host (steal), which the kernel leaves out of the clock.
Wall-clock p50s are printed next to them.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

from repro.utils.tables import Table

from perfbench.tracer import KERNELS, LAYERS, Span, Tracer, link
from perfbench.workloads import BATCH, SHARDS, Op, Run

#: Per workload: (the op kind behind ``range_p95_ms``, the one behind ``heavy_p90_ms``).
ROLES = {
    "explore": ("range", "knn"),
    "ingest": ("range", "write"),
    "analyze": ("scan", "join"),
}

#: End-to-end metric -> unit.  Every workload reports every one.  Medians
#: are printed per kind but not gated: on a 2-vCPU VM that shares its host,
#: the CPU itself runs in a fast and a slow phase (a fixed loop took 40 or
#: 60 ms), and a p50 that sits between the two phases jumps from run to run
#: more than these tails and the throughput do.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "range_p95_ms": "ms",
    "heavy_p90_ms": "ms",
}


#: Per-layer metric -> unit.  Times are per call of the layer unless the
#: README says per op; every traced run reports every one (0 where a
#: workload never enters the layer).
LAYER_UNITS = {
    "server.overhead_ms": "ms",
    "protocol.codec_ms": "ms",
    "protocol.reply_bytes_per_row": "B/row",
    "service.execute_ms": "ms",
    "service.fanout_ms": "ms",
    "service.admission_wait_ms": "ms",
    "service.shards_per_query": "count",
    "service.apply_ms": "ms",
    "service.shards_rebuilt_per_batch": "count",
    "engine.execute_ms": "ms",
    "engine.plan_ms": "ms",
    "engine.plan_share": "ratio",
    "engine.index_builds": "count",
    "engine.index_build_ms": "ms",
    "flat.query_ms": "ms",
    "flat.scanned_per_result": "ratio",
    "scout.walk_ms": "ms",
    "scout.prefetch_accuracy": "ratio",
    "scout.demand_misses_per_window": "count",
    "touch.join_ms": "ms",
    "touch.comparisons_per_pair": "ratio",
    **{
        f"{prefix}.{stat}": unit
        for prefix in ("kernels",) + tuple(f"kernels.{fn}" for fn in KERNELS)
        for stat, unit in (("calls", "count"), ("ms", "ms"), ("rows_per_call", "rows"))
    },
    "wal.append_ms": "ms",
    "wal.flush_ms": "ms",
    "wal.flushes_per_batch": "count",
    "wal.bytes_per_mutation": "B",
    "recovery.replay_ms": "ms",
    "recovery.load_ms": "ms",
    "recovery.batches_replayed": "count",
    "trace.overhead_pct": "%",
    "unattributed_ms": "ms",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def latencies(ops: list[Op], wall: bool = False) -> dict[str, list[float]]:
    """Per op kind, the latencies in ms on the CPU clock (or the wall clock)."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op.ms if wall else op.cpu_ms)
    return dict(by_kind)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole VM so far, from ``/proc/stat``;
    (0, 0) where that file does not exist."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def end_to_end(run: Run) -> dict[str, float]:
    """Every end-to-end metric, from the untraced ops of ``run``."""
    ops = [op for op in run.ops if not op.traced]
    lat = latencies(ops)
    light, heavy = ROLES[run.workload]
    return {
        "setup_s": statistics.median(run.setup_s),
        # Closed loop, one client: ops over the time spent inside them, so
        # the harness's own work between ops is not charged to the program.
        "ops_per_s": len(ops) / sum(op.cpu_end - op.cpu_start for op in ops),
        "peak_rss_mb": peak_rss_mb(),
        "range_p95_ms": percentile(lat[light], 95),
        "heavy_p90_ms": percentile(lat[heavy], 90),
    }


#: Tail percentile printed per op kind: p95 where a run holds thousands of
#: samples, p90 for the slower kinds, whose runs hold about a hundred.
KIND_TAIL = {"range": 95, "knn": 95, "write": 90, "scan": 90, "walk": 90, "join": 90}


def kind_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Latency of every op kind by its own name, plus ``recover_s`` and
    ``error_rate``: printed with each run, gated only through the
    end-to-end metrics above."""
    out: dict[str, tuple[float, str]] = {}
    for kind, values in sorted(latencies([op for op in run.ops if not op.traced]).items()):
        tail = KIND_TAIL[kind]
        out[f"{kind}_p50_ms"] = (percentile(values, 50), "ms")
        out[f"{kind}_p{tail}_ms"] = (percentile(values, tail), "ms")
    if "recover_s" in run.info:
        out["recover_s"] = (run.info["recover_s"], "s")
    out["error_rate"] = (_ratio(len(run.failures), run.checked), "ratio")
    return out


# -- per-layer -------------------------------------------------------------------
def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Budget:
    """The linked span trees of a traced run, grouped for the tables."""

    def __init__(self, run: Run, tracer: Tracer) -> None:
        self.ops = [op for op in run.ops if op.traced]
        extra = [op for op in run.extra_ops if op.traced]
        self.roots = {
            op.id: tracer.root(op.id, op.kind, op.start, op.end) for op in self.ops + extra
        }
        link(tracer.spans, self.roots)
        self.kinds = {op.id: op.kind for op in self.ops + extra}
        self.timed = {op.id for op in self.ops}
        self.spans: dict[str, list[Span]] = defaultdict(list)  # timed ops only
        for span in tracer.spans:
            if span.op in self.timed:
                self.spans[span.layer].append(span)

    def table(self, kind: str) -> Table:
        """Layer, calls/op, self ms/op and share of the op's latency."""
        ids = [i for i, k in self.kinds.items() if k == kind]
        count = len(ids)
        mean_ms = _mean([self.roots[i].ms for i in ids])
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for i in ids:
            for span in _descendants(self.roots[i]):
                rows = [span.layer]
                if span.layer == "kernels":
                    rows.append(f"kernels.{span.name}")
                own = span.self_ms()
                for row in rows:
                    calls[row] += 1
                    self_ms[row] += own
        unattributed = sum(self.roots[i].self_ms() for i in ids)
        table = Table(
            ["layer", "calls/op", "self ms/op", "share"],
            title=f"{kind}: {count} traced ops, {mean_ms:.3f} ms/op",
        )
        for layer in LAYERS:
            table.add_row(_budget_row(layer, calls[layer], self_ms[layer], count, mean_ms))
            if layer == "kernels":
                for fn in KERNELS:
                    row = f"kernels.{fn}"
                    if calls[row]:
                        table.add_row(
                            _budget_row("  " + row, calls[row], self_ms[row], count, mean_ms)
                        )
        table.add_row(_budget_row("unattributed", 0, unattributed, count, mean_ms))
        return table

    def metrics(self, run: Run, overhead_pct: float) -> dict[str, float]:
        s = self.spans
        n = len(self.ops)
        main = next(iter(self.roots.values())).thread if self.roots else 0
        m: dict[str, float] = {}

        reads = [op for op in run.ops if not op.traced and op.server_ms is not None]
        m["server.overhead_ms"] = _mean([op.ms - op.server_ms for op in reads])
        m["protocol.codec_ms"] = _ratio(sum(x.ms for x in s["protocol.codec"]), n)
        read_ids = {op.id for op in self.ops if op.server_ms is not None}
        reply_bytes = sum(
            x.info for x in s["protocol.codec"]
            if x.name == "decode_frame" and x.thread == main and x.op in read_ids
        )
        rows = sum(len(op.payload) for op in self.ops if op.id in read_ids)
        m["protocol.reply_bytes_per_row"] = _ratio(reply_bytes, rows)

        executes = s["service.execute"]
        m["service.execute_ms"] = _mean([x.ms for x in executes])
        m["service.fanout_ms"] = _mean([
            x.ms - max((c.ms for c in x.children if c.layer == "engine.execute"), default=0.0)
            for x in executes
        ])
        m["service.admission_wait_ms"] = _mean([x.ms for x in s["service.admission"]])
        m["service.shards_per_query"] = _mean([
            sum(c.layer == "engine.execute" for c in x.children) for x in executes
        ])
        applies = s["service.apply"]
        m["service.apply_ms"] = _mean([
            x.ms - sum(c.ms for c in x.children if c.layer == "wal.append") for x in applies
        ])
        m["service.shards_rebuilt_per_batch"] = _mean([x.info for x in applies])

        engine_ms = sum(x.ms for x in s["engine.execute"])
        plan_ms = sum(x.ms for x in s["engine.plan"])
        m["engine.execute_ms"] = _mean([x.ms for x in s["engine.execute"]])
        m["engine.plan_ms"] = _mean([x.ms for x in s["engine.plan"]])
        m["engine.plan_share"] = _ratio(plan_ms, engine_ms)
        m["engine.index_builds"] = _ratio(len(s["engine.index_build"]), n)
        m["engine.index_build_ms"] = _ratio(sum(x.ms for x in s["engine.index_build"]), n)

        flat = s["flat"]
        m["flat.query_ms"] = _mean([x.ms for x in flat])
        m["flat.scanned_per_result"] = _ratio(
            sum(x.info[0] for x in flat), sum(x.info[1] for x in flat)
        )
        walks = s["scout"]
        m["scout.walk_ms"] = _mean([x.ms for x in walks])
        m["scout.prefetch_accuracy"] = _ratio(
            sum(x.info.prefetch_used for x in walks), sum(x.info.total_prefetched for x in walks)
        )
        m["scout.demand_misses_per_window"] = _ratio(
            sum(x.info.demand_misses for x in walks), sum(x.info.num_steps for x in walks)
        )
        joins = s["touch"]
        m["touch.join_ms"] = _mean([x.ms for x in joins])
        m["touch.comparisons_per_pair"] = _ratio(
            sum(x.info[0] for x in joins), sum(x.info[1] for x in joins)
        )

        for prefix, spans in [("kernels", s["kernels"])] + [
            (f"kernels.{fn}", [x for x in s["kernels"] if x.name == fn]) for fn in KERNELS
        ]:
            m[f"{prefix}.calls"] = _ratio(len(spans), n)
            m[f"{prefix}.ms"] = _ratio(sum(x.ms for x in spans), n)
            m[f"{prefix}.rows_per_call"] = _ratio(sum(x.info for x in spans), len(spans))

        appends = s["wal.append"]
        m["wal.append_ms"] = _mean([x.ms for x in appends])
        m["wal.flush_ms"] = _mean([x.ms for x in s["wal.flush"]])
        m["wal.flushes_per_batch"] = _ratio(sum(x.info[2] for x in appends), len(appends))
        m["wal.bytes_per_mutation"] = _ratio(
            sum(x.info[1] for x in appends), sum(x.info[0] for x in appends)
        )

        recovery = run.info.get("recovery")
        m["recovery.replay_ms"] = recovery["replay_ms"] if recovery else 0.0
        m["recovery.load_ms"] = (
            run.info["recover_s"] * 1000.0 - recovery["replay_ms"] if recovery else 0.0
        )
        m["recovery.batches_replayed"] = recovery["batches_replayed"] if recovery else 0.0

        m["trace.overhead_pct"] = overhead_pct
        m["unattributed_ms"] = _ratio(sum(self.roots[op.id].self_ms() for op in self.ops), n)
        return m


def _descendants(root: Span) -> list[Span]:
    out, todo = [], list(root.children)
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(span.children)
    return out


def _budget_row(layer: str, calls: int, self_ms: float, count: int, mean_ms: float) -> list[Any]:
    per_op = _ratio(self_ms, count)
    return [layer, round(_ratio(calls, count), 2), round(per_op, 4),
            f"{100.0 * _ratio(per_op, mean_ms):.1f}%"]


def overhead_pct(run: Run) -> float:
    """Traced vs untraced op cost, weighted by the run's own op mix.

    Both sides use every kind's mean latency, weighted by how often that
    kind ran in the whole run, so the comparison does not depend on which
    kinds happened to fall into traced blocks.
    """
    untraced = latencies([op for op in run.ops if not op.traced])
    traced = latencies([op for op in run.ops if op.traced])
    weights = {kind: len(untraced.get(kind, [])) + len(traced.get(kind, [])) for kind in untraced}
    kinds = [k for k in weights if traced.get(k)]
    base = sum(weights[k] * _mean(untraced[k]) for k in kinds)
    with_trace = sum(weights[k] * _mean(traced[k]) for k in kinds)
    return 100.0 * (_ratio(with_trace, base) - 1.0) if base else 0.0


# -- printing ---------------------------------------------------------------------
def latency_table(run: Run) -> Table:
    """Per op kind: samples, p50/p90/p95, the p50 of each half (drift) and
    the wall-clock p50."""
    ops = [op for op in run.ops if not op.traced]
    wall = latencies(ops, wall=True)
    table = Table(
        ["kind", "n", "p50 ms", "p90 ms", "p95 ms", "1st half p50", "2nd half p50",
         "wall p50 ms"],
        title=f"{run.workload}: untraced op latencies (CPU clock)",
    )
    for kind, values in sorted(latencies(ops).items()):
        half = len(values) // 2
        table.add_row([
            kind, len(values),
            round(percentile(values, 50), 4), round(percentile(values, 90), 4),
            round(percentile(values, 95), 4),
            round(percentile(values[:half], 50), 4) if half else "-",
            round(percentile(values[half:], 50), 4),
            round(percentile(wall[kind], 50), 4),
        ])
    return table


def metrics_table(metrics: dict[str, tuple[float, str]], title: str) -> Table:
    table = Table(["metric", "value", "unit"], title=title)
    for name, (value, unit) in metrics.items():
        table.add_row([name, round(value, 6), unit])
    return table


def drift(run: Run) -> dict[str, list[float]]:
    out = {}
    for kind, values in latencies([op for op in run.ops if not op.traced]).items():
        half = len(values) // 2
        if half:
            out[kind] = [percentile(values[:half], 50), percentile(values[half:], 50)]
    return out


def source_commit(root: Path) -> str:
    """The checkout's git commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(run: Run, root: Path, seed: int, seconds: float, trace: bool,
               ticks: tuple[int, int] = (0, 0)) -> dict[str, Any]:
    """Everything needed to tell two runs apart; ``ticks`` is the
    :func:`host_ticks` delta over the run, reported as the steal share."""
    import numpy

    from repro import kernels

    counts: dict[str, int] = defaultdict(int)
    for op in run.ops:
        counts[op.kind] += 1
    return {
        "workload": run.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": source_commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "clock": "process CPU (process_time) for latencies and set-up",
        "host_steal_share": _ratio(ticks[0], ticks[1]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
        "kernel_backend": kernels.active_backend(),
        "executor": "in-process SpatialEngine" if run.workload == "analyze" else "thread",
        "num_shards": None if run.workload == "analyze" else SHARDS,
        "wal": None if run.workload == "analyze"
        else {"flush_batches": 1, "fsync": False, "mutations_per_batch": BATCH},
        "objects": run.info.get("objects"),
        "op_counts": dict(counts),
        "traced_ops": sum(op.traced for op in run.ops),
        "timed_s": run.wall_s,
        "setup_s_reps": run.setup_s,
        "drift_p50_ms": drift(run),
        **{k: v for k, v in run.info.items() if k != "objects"},
    }
