"""Golden output of the engine and service lifetime telemetry.

A fixed recording sequence is fed to a fresh :class:`EngineTelemetry` and
:class:`ServiceTelemetry`; ``render()`` must match the committed text byte
for byte and ``snapshot()`` the committed dict, and the process-wide
``repro_engine_*`` / ``repro_service_*`` series must advance by exactly
the committed amounts, so neither the CLI tables, the server's ``stats``
reply nor the wire scrape can drift silently.
"""

from __future__ import annotations

from repro.engine.mutations import MutationStats
from repro.engine.stats import EngineStats, EngineTelemetry
from repro.obs.metrics import global_registry
from repro.service.stats import ServiceStats, ServiceTelemetry, ShardWork


#: kind, strategy, pages, io ms, comparisons, results, wall ms, plan ms, batches, backend
QUERIES = [
    ("range", "flat", 12, 3.25, 40, 7, 0.5, 0.125, 3, "numpy"),
    ("knn", "rtree", 5, 1.5, 22, 4, 0.75, 0.25, 2, "python"),
    ("range", "rtree", 2, 0.0, 9, 0, 0.25, 0.0625, 1, "numpy"),
    ("knn", "flat", 0, 0.0, 3, 1, 0.125, 0.0, 0, ""),
]


def record_engine_sequence() -> EngineTelemetry:
    """Two kinds, two strategies, both kernel backends (and none), one batch."""
    telemetry = EngineTelemetry()
    for row in QUERIES:
        telemetry.record(EngineStats(*row))
    telemetry.record_mutations(MutationStats(inserts=3, deletes=1, moves=2, elapsed_ms=1.75))
    return telemetry


def record_service_sequence() -> ServiceTelemetry:
    """Every request outcome, a zero-cost shard, one in-place and one rebalanced batch."""
    telemetry = ServiceTelemetry()
    for _ in range(5):
        telemetry.record_submitted()
    # ShardWork: shard, strategy, service ms, wall ms, pages, comparisons, results, cpu ms
    range_work = [
        ShardWork(0, "flat", 2.5, 0.5, 3, 10, 5, cpu_ms=0.375),
        ShardWork(1, "rtree", 1.25, 0.25, 1, 4, 4),
    ]
    knn_work = [ShardWork(2, "flat", 0.0, 0.125, 0, 2, 2, cpu_ms=0.5)]
    telemetry.record_completed(
        ServiceStats("range", 3, 2, num_results=9, admission_wait_ms=0.25, shard_work=range_work)
    )
    telemetry.record_completed(
        ServiceStats("knn", 3, 1, num_results=2, admission_wait_ms=0.5, shard_work=knn_work)
    )
    telemetry.record_rejected()
    telemetry.record_timeout()
    telemetry.record_failure()
    telemetry.record_mutations(
        MutationStats(inserts=2, deletes=1, elapsed_ms=3.5, epoch=1, shards_touched=1)
    )
    telemetry.record_mutations(
        MutationStats(
            inserts=4, moves=1, elapsed_ms=6.25, epoch=2, rebalanced=True, shards_touched=3
        )
    )
    return telemetry


ENGINE_RENDER = """\
engine telemetry
              metric  value
--------------------  -----
    queries executed      4
    results returned     12
          pages read     19
  simulated I/O (ms)  4.750
         comparisons     74
      kernel batches      6
   via numpy kernels      2
  via python kernels      1
 execution wall (ms)  1.625
  planning wall (ms)  0.438
   mutations applied      6
             inserts      3
             deletes      1
               moves      2
  mutation wall (ms)  1.750
         knn queries      2
       range queries      2
            via flat      2
           via rtree      2"""

ENGINE_SNAPSHOT = {
    "queries_executed": 4,
    "pages_read": 19,
    "io_time_ms": 4.75,
    "comparisons": 74,
    "results_returned": 12,
    "elapsed_ms": 1.625,
    "planning_ms": 0.4375,
    "kernel_batches": 6,
    "mutation_batches": 1,
    "mutations_applied": 6,
    "inserts": 3,
    "deletes": 1,
    "moves": 2,
    "mutation_ms": 1.75,
    "by_kind": {"knn": 2, "range": 2},
    "by_strategy": {"flat": 2, "rtree": 2},
    "by_kernel_backend": {"numpy": 2, "python": 1},
}

SERVICE_RENDER = """\
service telemetry
                  metric  value
------------------------  -----
               submitted      5
               completed      2
                rejected      1
               timed out      1
                  failed      1
        results returned     11
          shard subtasks      3
     admission wait (ms)  0.750
  modelled makespan (ms)  2.500
modelled total work (ms)  3.750
        mutation batches      2
       mutations applied      8
                 inserts      6
                 deletes      1
                   moves      1
          shards rebuilt      3
              rebalances      1
           current epoch      2
             knn queries      1
           range queries      1
    shard 0 service (ms)  2.500
    shard 1 service (ms)  1.250
    shard 2 service (ms)  0.000"""

SERVICE_SNAPSHOT = {
    "submitted": 5,
    "completed": 2,
    "rejected": 1,
    "timed_out": 1,
    "failed": 1,
    "results_returned": 11,
    "shard_subtasks": 3,
    "admission_wait_ms": 0.75,
    "makespan_ms": 2.5,
    "total_work_ms": 3.75,
    "by_kind": {"knn": 1, "range": 1},
    "per_shard_service_ms": {0: 2.5, 1: 1.25, 2: 0.0},
    "per_shard_cpu_ms": {0: 0.375, 2: 0.5},
    "mutation_batches": 2,
    "mutations_applied": 8,
    "inserts": 6,
    "deletes": 1,
    "moves": 1,
    "mutation_ms": 9.75,
    "shards_rebuilt": 3,
    "rebalances": 1,
    "current_epoch": 2,
}

#: What the sequences add to the process-wide families (bucket lines and
#: the max-across-services epoch gauge left out).
SCRAPE_DELTA = {
    'repro_engine_kernel_batches_total{backend="numpy"}': 4.0,
    'repro_engine_kernel_batches_total{backend="python"}': 2.0,
    'repro_engine_mutations_total{op="delete"}': 1.0,
    'repro_engine_mutations_total{op="insert"}': 3.0,
    'repro_engine_mutations_total{op="move"}': 2.0,
    'repro_engine_queries_total{kind="knn", strategy="flat"}': 1.0,
    'repro_engine_queries_total{kind="knn", strategy="rtree"}': 1.0,
    'repro_engine_queries_total{kind="range", strategy="flat"}': 1.0,
    'repro_engine_queries_total{kind="range", strategy="rtree"}': 1.0,
    'repro_engine_query_latency_ms_count{kind="knn"}': 2.0,
    'repro_engine_query_latency_ms_count{kind="range"}': 2.0,
    'repro_engine_query_latency_ms_sum{kind="knn"}': 0.875,
    'repro_engine_query_latency_ms_sum{kind="range"}': 0.75,
    "repro_engine_results_total": 12.0,
    "repro_service_admission_wait_ms_count": 2.0,
    "repro_service_admission_wait_ms_sum": 0.75,
    'repro_service_mutations_total{op="delete"}': 1.0,
    'repro_service_mutations_total{op="insert"}': 6.0,
    'repro_service_mutations_total{op="move"}': 1.0,
    'repro_service_requests_total{outcome="completed"}': 2.0,
    'repro_service_requests_total{outcome="failed"}': 1.0,
    'repro_service_requests_total{outcome="rejected"}': 1.0,
    'repro_service_requests_total{outcome="submitted"}': 5.0,
    'repro_service_requests_total{outcome="timed_out"}': 1.0,
    "repro_service_results_total": 11.0,
    "repro_service_subtask_cpu_ms_count": 2.0,
    "repro_service_subtask_cpu_ms_sum": 0.875,
}


def scrape_engine_and_service() -> dict[str, float]:
    series: dict[str, float] = {}
    for line in global_registry().render_prometheus().splitlines():
        if not line.startswith(("repro_engine_", "repro_service_")):
            continue
        if "_bucket{" in line or line.startswith("repro_service_current_epoch"):
            continue
        name, value = line.rsplit(" ", 1)
        series[name] = float(value)
    return series


class TestGolden:
    def test_engine_render_and_snapshot(self):
        telemetry = record_engine_sequence()
        assert telemetry.render() == ENGINE_RENDER
        assert telemetry.snapshot() == ENGINE_SNAPSHOT

    def test_service_render_and_snapshot(self):
        telemetry = record_service_sequence()
        assert telemetry.render() == SERVICE_RENDER
        assert telemetry.snapshot() == SERVICE_SNAPSHOT

    def test_counts_read_back_as_ints(self):
        """Counts render as integers, ``*_ms`` sums as floats."""
        for telemetry in (record_engine_sequence(), record_service_sequence()):
            for key, value in telemetry.snapshot().items():
                if isinstance(value, dict):
                    continue
                assert isinstance(value, float if key.endswith("_ms") else int), key

    def test_empty_telemetry_renders_the_base_rows(self):
        engine = EngineTelemetry().render().splitlines()
        assert engine[3:] == [
            "   queries executed      0",
            "   results returned      0",
            "         pages read      0",
            " simulated I/O (ms)      0",
            "        comparisons      0",
            "     kernel batches      0",
            "execution wall (ms)      0",
            " planning wall (ms)      0",
        ]
        service = ServiceTelemetry()
        assert len(service.render().splitlines()) == 3 + 10
        snapshot = service.snapshot()
        assert snapshot["by_kind"] == snapshot["per_shard_cpu_ms"] == {}
        assert snapshot["current_epoch"] == 0

    def test_process_wide_series_advance_by_the_recorded_amounts(self):
        before = scrape_engine_and_service()
        record_engine_sequence()
        record_service_sequence()
        after = scrape_engine_and_service()
        delta = {
            name: after[name] - before.get(name, 0.0)
            for name in after
            if after[name] != before.get(name, 0.0)
        }
        assert delta == SCRAPE_DELTA
