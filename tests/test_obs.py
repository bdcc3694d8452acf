"""Observability: the metrics registry, query tracing, and wire telemetry.

Covers the unified registry (kind/label contracts, Prometheus text
exposition, the lock-free conservation guarantee under an 8-thread
hammer), the span API (nesting, error paths, serialisation), trace
propagation across thread pools and process workers, the edge cases
(admission reject, torn WAL tail, busy frame), and the wire surfaces —
``Client.query(trace=True)`` incl. ``cross_join``, the ``metrics``
scrape and the ``slowlog`` frame.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

import repro
from repro.catalog import Catalog
from repro.engine import Delete, Insert, Move, SpatialEngine
from repro.engine.queries import RangeQuery
from repro.errors import ServiceOverloadError
from repro.experiments.datasets import circuit_dataset
from repro.geometry.aabb import AABB
from repro.objects import BoxObject
from repro.obs import metrics as metrics_module
from repro.obs import trace
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    global_registry,
)
from repro.obs.slowlog import SlowQueryLog
from repro.server import Client, serve_in_background
from repro.service.sharded import ShardedEngine
from repro.workloads.ranges import density_stratified_queries
from tests.conftest import grid_boxes
from tests.test_durability import last_segment

WORLD = AABB(-600.0, -600.0, -600.0, 600.0, 600.0, 600.0)


def _fresh_service(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("max_queued", 64)
    return ShardedEngine.generate(n_neurons=6, seed=11, **kwargs)


# -- the registry --------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_shares_one_family(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", "Requests.")
        b = registry.counter("requests_total")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5

    def test_kind_mismatch_is_a_registration_bug(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.histogram("x_total")

    def test_label_set_mismatch_is_a_registration_bug(self):
        registry = MetricsRegistry()
        registry.counter("y_total", label_names=("op",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("y_total", label_names=("kind",))

    def test_labeled_children_are_memoised_and_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", label_names=("op",))
        read = family.labels(op="read")
        assert family.labels(op="read") is read
        family.labels(op="write").inc(4)
        read.inc()
        assert read.value == 1
        assert family.labels(op="write").value == 4

    def test_family_rejects_updates_and_bad_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", label_names=("op",))
        with pytest.raises(ValueError, match="labeled family"):
            family.inc()
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(kind="read")
        unlabeled = registry.counter("plain_total")
        with pytest.raises(ValueError, match="no labels"):
            unlabeled.labels(op="read")

    def test_gauge_set_and_callback(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(7)
        assert g.value == 7.0
        g.set_callback(lambda: 42.0)
        assert g.value == 42.0

    def test_histogram_buckets_are_upper_inclusive(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_ms", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 10.0, 99.0):
            h.observe(value)
        counts, total_sum, total_count = h.snapshot()
        # le=1: {0.5, 1.0}; le=5: {3.0}; le=10: {10.0}; +Inf: {99.0}
        assert counts == [2.0, 1.0, 1.0, 1.0]
        assert total_sum == pytest.approx(113.5)
        assert total_count == 5.0
        assert h.count == 5.0
        assert h.sum == pytest.approx(113.5)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            MetricsRegistry().histogram("empty_ms", buckets=())

    def test_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", label_names=("type",)).labels(
            type="query"
        ).inc(3)
        registry.gauge("lag", "Lag.").set(2)
        h = registry.histogram("lat_ms", "Latency.", buckets=(1.0, 5.0))
        h.observe(0.5)
        h.observe(99.0)
        text = registry.render_prometheus()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{type="query"} 3' in text
        assert "# TYPE lag gauge" in text
        assert "lag 2" in text
        assert "# TYPE lat_ms histogram" in text
        # Cumulative le buckets end at +Inf == _count.
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="5"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_sum 99.5" in text
        assert "lat_ms_count 2" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", label_names=("p",)).labels(
            p='a"b\\c\nd'
        ).inc()
        text = registry.render_prometheus()
        assert 'esc_total{p="a\\"b\\\\c\\nd"} 1' in text

    def test_global_registry_is_process_wide(self):
        assert global_registry() is global_registry()
        # The layers registered their families at import time.
        names = global_registry().names()
        assert "repro_server_frame_latency_ms" in names
        assert "repro_wal_fsync_ms" in names


    def test_positional_child_is_the_memoised_labels_child(self):
        registry = MetricsRegistry()
        family = registry.counter("pairs_total", label_names=("kind", "shard"))
        child = family.child("range", 3)
        assert child is family.labels(kind="range", shard="3")
        assert family.child("range", 3) is child
        with pytest.raises(ValueError, match="takes labels"):
            family.child("range")


class TestWarmHotPaths:
    """Label children are resolved once; warm updates only add to them."""

    def _count_labels_calls(self, monkeypatch) -> list:
        calls = []
        original = metrics_module._Metric.labels

        def counting_labels(self, **labels):
            calls.append((self.name, labels))
            return original(self, **labels)

        monkeypatch.setattr(metrics_module._Metric, "labels", counting_labels)
        return calls

    def test_warm_queries_resolve_no_label_children(self, monkeypatch):
        service = repro.create(grid_boxes(5), sharded=True, num_shards=2)
        window = RangeQuery(AABB(-1.0, -1.0, -1.0, 9.0, 9.0, 9.0))
        with service:
            assert service.execute(window).stats.shards_used == 2  # warm-up
            calls = self._count_labels_calls(monkeypatch)
            for _ in range(50):
                result = service.execute(window)
            assert result.stats.shards_used == 2
            assert calls == []
            assert service.telemetry.snapshot()["completed"] == 51

    def test_warm_mutation_batches_resolve_no_label_children(self, monkeypatch):
        service = repro.create(grid_boxes(5), sharded=True, num_shards=2)
        far = BoxObject(uid=1000, box=AABB(3.0, 3.0, 3.0, 3.5, 3.5, 3.5))
        with service:
            service.apply_many([repro.Insert(far)])  # warm-up
            service.apply_many([repro.Delete(1000)])
            calls = self._count_labels_calls(monkeypatch)
            for _ in range(5):
                service.apply_many([repro.Insert(far)])
                service.apply_many([repro.Delete(1000)])
            assert calls == []
            assert service.telemetry.snapshot()["mutation_batches"] == 12


# -- satellite 2: conservation under an 8-thread hammer ------------------------
class TestMetricsConservation:
    THREADS = 8
    PER_THREAD = 25_000

    def test_counter_and_histogram_lose_no_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress_total", label_names=("op",)).labels(
            op="inc"
        )
        histogram = registry.histogram("stress_ms", buckets=LATENCY_BUCKETS_MS)
        start = threading.Barrier(self.THREADS)

        def hammer() -> None:
            start.wait()
            for i in range(self.PER_THREAD):
                counter.inc()
                histogram.observe(float(i % 7))

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.THREADS * self.PER_THREAD
        # Exact conservation at the quiescent point — not approximately.
        assert counter.value == float(expected)
        counts, total_sum, total_count = histogram.snapshot()
        assert total_count == float(expected)
        assert sum(counts) == float(expected)
        per_thread_sum = sum(float(i % 7) for i in range(self.PER_THREAD))
        assert total_sum == pytest.approx(self.THREADS * per_thread_sum)


# -- the span API --------------------------------------------------------------
class TestTrace:
    def test_span_without_a_trace_is_the_shared_noop(self):
        assert trace.span("anything") is trace.span("else")
        assert not trace.active()
        assert trace.current_span() is None

    def test_nesting_builds_the_tree(self):
        with trace.start_trace("q", kind="range") as root:
            assert trace.active()
            with trace.span("outer", shard=1) as outer:
                assert trace.current_span() is outer
                with trace.span("inner"):
                    pass
        assert root.attrs == {"kind": "range"}
        assert [c.name for c in root.children] == ["outer"]
        assert [c.name for c in root.children[0].children] == ["inner"]
        assert root.children[0].attrs["shard"] == 1
        assert root.duration_ms >= 0.0
        assert root.trace_id

    def test_error_spans_keep_timing_and_carry_the_failure(self):
        with pytest.raises(RuntimeError, match="boom"):
            with trace.start_trace("q") as root:
                with trace.span("step"):
                    raise RuntimeError("boom")
        assert root.attrs["error"] == "RuntimeError: boom"
        step = root.children[0]
        assert step.attrs["error"] == "RuntimeError: boom"
        assert step.duration_ms >= 0.0

    def test_to_dict_round_trip(self):
        with trace.start_trace("q", kind="range") as root:
            with trace.span("child", shard=2):
                pass
        record = root.to_dict()
        rebuilt = trace.from_dict(record)
        assert rebuilt.name == "q"
        assert rebuilt.trace_id == root.trace_id
        assert rebuilt.attrs == root.attrs
        assert [c.name for c in rebuilt.children] == ["child"]
        assert rebuilt.children[0].attrs == {"shard": 2}
        assert rebuilt.to_dict() == record

    def test_attach_reparents_under_the_open_span(self):
        payload = {"name": "worker", "ms": 1.5, "kb": 3}
        trace.attach(payload)  # no trace open: a no-op, not an error
        with trace.start_trace("q") as root:
            trace.attach(payload)
            trace.attach(None)
        assert [c.name for c in root.children] == ["worker"]
        assert root.children[0].kernel_batches == 3

    def test_render_is_a_connector_tree(self):
        with trace.start_trace("q") as root:
            with trace.span("a"):
                with trace.span("a1"):
                    pass
            with trace.span("b"):
                pass
        text = root.render()
        lines = text.splitlines()
        assert lines[0].startswith(f"q [trace {root.trace_id}]")
        assert any(line.startswith("├─ a") for line in lines)
        assert any("└─ a1" in line for line in lines)
        assert any(line.startswith("└─ b") for line in lines)
        assert all("ms" in line for line in lines)


    def test_a_first_rtree_read_traces_only_the_rtree_flush(self):
        engine = SpatialEngine(grid_boxes(6), page_capacity=8)
        engine.flat_index()
        engine.object_rtree()
        engine.apply_many(
            [
                Insert(BoxObject(uid=500, box=AABB(0.5, 0.5, 0.5, 1.0, 1.0, 1.0))),
                Delete(3),
                Move(7, BoxObject(uid=7, box=AABB(4.0, 4.0, 4.0, 5.0, 5.0, 5.0))),
            ]
        )
        with trace.start_trace("q") as root:
            engine.execute(RangeQuery(AABB(0.0, 0.0, 0.0, 4.0, 4.0, 4.0), strategy="rtree"))
        (execute,) = root.children
        flushes = [s for s in execute.children if s.name == "engine.index_flush"]
        assert [s.attrs for s in flushes] == [{"index": "rtree", "deltas": 3}]
        # FLAT's deltas wait for the next FLAT read, which flushes them untraced.
        engine.execute(RangeQuery(AABB(0.0, 0.0, 0.0, 4.0, 4.0, 4.0), strategy="flat"))
        engine.flat_index().validate()


# -- the tracing-off overhead budget -------------------------------------------
class TestTraceOverhead:
    def test_tracing_off_costs_under_5_percent(self, monkeypatch):
        """With no trace open, every ``engine.execute`` crosses the
        ``trace.span`` site as one ContextVar read returning a shared no-op.
        Each round times the same warmed FLAT range batch with
        ``trace.span`` stubbed out (no instrumentation at all), then through
        the real disabled path; the best round's overhead must stay < 5%."""
        circuit = circuit_dataset(n_neurons=60)
        engine = SpatialEngine.from_circuit(circuit, page_capacity=512)
        queries = [
            RangeQuery(box, strategy="flat")
            for box in density_stratified_queries(
                circuit.segments(), 8, 200.0, dense=True, seed=2013
            )
        ]
        for query in queries:
            engine.execute(query)  # warm the per-partition packs

        def batch_ms() -> float:
            start = time.perf_counter()
            for query in queries:
                engine.execute(query)
            return (time.perf_counter() - start) * 1000.0

        def stub_span(name, **attrs):
            return trace._NOOP

        best_pct = float("inf")
        rounds, timed_ms = 0, 0.0
        gc.collect()
        gc.disable()
        try:
            # At least 5 rounds and 150 ms of timed signal, at most 60 rounds.
            while rounds < 5 or (timed_ms < 150.0 and rounds < 60):
                with monkeypatch.context() as patch:
                    patch.setattr(trace, "span", stub_span)
                    stubbed_ms = batch_ms()
                real_ms = batch_ms()
                best_pct = min(best_pct, max(0.0, (real_ms - stubbed_ms) / stubbed_ms * 100.0))
                rounds += 1
                timed_ms += stubbed_ms + real_ms
        finally:
            gc.enable()
        assert best_pct < 5.0, f"tracing-off overhead measured {best_pct:.2f}%"


# -- propagation across pools and error paths ----------------------------------
class TestTracePropagation:
    def _traced_range(self, service):
        with trace.start_trace("query", kind="range") as root:
            service.execute(RangeQuery(WORLD))
        return root

    def _span_names(self, span_value):
        names = {span_value.name}
        for child in span_value.children:
            names |= self._span_names(child)
        return names

    def test_thread_pool_fanout_carries_the_trace(self):
        with _fresh_service(num_shards=3) as svc:
            root = self._traced_range(svc)
        names = self._span_names(root)
        assert {"service.execute", "service.admit", "shard.subtask"} <= names
        subtasks = [
            c
            for c in root.children[0].children
            if c.name == "shard.subtask"
        ]
        assert {c.attrs["shard"] for c in subtasks} == {0, 1, 2}

    def test_process_workers_ship_pickled_span_payloads(self):
        with _fresh_service(num_shards=2, executor="process") as svc:
            root = self._traced_range(svc)
            # Same query untraced: spans must not leak into the payload path.
            untraced = svc.execute(RangeQuery(WORLD))
            assert untraced is not None
        names = self._span_names(root)
        assert "service.execute" in names
        assert "shard.worker" in names  # re-parented from the worker's payload

    def test_admission_reject_is_an_error_span(self):
        svc = _fresh_service(max_in_flight=1, max_queued=0, queue_timeout_s=0.5)
        svc.admission.admit()  # hold the only slot
        try:
            with pytest.raises(ServiceOverloadError):
                with trace.start_trace("query") as root:
                    svc.execute(RangeQuery(WORLD))
            assert "ServiceOverloadError" in root.attrs["error"]
        finally:
            svc.admission.release()
            svc.close()

    def test_trace_survives_torn_wal_recovery(self, tmp_path):
        root_dir = tmp_path / "durroot"
        service = repro.create(grid_boxes(4), root_dir, sharded=True, num_shards=2)
        try:
            service.apply(
                repro.Insert(BoxObject(uid=900, box=AABB(0, 0, 0, 1, 1, 1)))
            )
            service.apply(
                repro.Insert(BoxObject(uid=901, box=AABB(2, 0, 0, 3, 1, 1)))
            )
        finally:
            service.close()
        segment = last_segment(root_dir)
        segment.write_bytes(segment.read_bytes()[:-5])  # tear the last record
        recovered = repro.open(root_dir, sharded=True)
        try:
            with trace.start_trace("query", kind="range") as span_root:
                result = recovered.execute(RangeQuery(WORLD))
            assert result.stats.num_results >= 4
            names = {span_root.name} | {c.name for c in span_root.children}
            assert "service.execute" in names
            assert "error" not in span_root.attrs
            assert span_root.render()
        finally:
            recovered.close()


# -- the wire surfaces ---------------------------------------------------------
class TestWireTelemetry:
    def test_traced_query_returns_the_server_side_tree(self):
        with _fresh_service() as svc:
            with serve_in_background(svc) as handle:
                with Client(handle.host, handle.port) as client:
                    client.hello()
                    plain = client.query(RangeQuery(WORLD))
                    assert plain.trace is None
                    traced = client.query(RangeQuery(WORLD), trace=True)
        assert traced.payload == plain.payload
        assert traced.trace is not None
        rebuilt = trace.from_dict(traced.trace)
        assert rebuilt.name == "server.query"
        assert rebuilt.trace_id
        rendered = rebuilt.render()
        assert "service.execute" in rendered
        assert "shard.subtask" in rendered

    def test_traced_cross_join_round_trips(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.create("a", grid_boxes(8)).close()
        catalog.tag("a", "v1")
        catalog.create(
            "b",
            [
                BoxObject(uid=5000 + o.uid, box=o.aabb)
                for o in grid_boxes(8)
            ],
        ).close()
        catalog.tag("b", "v1")
        with _fresh_service() as svc:
            with serve_in_background(svc, catalog=catalog) as handle:
                with Client(handle.host, handle.port) as client:
                    client.hello()
                    result = client.cross_join("a@v1", "b@v1", eps=0.5, trace=True)
        assert result.payload  # identical boxes overlap pairwise
        assert result.trace is not None
        assert trace.from_dict(result.trace).name == "server.query"

    def test_busy_frame_counts_a_rejection_and_keeps_the_connection(self):
        busy = global_registry().counter(
            "repro_server_busy_rejections_total", label_names=("reason",)
        ).labels(reason="admission")
        svc = _fresh_service(max_in_flight=1, max_queued=0, queue_timeout_s=0.5)
        with serve_in_background(svc) as handle:
            svc.admission.admit()
            try:
                with Client(handle.host, handle.port) as client:
                    client.hello()
                    before = busy.value
                    with pytest.raises(ServiceOverloadError):
                        client.query(RangeQuery(WORLD), trace=True)
                    assert busy.value >= before + 1
                    # The connection survives: the next frame still answers.
                    assert client.stats()["admission"]["rejected"] >= 1
            finally:
                svc.admission.release()

    def test_metrics_scrape_over_the_wire(self):
        with _fresh_service() as svc:
            with serve_in_background(svc) as handle:
                with Client(handle.host, handle.port) as client:
                    client.hello()
                    client.query(RangeQuery(WORLD))
                    text = client.metrics()
        assert "# TYPE repro_server_frame_latency_ms histogram" in text
        assert 'repro_server_frame_latency_ms_count{type="query"}' in text
        assert "repro_server_replica_lag_epochs" in text
        assert "repro_server_replica_lag_ms" in text
        assert "# TYPE repro_wal_fsync_ms histogram" in text
        assert "repro_service_requests_total" in text

    def test_slowlog_over_the_wire(self):
        with _fresh_service(slow_query_ms=0.0) as svc:
            with serve_in_background(svc) as handle:
                with Client(handle.host, handle.port) as client:
                    client.hello()
                    client.query(RangeQuery(WORLD))
                    log = client.slowlog()
        assert log["enabled"]
        assert log["entries"]
        entry = log["entries"][-1]
        assert entry["kind"] == "range"
        assert entry["elapsed_ms"] >= 0.0

    def test_slowlog_disabled_by_default(self):
        with _fresh_service() as svc:
            with serve_in_background(svc) as handle:
                with Client(handle.host, handle.port) as client:
                    client.hello()
                    log = client.slowlog()
        assert not log["enabled"]
        assert log["entries"] == []


# -- the ring buffer itself ----------------------------------------------------
class TestSlowQueryLog:
    def test_disabled_log_records_nothing(self):
        log = SlowQueryLog(threshold_ms=None)
        assert not log.enabled
        log.record("range", 100.0)
        assert log.entries() == []

    def test_threshold_filters_fast_queries(self):
        log = SlowQueryLog(threshold_ms=10.0)
        log.record("range", 5.0)
        log.record("knn", 25.0, shards_used=2)
        entries = log.entries()
        assert [e["kind"] for e in entries] == ["knn"]
        assert entries[0]["shards_used"] == 2
        assert entries[0]["elapsed_ms"] == 25.0

    def test_ring_buffer_keeps_only_the_newest(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for i in range(10):
            log.record("range", float(i))
        kept = [e["elapsed_ms"] for e in log.entries()]
        assert kept == [7.0, 8.0, 9.0]
