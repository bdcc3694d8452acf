"""Concurrency stress: hammer one service from many threads.

The properties under test are the service's two contracts:

* **consistency** — no thread ever sees a lost, duplicated or torn result:
  every payload equals the canonical single-threaded answer, bit for bit;
* **liveness + accounting** — admission control rejects (never deadlocks)
  past its bounds, and the thread-safe telemetry's conservation law
  ``completed + rejected + timed_out + failed == submitted`` holds at
  every quiescent point, with ``results_returned`` summing exactly.

Everything is seeded; the thread *schedule* is the only nondeterminism,
and the assertions hold for any schedule.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Delete, KNNQuery, RangeQuery, SpatialJoin
from repro.errors import ServiceError, ServiceOverloadError, ServiceTimeoutError
from repro.neuro.circuit import generate_circuit
from repro.service import AdmissionController, ShardedEngine
from repro.utils.rng import make_rng
from repro.workloads.traffic import traffic_workload

N_THREADS = 8
WALL_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def circuit():
    return generate_circuit(n_neurons=8, seed=4242)


@pytest.fixture(scope="module")
def workload(circuit):
    return traffic_workload(
        circuit.segments(), 24, extent=90.0, include_joins=False, seed=99
    )


@pytest.fixture(scope="module")
def expected(circuit, workload):
    """Canonical answers, computed once on a private single-client service."""
    with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=4, max_queued=64) as service:
        return [result.payload for result in service.query_many(workload)]


class TestConsistencyUnderConcurrency:
    def test_no_lost_duplicated_or_torn_results(self, circuit, workload, expected):
        service = ShardedEngine(
            circuit.segments(),
            circuit=circuit,
            num_shards=4,
            max_in_flight=4,
            max_queued=N_THREADS * len(workload),
        )
        mismatches: list[str] = []
        errors: list[BaseException] = []
        start_gun = threading.Barrier(N_THREADS)

        def client(thread_id: int) -> None:
            order = list(range(len(workload)))
            make_rng(thread_id).shuffle(order)
            start_gun.wait()
            for index in order:
                try:
                    result = service.execute(workload[index])
                except BaseException as exc:  # noqa: BLE001 - collected for the report
                    errors.append(exc)
                    return
                if result.payload != expected[index]:
                    mismatches.append(
                        f"thread {thread_id} query {index}: "
                        f"{len(result.payload)} results vs {len(expected[index])}"
                    )

        threads = [threading.Thread(target=client, args=(i,)) for i in range(N_THREADS)]
        deadline = time.monotonic() + WALL_BUDGET_S
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.1, deadline - time.monotonic()))
            stuck = [t for t in threads if t.is_alive()]
            assert not stuck, f"{len(stuck)} client threads still running: deadlock?"
        assert not errors, f"unexpected client errors: {errors[:3]}"
        assert not mismatches, "\n".join(mismatches[:10])

        snap = service.telemetry.snapshot()
        total = N_THREADS * len(workload)
        assert snap["submitted"] == total
        assert snap["completed"] == total
        assert snap["rejected"] == snap["timed_out"] == snap["failed"] == 0
        assert snap["results_returned"] == N_THREADS * sum(len(p) for p in expected)
        admission = service.admission.snapshot()
        assert admission.admitted == total
        assert admission.in_flight == 0 and admission.queued == 0

    def test_telemetry_counters_sum_consistently_with_rejections(self, circuit, workload):
        """With a tiny queue, every submission is either completed or
        rejected — nothing lost, nothing double-counted, no deadlock."""
        service = ShardedEngine(
            circuit.segments(),
            circuit=circuit,
            num_shards=2,
            max_in_flight=1,
            max_queued=1,
            queue_timeout_s=5.0,
        )
        completed = [0] * N_THREADS
        rejected = [0] * N_THREADS
        unexpected: list[BaseException] = []
        start_gun = threading.Barrier(N_THREADS)

        def client(thread_id: int) -> None:
            start_gun.wait()
            for index in range(12):
                try:
                    service.execute(workload[index % len(workload)])
                    completed[thread_id] += 1
                except ServiceOverloadError:
                    rejected[thread_id] += 1
                except BaseException as exc:  # noqa: BLE001
                    unexpected.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(N_THREADS)]
        deadline = time.monotonic() + WALL_BUDGET_S
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.1, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), "deadlocked under backpressure"
        assert not unexpected, f"unexpected errors: {unexpected[:3]}"

        snap = service.telemetry.snapshot()
        assert snap["submitted"] == N_THREADS * 12
        assert snap["completed"] == sum(completed)
        assert snap["rejected"] == sum(rejected)
        assert snap["completed"] + snap["rejected"] == snap["submitted"]
        assert snap["timed_out"] == snap["failed"] == 0


class TestAdmissionControl:
    def test_rejects_immediately_when_queue_full(self, circuit):
        service = ShardedEngine(
            circuit.segments(), circuit=circuit, num_shards=2, max_in_flight=1, max_queued=0
        )
        with service:
            # Occupy the only execution slot from the outside.
            service.admission.admit()
            window = circuit.bounding_box()
            started = time.monotonic()
            with pytest.raises(ServiceOverloadError):
                service.execute(RangeQuery(window))
            assert time.monotonic() - started < 5.0, "rejection was not prompt"
            service.admission.release()
            # The slot is free again: the same query now succeeds.
            assert service.execute(RangeQuery(window)).num_results > 0

    def test_queue_wait_timeout_rejects(self):
        gate = AdmissionController(max_in_flight=1, max_queued=4, queue_timeout_s=0.05)
        gate.admit()
        with pytest.raises(ServiceOverloadError):
            gate.admit()
        snap = gate.snapshot()
        assert snap.timed_out_waiting == 1
        gate.release()
        assert gate.admit() >= 0.0

    def test_release_without_admit_is_an_error(self):
        gate = AdmissionController(max_in_flight=1)
        with pytest.raises(ServiceError):
            gate.release()

    def test_waiters_are_woken_in_turn(self):
        gate = AdmissionController(max_in_flight=1, max_queued=8, queue_timeout_s=10.0)
        gate.admit()
        waited: list[float] = []

        def waiter() -> None:
            waited.append(gate.admit())
            gate.release()

        threads = [threading.Thread(target=waiter) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        gate.release()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(waited) == 4
        snap = gate.snapshot()
        assert snap.admitted == 5 and snap.rejected == 0
        assert snap.in_flight == 0 and snap.queued == 0


class TestLifecycle:
    def test_close_is_idempotent_and_post_close_raises(self, circuit):
        service = ShardedEngine(circuit.segments(), circuit=circuit, num_shards=3, max_queued=64)
        window = circuit.bounding_box()
        assert service.execute(RangeQuery(window)).num_results > 0
        service.close()
        service.close()  # double close: no-op, no error
        with pytest.raises(ServiceError, match="closed"):
            service.execute(RangeQuery(window))
        with pytest.raises(ServiceError, match="closed"):
            service.apply_many([Delete(circuit.segments()[0].uid)])


class TestDeadlines:
    def test_slow_shard_times_out_and_pool_stays_usable(self, circuit):
        service = ShardedEngine(circuit.segments(), circuit=circuit, num_shards=2)
        with service:
            slow = service.shards[0].engine
            original = slow.execute

            def sluggish(query):
                time.sleep(0.25)
                return original(query)

            slow.execute = sluggish
            window = circuit.bounding_box()
            with pytest.raises(ServiceTimeoutError):
                service.execute(RangeQuery(window), timeout_s=0.05)
            assert service.telemetry.snapshot()["timed_out"] == 1
            # Restore the shard: the pool was not poisoned by the timeout.
            slow.execute = original
            assert service.execute(RangeQuery(window)).num_results > 0
            snap = service.admission.snapshot()
            assert snap.in_flight == 0 and snap.queued == 0


class TestMixedKindsUnderConcurrency:
    def test_knn_and_join_agree_under_load(self, circuit):
        """KNN heaps and join merges stay exact while other threads run."""
        service = ShardedEngine(circuit.segments(), circuit=circuit, num_shards=4, max_queued=128)
        point = circuit.bounding_box().center()
        with service:
            expected_knn = service.execute(KNNQuery(point, 16)).payload
            expected_join = service.execute(SpatialJoin(eps=2.0)).payload
            outcomes: list[bool] = []

            def client() -> None:
                for _ in range(3):
                    knn = service.execute(KNNQuery(point, 16)).payload
                    join = service.execute(SpatialJoin(eps=2.0)).payload
                    outcomes.append(knn == expected_knn and join == expected_join)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WALL_BUDGET_S)
            assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 12 and all(outcomes)
