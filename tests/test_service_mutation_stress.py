"""Mutation stress: readers hammer a service while a writer churns epochs.

The live-data contract under real threads:

* **snapshot isolation** — every reader observes a *whole-epoch* answer:
  the payload equals the oracle answer for exactly the epoch stamped on
  the result, never a torn mix of two epochs, never a duplicated or lost
  uid;
* **monotone epochs** — the epoch a thread observes never goes backwards
  between its own consecutive queries;
* **accounting** — the telemetry conservation laws hold at the quiescent
  point: ``completed + rejected + timed_out + failed == submitted`` for
  reads, and the mutation counters (``inserts + deletes + moves ==
  mutations_applied``, one epoch per batch) match what the writer did.

Every mutation batch and expected answer is precomputed from one seed; the
thread *schedule* is the only nondeterminism, and the assertions hold for
any schedule.  On failure the offending epoch and window index identify
the exact expected answer for replay.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Delete, Insert, KNNQuery, Move, RangeQuery
from repro.errors import ServiceOverloadError
from repro.geometry.aabb import AABB
from repro.objects import BoxObject
from repro.service import ShardedEngine
from repro.utils.rng import derive_seed, make_rng

N_READERS = 6
N_BATCHES = 30
BATCH_SIZE = 6
N_OBJECTS = 80
WORLD = 50.0
SEED = 20260731

# Guards against Python >= 3.12's "This process ... is multi-threaded, use of
# fork() may lead to deadlocks in the child" DeprecationWarning from
# multiprocessing.  This module runs thread-mode services only, and on Python
# 3.11 it raises no DeprecationWarning at all (it passes without this mark
# under -W error::DeprecationWarning), so the mark hides nothing there.
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def random_object(uid: int, rng) -> BoxObject:
    center = tuple(float(v) for v in rng.uniform(0.0, WORLD, size=3))
    return BoxObject(uid=uid, box=AABB.from_center_extent(center, float(rng.uniform(1.0, 4.0))))


def build_script():
    """Initial objects, per-epoch mutation batches and per-epoch answers.

    Everything a reader could legally observe is computed up front: for
    every epoch ``e`` and window ``w``, ``answers[e][w]`` is the oracle
    answer a query stamped with epoch ``e`` must return.
    """
    init_rng = make_rng(derive_seed(SEED, "stress", "init"))
    model = {uid: random_object(uid, init_rng) for uid in range(N_OBJECTS)}
    objects = list(model.values())

    windows = [
        AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3),  # everything
        AABB.from_center_extent((WORLD * 0.3,) * 3, WORLD * 0.6),  # dense core
        AABB.from_center_extent((WORLD * 0.9, WORLD * 0.1, WORLD * 0.5), WORLD * 0.4),
    ]

    ops_rng = make_rng(derive_seed(SEED, "stress", "ops"))
    batches: list[list] = []
    answers: list[list[list[int]]] = [
        [sorted(uid for uid, o in model.items() if o.aabb.intersects(w)) for w in windows]
    ]
    next_uid = N_OBJECTS
    for _ in range(N_BATCHES):
        batch = []
        for _ in range(BATCH_SIZE):
            draw = float(ops_rng.uniform(0.0, 1.0))
            if draw >= 0.4 and len(model) <= 10:
                draw = 0.0
            if draw < 0.4:
                obj = random_object(next_uid, ops_rng)
                next_uid += 1
                model[obj.uid] = obj
                batch.append(Insert(obj))
            elif draw < 0.7:
                uids = sorted(model)
                uid = uids[int(ops_rng.integers(0, len(uids)))]
                del model[uid]
                batch.append(Delete(uid))
            else:
                uids = sorted(model)
                uid = uids[int(ops_rng.integers(0, len(uids)))]
                obj = random_object(uid, ops_rng)
                model[uid] = obj
                batch.append(Move(uid, obj))
        batches.append(batch)
        answers.append(
            [
                sorted(uid for uid, o in model.items() if o.aabb.intersects(w))
                for w in windows
            ]
        )
    return objects, windows, batches, answers


class TestSnapshotIsolationUnderChurn:
    def test_readers_see_only_whole_epochs(self):
        objects, windows, batches, answers = build_script()
        service = ShardedEngine.from_objects(
            objects,
            num_shards=4,
            page_capacity=12,
            max_in_flight=N_READERS + 1,
            max_queued=N_READERS * 8 + 16,
        )
        violations: list[str] = []
        errors: list[BaseException] = []
        stop = threading.Event()
        start_gun = threading.Barrier(N_READERS + 1)
        reads_done = [0] * N_READERS

        def reader(thread_id: int) -> None:
            rng = make_rng(derive_seed(SEED, "reader", thread_id))
            last_epoch = -1
            start_gun.wait()
            while not stop.is_set():
                window_index = int(rng.integers(0, len(windows)))
                try:
                    result = service.execute(RangeQuery(windows[window_index]))
                except ServiceOverloadError:
                    continue
                except BaseException as exc:  # noqa: BLE001 - collected for the report
                    errors.append(exc)
                    return
                epoch = result.stats.epoch
                if epoch < last_epoch:
                    violations.append(
                        f"thread {thread_id}: epoch went backwards {last_epoch}->{epoch}"
                    )
                    return
                last_epoch = epoch
                payload = result.payload
                if len(set(payload)) != len(payload):
                    violations.append(
                        f"thread {thread_id}: duplicated uids at epoch {epoch}"
                    )
                    return
                if payload != answers[epoch][window_index]:
                    violations.append(
                        f"thread {thread_id}: torn read at epoch {epoch} window "
                        f"{window_index}: {len(payload)} uids vs "
                        f"{len(answers[epoch][window_index])} expected"
                    )
                    return
                reads_done[thread_id] += 1

        def writer() -> None:
            start_gun.wait()
            for index, batch in enumerate(batches):
                result = service.apply_many(batch)
                assert result.stats.epoch == index + 1
                # Let readers interleave with several epochs instead of
                # racing one instantaneous burst of writes.
                time.sleep(0.002)

        threads = [
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(N_READERS)
        ]
        writer_thread = threading.Thread(target=writer, name="writer")
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        alive = [t.name for t in [*threads, writer_thread] if t.is_alive()]

        try:
            assert not alive, f"threads stuck: {alive}"
            assert not errors, f"reader errors: {errors[:3]}"
            assert not violations, "\n".join(violations[:5])
            assert sum(reads_done) > 0, "no reader completed a single query"

            # Quiescent accounting: reads conserve, writes match the script.
            snap = service.telemetry.snapshot()
            assert (
                snap["completed"] + snap["rejected"] + snap["timed_out"] + snap["failed"]
                == snap["submitted"]
            )
            assert snap["failed"] == 0
            assert snap["mutation_batches"] == N_BATCHES
            assert snap["current_epoch"] == N_BATCHES == service.epoch
            applied = sum(len(b) for b in batches)
            assert snap["mutations_applied"] == applied
            assert snap["inserts"] + snap["deletes"] + snap["moves"] == applied

            # Post-churn ground truth: the final view answers like the model.
            for window_index, window in enumerate(windows):
                got = service.execute(RangeQuery(window))
                assert got.stats.epoch == N_BATCHES
                assert got.payload == answers[N_BATCHES][window_index]
        finally:
            service.close()

    def test_knn_readers_during_churn_get_k_live_answers(self):
        """KNN answers under churn are internally consistent: k unique live
        uids of the stamped epoch (distance order checked by the oracle
        suite; here the epoch-membership property is the target)."""
        objects, _windows, batches, _answers = build_script()
        live_by_epoch: list[set[int]] = []
        model = {o.uid: o for o in objects}
        live_by_epoch.append(set(model))
        for batch in batches:
            for mutation in batch:
                if isinstance(mutation, Insert):
                    model[mutation.obj.uid] = mutation.obj
                elif isinstance(mutation, Delete):
                    del model[mutation.uid]
                else:
                    model[mutation.uid] = mutation.obj
            live_by_epoch.append(set(model))

        service = ShardedEngine.from_objects(
            objects,
            num_shards=2,
            page_capacity=12,
            max_in_flight=4,
            max_queued=128,
        )
        violations: list[str] = []
        stop = threading.Event()
        k = 9

        def reader() -> None:
            rng = make_rng(derive_seed(SEED, "knn-reader"))
            while not stop.is_set():
                point = tuple(float(v) for v in rng.uniform(0.0, WORLD, size=3))
                query = KNNQuery(AABB.from_center_extent(point, 1.0).center(), k)
                try:
                    result = service.execute(query)
                except ServiceOverloadError:
                    continue
                uids = [uid for uid, _ in result.payload]
                live = live_by_epoch[result.stats.epoch]
                if len(uids) != min(k, len(live)) or len(set(uids)) != len(uids):
                    violations.append(f"bad knn cardinality at epoch {result.stats.epoch}")
                    return
                if not set(uids) <= live:
                    violations.append(
                        f"knn returned dead uids at epoch {result.stats.epoch}: "
                        f"{sorted(set(uids) - live)[:5]}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for batch in batches:
                service.apply_many(batch)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            service.close()
        assert not violations, "\n".join(violations[:5])
