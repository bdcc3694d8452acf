"""In-place sharded writes: warm shard engines behind the epoch gate.

A mutation batch applies on each touched shard's long-lived engine instead
of rebuilding it, and one writer-preferring gate keeps every query's
fan-out inside a single epoch.  This file pins:

* **warm engines** — after ``apply_many`` each shard keeps the very same
  engine object with its indexes still built, and no engine or arena is
  constructed unless the batch re-tiled (a count, not a timing);
* **the gate** — a writer waits for the query in flight, and a query that
  arrives while the writer waits queues behind it; a write waits for a
  subtask abandoned by a missed deadline; a query that raises releases
  the gate;
* **committed batches** — a batch that drains a shard part way through
  (and refills it) applies whole and replays on recovery;
* **one thread per query** — shard subtasks run in order on the calling
  thread: a missed deadline waits for the running subtask and starts no
  later one, a failing shard stops the fan-out, and no query of any kind
  starts a thread.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro
from repro.engine import Delete, Insert, KNNQuery, Move, RangeQuery, SpatialJoin, Walkthrough
from repro.engine.engine import SpatialEngine
from repro.errors import ServiceError, ServiceTimeoutError
from repro.geometry.aabb import AABB
from repro.neuro.circuit import generate_circuit
from repro.objects import BoxObject
from repro.service import ShardedEngine
from repro.storage.arena import ColumnarArena
from repro.utils.rng import derive_seed, make_rng

JOIN_S = 10.0


@pytest.fixture(scope="module")
def circuit():
    return generate_circuit(n_neurons=8, seed=4242)


def everything(circuit) -> AABB:
    return circuit.bounding_box().expanded(50.0)


def live_uids(circuit, deleted=(), inserted=()) -> list[int]:
    gone = set(deleted)
    return sorted([o.uid for o in circuit.segments() if o.uid not in gone] + list(inserted))


def fresh_box(uid: int, near: AABB) -> BoxObject:
    return BoxObject(uid=uid, box=AABB.from_center_extent(near.center(), 1.0))


def wait_until(predicate, timeout_s: float = JOIN_S) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


class TestWarmEngines:
    @pytest.fixture()
    def construction_counts(self, monkeypatch):
        """Count SpatialEngine and ColumnarArena.from_objects constructions."""
        counts = {"engines": 0, "arenas": 0}
        engine_init = SpatialEngine.__init__
        arena_from_objects = ColumnarArena.from_objects.__func__

        def counting_init(self, *args, **kwargs):
            counts["engines"] += 1
            engine_init(self, *args, **kwargs)

        def counting_from_objects(cls, objects):
            counts["arenas"] += 1
            return arena_from_objects(cls, objects)

        monkeypatch.setattr(SpatialEngine, "__init__", counting_init)
        monkeypatch.setattr(ColumnarArena, "from_objects", classmethod(counting_from_objects))
        return counts

    def test_apply_many_keeps_every_shard_engine_warm(self, circuit, construction_counts):
        with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=2) as service:
            service.warm()
            engines = [shard.engine for shard in service.shards]
            construction_counts.update(engines=0, arenas=0)
            victims = [engine.objects[0].uid for engine in engines]
            mover = engines[1].objects[1]
            batch = [
                Delete(victims[0]),
                Delete(victims[1]),
                Move(mover.uid, fresh_box(mover.uid, mover.aabb)),
                Insert(fresh_box(900_001, engines[0].objects[2].aabb)),
            ]
            result = service.apply_many(batch)

            assert not result.stats.rebalanced
            assert result.stats.shards_touched == 2
            assert all(s.engine is e for s, e in zip(service.shards, engines))
            for shard in service.shards:
                assert all(shard.engine.indexes_built.values())
            assert construction_counts == {"engines": 0, "arenas": 0}
            payload = service.execute(RangeQuery(everything(circuit))).payload
            assert payload == live_uids(circuit, deleted=victims, inserted=[900_001])

    def test_only_a_retile_constructs_engines(self, circuit, construction_counts):
        with ShardedEngine(
            circuit.segments(), circuit=circuit, num_shards=2, rebalance_threshold=1.0
        ) as service:
            service.warm()
            construction_counts.update(engines=0, arenas=0)
            victims = [o.uid for o in service.shards[0].engine.objects]
            result = service.apply_many([Delete(uid) for uid in victims])
            assert result.stats.rebalanced
            assert construction_counts["engines"] == service.num_shards
            payload = service.execute(RangeQuery(everything(circuit))).payload
            assert payload == live_uids(circuit, deleted=victims)


class TestEpochGate:
    def test_writer_waits_for_reader_and_later_readers_queue_behind_it(self, circuit):
        with ShardedEngine(
            circuit.segments(), circuit=circuit, num_shards=2, max_in_flight=4
        ) as service:
            window = everything(circuit)
            held = service.shards[0].engine
            original = held.execute
            entered, release = threading.Event(), threading.Event()

            def holding(query):
                entered.set()
                release.wait(JOIN_S)
                return original(query)

            held.execute = holding
            victim = held.objects[0].uid
            results: dict[str, object] = {}

            def run(name, call):
                results[name] = call()

            first = threading.Thread(
                target=run, args=("first", lambda: service.execute(RangeQuery(window)))
            )
            first.start()
            assert entered.wait(JOIN_S)
            writer = threading.Thread(
                target=run, args=("write", lambda: service.apply_many([Delete(victim)]))
            )
            writer.start()
            # The writer validated and is now parked on the gate behind the
            # in-flight reader.
            wait_until(lambda: service._gate._writers_waiting == 1)
            late = threading.Thread(
                target=run, args=("late", lambda: service.execute(RangeQuery(window)))
            )
            late.start()
            time.sleep(0.05)
            assert writer.is_alive() and late.is_alive()
            assert service.epoch == 0
            release.set()
            for thread in (first, writer, late):
                thread.join(JOIN_S)
                assert not thread.is_alive()

            assert results["first"].stats.epoch == 0
            assert victim in results["first"].payload
            assert results["write"].stats.epoch == 1
            # The late reader queued behind the waiting writer: it sees the
            # write, not the epoch that was current when it arrived.
            assert results["late"].stats.epoch == 1
            assert results["late"].payload == live_uids(circuit, deleted=[victim])

    def test_no_torn_reads_under_contended_writers(self):
        """Readers and two writers, with the interpreter switching threads
        every few microseconds.  Every batch inserts one object, deletes
        another and moves a third — count-neutral, but spread across
        shards — so a read that saw part of a batch would not return
        exactly ``N`` distinct uids."""
        n_objects, n_readers, n_writers, n_batches = 120, 6, 2, 100
        rng = make_rng(derive_seed(2013, "gate", "init"))

        def box(uid: int, rng) -> BoxObject:
            center = tuple(float(v) for v in rng.uniform(0.0, 60.0, size=3))
            return BoxObject(uid=uid, box=AABB.from_center_extent(center, 2.0))

        objects = [box(uid, rng) for uid in range(n_objects)]
        window = AABB(-10.0, -10.0, -10.0, 70.0, 70.0, 70.0)
        service = ShardedEngine(
            objects, num_shards=4, max_in_flight=n_readers, max_queued=n_readers * 4
        )
        failures: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            last_epoch = -1
            while not stop.is_set():
                result = service.execute(RangeQuery(window))
                payload, epoch = result.payload, result.stats.epoch
                if len(payload) != n_objects or len(set(payload)) != n_objects:
                    failures.append(f"epoch {epoch}: {len(payload)} uids")
                if epoch < last_epoch:
                    failures.append(f"epoch went back from {last_epoch} to {epoch}")
                last_epoch = epoch

        def writer(writer_id: int) -> None:
            # Each writer churns its own residue class of uids.
            wrng = make_rng(derive_seed(2013, "gate", writer_id))
            mine = [uid for uid in range(n_objects) if uid % n_writers == writer_id]
            next_uid = 1_000_000 * (writer_id + 1)
            for _ in range(n_batches):
                victim = mine.pop(int(wrng.integers(0, len(mine))))
                mover = mine[int(wrng.integers(0, len(mine)))]
                service.apply_many(
                    [Insert(box(next_uid, wrng)), Delete(victim), Move(mover, box(mover, wrng))]
                )
                mine.append(next_uid)
                next_uid += 1

        def recording(body, *args):
            def run() -> None:
                try:
                    body(*args)
                except Exception as error:  # surfaced through ``failures``
                    failures.append(repr(error))
                    stop.set()

            return threading.Thread(target=run)

        readers = [recording(reader) for _ in range(n_readers)]
        writers = [recording(writer, i) for i in range(n_writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                for thread in readers + writers:
                    thread.start()
                for thread in writers:
                    thread.join(60.0)
                    assert not thread.is_alive()
                stop.set()
                for thread in readers:
                    thread.join(JOIN_S)
                    assert not thread.is_alive()
                assert service.epoch == n_writers * n_batches
                assert sum(s.engine.num_objects for s in service.shards) == n_objects
                assert sorted(service.execute(RangeQuery(window)).payload) == sorted(
                    o.uid for o in service.objects
                )
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_write_waits_for_a_subtask_abandoned_by_a_timeout(self, circuit):
        with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=2) as service:
            window = everything(circuit)
            slow = service.shards[0].engine
            victim = slow.objects[0].uid
            original_execute, original_apply = slow.execute, slow.apply_many
            log: list[str] = []

            def sluggish(query):
                log.append("read-start")
                time.sleep(0.5)
                result = original_execute(query)
                log.append("read-end" if victim in result.payload else "read-torn")
                return result

            def logged_apply(mutations):
                log.append("apply")
                return original_apply(mutations)

            slow.execute = sluggish
            slow.apply_many = logged_apply
            with pytest.raises(ServiceTimeoutError):
                service.execute(RangeQuery(window), timeout_s=0.1)
            # The query gave up and released the gate, but its shard-0
            # subtask is still reading; the write must not race it.
            service.apply_many([Delete(victim)])
            assert log == ["read-start", "read-end", "apply"]

            slow.execute = original_execute
            result = service.execute(RangeQuery(window))
            assert result.stats.epoch == 1
            assert result.payload == live_uids(circuit, deleted=[victim])

    def test_a_query_that_raises_releases_the_gate(self, circuit):
        with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=2) as service:
            broken = service.shards[1].engine
            original = broken.execute

            def failing(query):
                raise RuntimeError("injected shard fault")

            broken.execute = failing
            with pytest.raises(ServiceError, match="injected shard fault"):
                service.execute(RangeQuery(everything(circuit)))
            with pytest.raises(ServiceError, match="cannot execute query"):
                service.execute(object())
            broken.execute = original

            victim = broken.objects[0].uid
            writer = threading.Thread(target=service.apply_many, args=([Delete(victim)],))
            writer.start()
            writer.join(JOIN_S)
            assert not writer.is_alive(), "apply_many hung on a gate a failed query kept"
            assert service.epoch == 1
            payload = service.execute(RangeQuery(everything(circuit))).payload
            assert payload == live_uids(circuit, deleted=[victim])


class TestCommittedBatches:
    def test_a_batch_that_drains_a_shard_part_way_applies_whole(self, tmp_path):
        # An engine refuses to delete its last object, so a shard emptied
        # part way through a batch must re-tile even though the batch's
        # net sizes ([1, 6]) are balanced.
        objects = [
            BoxObject(uid=i, box=AABB.from_center_extent((10.0 * i, 0.0, 0.0), 1.0))
            for i in range(12)
        ]
        world = AABB.union_all(o.aabb for o in objects).expanded(50.0)
        root = tmp_path / "svc"
        service = repro.create(objects, root, sharded=True, num_shards=2)
        try:
            drained = service.shards[0]
            doomed = [o.uid for o in drained.engine.objects]
            # Placed where a deleted object was, so it routes back there.
            newcomer = fresh_box(100, drained.engine.objects[0].aabb)
            assert service._route_insert(service._view, newcomer) == drained.spec.shard_id
            result = service.apply_many([Delete(uid) for uid in doomed] + [Insert(newcomer)])
            assert result.stats.rebalanced
            expected = sorted({o.uid for o in objects} - set(doomed) | {100})
            hits = service.execute(RangeQuery(world))
            assert hits.stats.epoch == service.epoch == 1
            assert hits.payload == expected
        finally:
            service.close()
        recovered = repro.open(root, sharded=True)
        try:
            assert recovered.epoch == 1
            assert recovered.execute(RangeQuery(world)).payload == expected
        finally:
            recovered.close()


class TestCallerThreadFanOut:
    @staticmethod
    def logged(engine, log: list[str], name: str, before=None) -> None:
        """Log each ``engine.execute`` call as ``name`` start and end."""
        original = engine.execute

        def execute(query):
            log.append(f"{name}-start")
            if before is not None:
                before()
            result = original(query)
            log.append(f"{name}-end")
            return result

        engine.execute = execute

    def test_a_missed_deadline_waits_for_the_running_subtask(self, circuit):
        with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=2) as service:
            log: list[str] = []
            self.logged(service.shards[0].engine, log, "shard0", lambda: time.sleep(0.25))
            self.logged(service.shards[1].engine, log, "shard1")
            with pytest.raises(ServiceTimeoutError):
                service.execute(RangeQuery(everything(circuit)), timeout_s=0.05)
            # Shard 0's call returned before the raise; shard 1 never ran.
            assert log == ["shard0-start", "shard0-end"]
            assert service.telemetry.snapshot()["timed_out"] == 1

    def test_a_failing_shard_stops_the_fan_out(self, circuit):
        with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=2) as service:
            log: list[str] = []

            def fail():
                time.sleep(0.1)  # time enough for a concurrent shard 1 to start
                raise RuntimeError("injected shard fault")

            self.logged(service.shards[0].engine, log, "shard0", fail)
            self.logged(service.shards[1].engine, log, "shard1")
            with pytest.raises(ServiceError, match="injected shard fault") as raised:
                service.execute(RangeQuery(everything(circuit)))
            assert raised.value.shard_id == 0
            assert log == ["shard0-start"]

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_no_query_starts_a_thread(self, circuit, shards):
        world = everything(circuit)
        centre = world.center()
        windows = tuple(
            AABB.from_center_extent((centre.x + step * 20.0, centre.y, centre.z), 60.0)
            for step in range(3)
        )
        queries = [
            RangeQuery(world),
            KNNQuery(centre, 8),
            SpatialJoin(eps=2.0),
            Walkthrough(windows),
        ]
        with ShardedEngine(circuit.segments(), circuit=circuit, num_shards=shards) as service:
            results = service.query_many(queries)
            names = [thread.name for thread in threading.enumerate()]
        assert [r.stats.kind for r in results] == ["range", "knn", "join", "walk"]
        assert not [name for name in names if name.startswith("repro-shard")]
