"""The network front door, in-process: protocol, sessions, durability.

Everything here runs the server on a background thread inside this
process (``serve_in_background``) — fast enough for tier-1.  The
multi-process differential and failover live in
``test_server_replication.py``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

import repro
from repro.durability import read_wal
from repro.engine.mutations import Delete, Insert, Move
from repro.engine.queries import KNNQuery, RangeQuery, SpatialJoin, Walkthrough
from repro.errors import (
    NotPrimaryError,
    ProtocolError,
    ServerError,
    ServiceError,
    ServiceOverloadError,
)
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.objects import BoxObject
from repro.server import (
    Client,
    bootstrap_replica,
    serve_in_background,
)
from repro.server import protocol
from repro.service.sharded import ShardedEngine

WORLD = AABB(-600.0, -600.0, -600.0, 600.0, 600.0, 600.0)


@pytest.fixture(scope="module")
def service():
    svc = ShardedEngine.generate(n_neurons=8, seed=3, num_shards=2, max_queued=64)
    yield svc


@pytest.fixture(scope="module")
def server(service):
    with serve_in_background(service) as handle:
        yield handle


@pytest.fixture
def client(server):
    with Client(server.host, server.port, timeout_s=30.0) as c:
        c.hello()
        yield c


def _fresh_service(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("max_queued", 64)
    return ShardedEngine.generate(n_neurons=6, seed=11, **kwargs)


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"v": 1, "type": "hello", "id": 7, "name": "x"}
        encoded = protocol.encode_frame(message)
        length = protocol.frame_length(encoded[: protocol.LENGTH_PREFIX.size])
        assert length == len(encoded) - protocol.LENGTH_PREFIX.size
        assert protocol.decode_frame(encoded[protocol.LENGTH_PREFIX.size :]) == message

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.frame_length(
                protocol.LENGTH_PREFIX.pack(protocol.MAX_FRAME_BYTES + 1)
            )

    def test_non_json_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"[1, 2, 3]")  # an object, not an array

    def test_version_check(self):
        with pytest.raises(ProtocolError):
            protocol.check_version({"v": 99, "type": "hello"})

    @pytest.mark.parametrize(
        "query",
        [
            RangeQuery(AABB(0, 1, 2, 3, 4, 5), strategy="rtree"),
            KNNQuery(Vec3(1.5, -2.25, 3.0), 7),
            SpatialJoin(eps=2.5, strategy="plane-sweep", refine=True),
            SpatialJoin(
                eps=1.0,
                side_a=(BoxObject(uid=1, box=AABB(0, 0, 0, 1, 1, 1)),),
                side_b=(BoxObject(uid=2, box=AABB(0, 0, 0, 2, 2, 2)),),
            ),
            Walkthrough(
                (AABB(0, 0, 0, 1, 1, 1), AABB(1, 1, 1, 2, 2, 2)),
                strategy="hilbert",
                cold_cache=False,
                budget_pages=7,
            ),
        ],
        ids=["range", "knn", "join-default", "join-sided", "walk"],
    )
    def test_query_codec_round_trip(self, query):
        assert protocol.decode_query(protocol.encode_query(query)) == query

    def test_dataset_self_join_needs_a_resolver(self):
        record = {"k": "join", "eps": 1.0, "sides": "dataset"}
        with pytest.raises(ProtocolError):
            protocol.decode_query(record)
        objs = (BoxObject(uid=1, box=AABB(0, 0, 0, 1, 1, 1)),)
        query = protocol.decode_query(record, dataset=lambda: objs)
        assert query.side_a == objs and query.side_b == objs

    def test_unknown_query_kind_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_query({"k": "teleport"})

    @pytest.mark.parametrize(
        ("kind", "payload"),
        [
            ("range", [1, 2, 3]),
            ("knn", [(4, 1.25), (5, 2.5)]),
            ("join", [(1, 2), (3, 4)]),
            ("walk", [[1, 2], [], [3]]),
        ],
    )
    def test_payload_codec_round_trip(self, kind, payload):
        import json

        wire = protocol.encode_payload(kind, payload)
        assert protocol.decode_payload(kind, json.loads(json.dumps(wire))) == payload


class TestRequests:
    def test_welcome_describes_the_server(self, client, service):
        welcome = client.server_info
        assert welcome["protocol"] == protocol.PROTOCOL_VERSION
        assert welcome["role"] == "primary"
        assert welcome["num_objects"] == service.num_objects
        assert welcome["num_shards"] == service.num_shards

    @pytest.mark.parametrize(
        "query",
        [
            RangeQuery(WORLD),
            KNNQuery(Vec3(0.0, 0.0, 0.0), 6),
            Walkthrough((AABB(-80, -80, -80, 80, 80, 80), WORLD)),
        ],
        ids=["range", "knn", "walk"],
    )
    def test_remote_answer_equals_direct_answer(self, client, service, query):
        remote = client.query(query)
        direct = service.execute(query)
        assert remote.payload == direct.payload
        assert remote.kind == direct.stats.kind

    def test_self_join_equals_direct_dataset_join(self, client, service):
        remote = client.self_join(2.0)
        epoch, objects = service.snapshot_objects()
        direct = service.execute(
            SpatialJoin(eps=2.0, side_a=tuple(objects), side_b=tuple(objects))
        )
        assert remote.payload == direct.payload

    def test_pipelined_batch_comes_back_in_order(self, client, service):
        queries = [
            RangeQuery(WORLD),
            KNNQuery(Vec3(10.0, 10.0, 10.0), 3),
            RangeQuery(AABB(-50, -50, -50, 50, 50, 50)),
        ]
        remote = client.query_many(queries)
        direct = [service.execute(q) for q in queries]
        assert [r.payload for r in remote] == [d.payload for d in direct]

    def test_responses_are_epoch_stamped(self, client, service):
        result = client.query(RangeQuery(WORLD))
        assert result.epoch == service.epoch

    def test_stats_snapshot(self, client, service):
        reply = client.stats()
        assert reply["role"] == "primary"
        assert reply["num_objects"] == service.num_objects
        assert reply["admission"]["in_flight"] == 0
        assert "telemetry" in reply

    def test_bad_query_record_is_an_error_not_a_hang(self, client):
        request_id = client._send(
            {"type": "query", "query": {"k": "range", "box": [1, 2]}}
        )
        with pytest.raises(ServerError):
            client._read_matching(request_id)
        # The connection survives the failed request.
        assert client.query(RangeQuery(WORLD)).payload is not None

    def test_unknown_frame_type_is_a_protocol_error(self, client):
        request_id = client._send({"type": "frobnicate"})
        with pytest.raises(ServerError) as excinfo:
            client._read_matching(request_id)
        assert excinfo.value.code == "protocol"

    def test_checkpoint_without_durability_root_fails_cleanly(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.checkpoint()
        assert excinfo.value.code == "no-durability"


class TestWritePath:
    def test_mutate_publishes_and_read_your_writes(self, tmp_path):
        svc = _fresh_service()
        with serve_in_background(svc) as handle:
            with Client(handle.host, handle.port) as c:
                c.hello()
                uid = 1_000_000
                epoch = c.mutate(
                    [Insert(BoxObject(uid=uid, box=AABB(0, 0, 0, 2, 2, 2)))]
                )
                result = c.query(RangeQuery(WORLD), min_epoch=epoch)
                assert uid in result.payload
                assert result.epoch >= epoch
                epoch = c.mutate(
                    [
                        Move(uid, BoxObject(uid=uid, box=AABB(5, 5, 5, 6, 6, 6))),
                        Delete(uid),
                    ]
                )
                result = c.query(RangeQuery(WORLD), min_epoch=epoch)
                assert uid not in result.payload

    def test_acked_write_is_journaled_before_the_ack(self, tmp_path):
        svc = repro.create(
            ShardedEngine.generate(n_neurons=5, seed=2, num_shards=2).objects,
            tmp_path / "wal",
            sharded=True,
            num_shards=2,
        )
        with serve_in_background(svc, root=tmp_path / "wal") as handle:
            with Client(handle.host, handle.port) as c:
                c.hello()
                epoch = c.mutate(
                    [Insert(BoxObject(uid=77_000, box=AABB(0, 0, 0, 1, 1, 1)))]
                )
                # The ack means the batch is already durable on disk: a
                # reader that scans the WAL *now* sees it.
                scan = read_wal(tmp_path / "wal" / "wal")
                assert scan.last_seq == epoch
                assert any(
                    isinstance(m, Insert) and m.obj.uid == 77_000
                    for _seq, batch in scan.batches
                    for m in batch
                )
                reply = c.checkpoint()
                assert reply["epoch"] == epoch

    def test_invalid_batch_is_an_engine_error(self):
        svc = _fresh_service()
        with serve_in_background(svc) as handle:
            with Client(handle.host, handle.port) as c:
                c.hello()
                with pytest.raises(ServerError) as excinfo:
                    c.mutate([Delete(999_999_999)])
                assert excinfo.value.code == "engine"
                # Nothing published, nothing half-applied.
                assert svc.epoch == 0

    def test_min_epoch_never_reached_times_out_as_epoch_behind(self, client):
        request_id = client._send(
            {
                "type": "query",
                "query": {"k": "range", "box": protocol.encode_box(WORLD)},
                "min_epoch": 10_000,
                "epoch_wait_s": 0.1,
            }
        )
        with pytest.raises(ServerError) as excinfo:
            client._read_matching(request_id)
        assert excinfo.value.code == "epoch-behind"

    def test_explicit_zero_epoch_wait_is_a_no_wait_probe(self, client):
        # An explicit 0 must not fall back to the server's 10s default.
        start = time.perf_counter()
        for frame_type in ("query", "stats"):
            message = {"type": frame_type, "min_epoch": 10_000, "epoch_wait_s": 0}
            if frame_type == "query":
                message["query"] = {"k": "range", "box": protocol.encode_box(WORLD)}
            with pytest.raises(ServerError) as excinfo:
                client._read_matching(client._send(message))
            assert excinfo.value.code == "epoch-behind"
        assert time.perf_counter() - start < 5.0


class TestBackpressure:
    def test_admission_overload_is_a_structured_busy(self):
        svc = _fresh_service(max_in_flight=1, max_queued=0, queue_timeout_s=1.0)
        with serve_in_background(svc) as handle:
            # Hold the only slot so every arriving query must be rejected.
            svc.admission.admit()
            try:
                with Client(handle.host, handle.port) as c:
                    c.hello()
                    with pytest.raises(ServiceOverloadError):
                        c.query(RangeQuery(WORLD))
                    # The connection survives the rejection.
                    assert c.stats()["admission"]["rejected"] >= 1
            finally:
                svc.admission.release()

    def test_session_queue_overrun_is_busy_not_disconnect(self):
        svc = _fresh_service()
        with serve_in_background(svc, session_queue=1) as handle:
            with Client(handle.host, handle.port) as c:
                c.hello()
                # Flood without reading: the per-connection queue (1) plus
                # the request being executed cannot hold 40 pipelined
                # queries, so some must come back busy — and the
                # connection must stay up through all of it.
                ids = [
                    c._send(
                        {
                            "type": "query",
                            "query": {
                                "k": "range",
                                "box": protocol.encode_box(WORLD),
                            },
                        }
                    )
                    for _ in range(40)
                ]
                busy = 0
                answered = 0
                for request_id in ids:
                    try:
                        reply = c._read_matching(request_id)
                        answered += 1
                    except ServiceOverloadError:
                        busy += 1
                assert busy > 0, "flood never hit the session queue bound"
                assert answered > 0, "backpressure starved every request"
                # And the session still works.
                assert c.query(RangeQuery(WORLD)).payload is not None

    def test_stalled_subscriber_is_dropped_not_buffered_unboundedly(self):
        """A replica that stops draining its queue must be disconnected,
        not allowed to accumulate every published epoch in primary
        memory (it re-bootstraps via from_epoch catch-up)."""
        from repro.server.server import ReproServer, _Session

        svc = _fresh_service()
        try:
            server = ReproServer(svc, subscriber_queue=1, banner=False)

            class _ClosableWriter:
                closed = False

                def close(self):
                    self.closed = True

            writer = _ClosableWriter()
            session = _Session(writer, queue_size=4)
            session.subscriber_queue = asyncio.Queue(maxsize=server.subscriber_queue)
            server._subscribers[session.subscriber_queue] = session
            server._sessions.add(session)

            server._publish_epoch(1, [])  # fills the bounded queue
            server._publish_epoch(2, [])  # overflow: the subscriber is cut loose
            assert session.subscriber_queue not in server._subscribers
            assert session not in server._sessions
            assert writer.closed
        finally:
            svc.close()


    def test_self_join_waiting_on_the_epoch_gate_leaves_the_loop_responsive(self):
        """A dataset self-join resolves its sides under the service's epoch
        gate, which queues behind a waiting writer; that wait must happen
        off the event loop, so other connections are still answered."""
        svc = _fresh_service()
        held = svc.shards[0].engine
        original = held.execute
        entered, release = threading.Event(), threading.Event()

        def holding(query):
            entered.set()
            release.wait(10.0)
            return original(query)

        results: dict[str, object] = {}
        threads: list[threading.Thread] = []

        def run(name, call):
            thread = threading.Thread(target=lambda: results.__setitem__(name, call()))
            thread.start()
            threads.append(thread)

        victim = held.objects[0].uid
        with serve_in_background(svc) as handle:
            with (
                Client(handle.host, handle.port, timeout_s=10.0) as reader,
                Client(handle.host, handle.port, timeout_s=10.0) as joiner,
                Client(handle.host, handle.port, timeout_s=2.0) as prober,
            ):
                for c in (reader, joiner, prober):
                    c.hello()
                held.execute = holding
                try:
                    run("read", lambda: reader.query(RangeQuery(WORLD)))
                    assert entered.wait(10.0)
                    run("write", lambda: svc.apply_many([Delete(victim)]))
                    deadline = time.monotonic() + 10.0
                    while svc._gate._writers_waiting != 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                    run("join", lambda: joiner.self_join(2.0))
                    time.sleep(0.1)
                    assert prober.stats()["role"] == "primary"
                    assert "join" not in results
                finally:
                    release.set()
                    for thread in threads:
                        thread.join(10.0)
                        assert not thread.is_alive()
                    held.execute = original
        assert results["read"].epoch == 0
        assert results["join"].epoch == 1


class TestAdmissionUnderChurn:
    """Satellite: a client that vanishes mid-queue must release its slot."""

    def test_no_slot_leak_after_100_churned_connections(self):
        svc = _fresh_service(max_in_flight=2, max_queued=64)
        with serve_in_background(svc) as handle:
            window = protocol.encode_box(WORLD)
            for round_number in range(100):
                sock = socket.create_connection((handle.host, handle.port))
                # Pipeline a few queries and vanish without reading any
                # response — mid-queue, mid-execution, the server must
                # still run each request to completion (or drop it) and
                # release its admission slot.
                for request_id in range(3):
                    sock.sendall(
                        protocol.encode_frame(
                            {
                                "v": protocol.PROTOCOL_VERSION,
                                "id": request_id,
                                "type": "query",
                                "query": {"k": "range", "box": window},
                            }
                        )
                    )
                sock.close()
            # Drain: wait for every straggler execution to finish, then
            # the gate must be fully released.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                snapshot = svc.admission.snapshot()
                if snapshot.in_flight == 0 and snapshot.queued == 0:
                    break
                time.sleep(0.05)
            snapshot = svc.admission.snapshot()
            assert snapshot.in_flight == 0, f"leaked slots: {snapshot}"
            assert snapshot.queued == 0, f"stuck waiters: {snapshot}"
            # And a well-behaved client still gets served.
            with Client(handle.host, handle.port) as c:
                c.hello()
                assert c.query(RangeQuery(WORLD)).payload is not None


class TestGracefulClose:
    """Satellite: close() drains in-flight queries and flushes the WAL."""

    def test_close_during_concurrent_queries_neither_deadlocks_nor_drops(self):
        svc = _fresh_service(num_shards=2)
        results: list = []
        errors: list = []
        started = threading.Event()

        def hammer():
            started.set()
            while True:
                try:
                    results.append(svc.execute(RangeQuery(WORLD)))
                except ServiceError:
                    return  # the close landed; refusal is the contract

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait()
        while not results:
            time.sleep(0.001)  # close mid-traffic, not before it
        svc.close()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads), "close deadlocked"
        assert results, "no query ever completed"
        # Closed means closed.
        with pytest.raises(ServiceError):
            svc.execute(RangeQuery(WORLD))

    def test_close_flushes_group_committed_acked_writes(self, tmp_path):
        svc = repro.create(
            ShardedEngine.generate(n_neurons=5, seed=2, num_shards=2).objects,
            tmp_path,
            sharded=True,
            num_shards=2,
            wal_kwargs={"flush_batches": 100},  # a wide group-commit window
        )
        concurrent_done = threading.Event()

        def reader():
            try:
                svc.execute(RangeQuery(WORLD))
            finally:
                concurrent_done.set()

        thread = threading.Thread(target=reader)
        svc.apply(Insert(BoxObject(uid=55_000, box=AABB(0, 0, 0, 1, 1, 1))))
        thread.start()
        svc.close()  # must drain the reader AND flush the buffered batch
        thread.join(timeout=10.0)
        assert concurrent_done.is_set()
        scan = read_wal(tmp_path / "wal")
        assert scan.last_seq == 1, "acked write lost by close()"

    def test_close_is_idempotent_and_usable_as_context_manager(self):
        svc = _fresh_service()
        with svc:
            svc.execute(RangeQuery(WORLD))
        svc.close()  # second close is a no-op


class TestEpochListeners:
    def test_listener_fires_once_per_published_epoch_in_order(self):
        svc = _fresh_service()
        seen: list[int] = []
        svc.add_epoch_listener(lambda epoch, mutations: seen.append(epoch))
        for step in range(3):
            svc.apply(
                Insert(BoxObject(uid=900_000 + step, box=AABB(0, 0, 0, 1, 1, 1)))
            )
        svc.apply_many([])  # empty batches publish nothing and fire nothing
        assert seen == [1, 2, 3]
        svc.close()

    def test_failed_batch_does_not_fire(self):
        svc = _fresh_service()
        seen: list[int] = []
        svc.add_epoch_listener(lambda epoch, mutations: seen.append(epoch))
        with pytest.raises(ServiceError):
            svc.apply(Delete(123_456_789))
        assert seen == []
        svc.close()

    def test_wal_listener_sees_newly_durable_batches(self, tmp_path):
        svc = repro.create(
            ShardedEngine.generate(n_neurons=5, seed=2, num_shards=2).objects,
            tmp_path,
            sharded=True,
            num_shards=2,
        )
        shipped: list[int] = []
        svc.wal.add_listener(
            lambda batches: shipped.extend(seq for seq, _batch in batches)
        )
        svc.apply(Insert(BoxObject(uid=66_000, box=AABB(0, 0, 0, 1, 1, 1))))
        svc.apply(Delete(66_000))
        assert shipped == [1, 2]
        assert list(svc.wal.tail(0)) == svc.wal.scan().batches
        assert [seq for seq, _b in svc.wal.tail(1)] == [2]
        svc.close()


class TestReplicationInProcess:
    def test_replica_tails_and_serves_epoch_consistent_reads(self):
        primary = _fresh_service()
        with serve_in_background(primary) as phandle:
            replica, tail = bootstrap_replica(phandle.host, phandle.port)
            tail.start()
            with serve_in_background(replica, role="replica", tail=tail) as rhandle:
                with Client(phandle.host, phandle.port) as pc, Client(
                    rhandle.host, rhandle.port
                ) as rc:
                    pc.hello()
                    welcome = rc.hello()
                    assert welcome["role"] == "replica"
                    for step in range(4):
                        epoch = pc.mutate(
                            [
                                Insert(
                                    BoxObject(
                                        uid=700_000 + step,
                                        box=AABB(step, step, step, step + 1, step + 1, step + 1),
                                    )
                                )
                            ]
                        )
                        on_primary = pc.query(RangeQuery(WORLD), min_epoch=epoch)
                        on_replica = rc.query(RangeQuery(WORLD), min_epoch=epoch)
                        assert on_replica.payload == on_primary.payload
                        assert on_replica.epoch == on_primary.epoch
                    with pytest.raises(NotPrimaryError):
                        rc.mutate([Delete(700_000)])
                    rc.promote()
                    assert rc.mutate([Delete(700_000)]) == epoch + 1
            assert tail.error is None

    def test_subscription_snapshot_is_epoch_consistent(self):
        primary = _fresh_service()
        with serve_in_background(primary) as handle:
            epoch = primary.apply(
                Insert(BoxObject(uid=800_000, box=AABB(0, 0, 0, 1, 1, 1)))
            ).stats.epoch
            client = Client(handle.host, handle.port)
            client.hello()
            subscription = client.subscribe()
            assert subscription.snapshot_epoch == epoch
            snapshot_uids = sorted(o.uid for o in subscription.objects)
            assert snapshot_uids == sorted(o.uid for o in primary.objects)
            subscription.close()
