"""``repro serve`` — the asyncio TCP front door of a sharded engine.

One :class:`ReproServer` fronts one :class:`~repro.service.ShardedEngine`
(optionally durable).  Per-connection sessions are *bounded queues*: each
connection gets a small request queue drained by one worker task, so a
client may pipeline requests but an unbounded flood gets a structured
``busy`` frame back, never a dropped connection.  Engine calls run on the
default executor (the engines are thread-safe and blocking); the asyncio
loop itself only frames, routes and backpressures.

Replication — WAL shipping
--------------------------
Every published epoch is pushed (via the engine's epoch hook, *after* the
WAL append on a durable primary) into the loop, which fans it out to
*bounded* subscriber queues and resolves ``min_epoch`` waits; a stalled
subscriber that overruns its queue is disconnected rather than allowed
to grow primary memory without bound.  A follower process
(``repro serve --replica-of HOST:PORT``) bootstraps from the primary's
epoch-consistent snapshot — or, when it brings its own durable state,
from the primary WAL's ``tail()`` — then applies shipped batches
epoch-by-epoch on a tailing thread.  Replies are stamped with their
epoch, so a client that wrote epoch ``E`` on the primary reads its own
write from any replica with ``min_epoch=E``.

Failover is a *promotion*: ``promote`` flips a replica's role to primary
(closing its tail), after which it accepts writes.  Because a primary
journals before acking, an operator that promotes the most-caught-up
follower loses no acknowledged write.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.durability.recovery import attach_journal, checkpoint
from repro.durability.serde import decode_batch, encode_batch, encode_object
from repro.engine.mutations import Mutation
from repro.errors import (
    EngineError,
    ProtocolError,
    ServerError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.obs import trace
from repro.obs.metrics import LATENCY_BUCKETS_MS, global_registry
from repro.server import protocol
from repro.server.client import Client, Subscription

_SRV_FRAME_LATENCY = global_registry().histogram(
    "repro_server_frame_latency_ms",
    "Wall time dispatching one request frame, by frame type.",
    label_names=("type",),
    buckets=LATENCY_BUCKETS_MS,
)
_SRV_BUSY = global_registry().counter(
    "repro_server_busy_rejections_total",
    "Frames answered with a structured busy, by rejection point.",
    label_names=("reason",),
)
_SRV_LAG_EPOCHS = global_registry().gauge(
    "repro_server_replica_lag_epochs",
    "Epochs the slowest connected replication subscriber is behind.",
)
_SRV_LAG_MS = global_registry().gauge(
    "repro_server_replica_lag_ms",
    "Age of the oldest epoch not yet shipped to the slowest subscriber.",
)

__all__ = [
    "ReproServer",
    "ReplicaTail",
    "ServerHandle",
    "bootstrap_replica",
    "serve_in_background",
]


class _Session:
    """One connection's state: its bounded queue and its worker task."""

    def __init__(self, writer: asyncio.StreamWriter, queue_size: int) -> None:
        self.writer = writer
        self.pending: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue(
            maxsize=queue_size
        )
        self.write_lock = asyncio.Lock()
        self.worker: asyncio.Task | None = None
        self.forwarder: asyncio.Task | None = None
        self.subscriber_queue: asyncio.Queue | None = None


class ReproServer:
    """An asyncio TCP server speaking the :mod:`repro.server.protocol`.

    Parameters
    ----------
    service:
        The fronted :class:`~repro.service.ShardedEngine`; its admission
        controller, deadlines and WAL do all the heavy lifting.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` once running — the banner line prints it too).
    role:
        ``"primary"`` accepts writes; ``"replica"`` rejects them with
        ``not-primary`` until promoted.
    root:
        The durability directory backing ``service`` (enables the
        ``checkpoint`` frame); ``None`` for a memory-only server.
    tail:
        The :class:`ReplicaTail` feeding a replica (stopped on promote
        and on shutdown).
    session_queue:
        Per-connection pending-request bound; a pipelining client that
        overruns it gets ``busy`` frames (bounded memory per connection).
    subscriber_queue:
        Bound on a replication subscriber's unsent-epoch queue.  A
        stalled or slow replica that falls this many epochs behind the
        publish stream is disconnected (bounded primary memory); it
        re-bootstraps with ``from_epoch`` WAL catch-up on reconnect.
    epoch_wait_s:
        Default cap on a ``min_epoch`` wait before an ``epoch-behind``
        error (clients may lower it per request).
    drain_timeout_s:
        Grace given to in-flight requests during shutdown before their
        connections are torn down.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        role: str = "primary",
        root: Any | None = None,
        tail: "ReplicaTail | None" = None,
        session_queue: int = 32,
        subscriber_queue: int = 1024,
        epoch_wait_s: float = 10.0,
        drain_timeout_s: float = 10.0,
        banner: bool = True,
        catalog: Any | None = None,
    ) -> None:
        if role not in ("primary", "replica"):
            raise ServerError(f"unknown server role {role!r}")
        self.service = service
        self.catalog = catalog  # repro.catalog.Catalog for cross-dataset joins
        self.host = host
        self.port = port
        self.role = role
        self.root = root
        self.tail = tail
        self.session_queue = session_queue
        self.subscriber_queue = subscriber_queue
        self.epoch_wait_s = epoch_wait_s
        self.drain_timeout_s = drain_timeout_s
        self.banner = banner
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._draining = False
        self._sessions: set[_Session] = set()
        self._subscribers: dict[asyncio.Queue, _Session] = {}
        self._epoch_waiters: list[tuple[int, asyncio.Future]] = []
        self._published_epoch = service.epoch
        self._subscriber_progress: dict[asyncio.Queue, int] = {}
        self._epoch_publish_times: deque[tuple[int, float]] = deque(maxlen=1024)

    # -- epoch plumbing ------------------------------------------------------
    def _epoch_hook(self, epoch: int, mutations: Sequence[Mutation]) -> None:
        """Engine epoch listener — runs on the *writing* thread.

        The batch is encoded here (under the mutation lock, preserving
        epoch order) and handed to the loop thread-safely; publish order
        on the loop matches epoch order because ``call_soon_threadsafe``
        preserves call order.
        """
        encoded = encode_batch(mutations)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._publish_epoch, epoch, encoded)

    def _publish_epoch(self, epoch: int, encoded: list[dict[str, Any]]) -> None:
        self._published_epoch = max(self._published_epoch, epoch)
        self._epoch_publish_times.append((epoch, time.monotonic()))
        for queue, session in list(self._subscribers.items()):
            try:
                queue.put_nowait((epoch, encoded))
            except asyncio.QueueFull:
                # A stalled replica must not grow primary memory without
                # bound: cut it loose — it re-bootstraps via from_epoch
                # WAL catch-up, which covers everything dropped here.
                self._teardown_session(session)
        still_waiting = []
        for target, future in self._epoch_waiters:
            if epoch >= target:
                if not future.done():
                    future.set_result(True)
            else:
                still_waiting.append((target, future))
        self._epoch_waiters = still_waiting
        self._update_lag_gauges()

    def _update_lag_gauges(self) -> None:
        """Replica lag of the *slowest* subscriber, in epochs and in age.

        ``lag_ms`` is how long ago the oldest epoch that subscriber has
        not yet received was published — the staleness bound an operator
        actually cares about during failover.  No subscribers means no
        replicas to lag: both gauges read 0.
        """
        if not self._subscriber_progress:
            _SRV_LAG_EPOCHS.set(0)
            _SRV_LAG_MS.set(0.0)
            return
        slowest = min(self._subscriber_progress.values())
        lag_epochs = max(0, self._published_epoch - slowest)
        _SRV_LAG_EPOCHS.set(lag_epochs)
        if lag_epochs == 0:
            _SRV_LAG_MS.set(0.0)
            return
        now = time.monotonic()
        for epoch, published_at in self._epoch_publish_times:
            if epoch > slowest:
                _SRV_LAG_MS.set((now - published_at) * 1000.0)
                return
        _SRV_LAG_MS.set(0.0)

    def _current_epoch(self) -> int:
        # The service's own epoch covers batches a replica applied before
        # this server's hook registered; the published epoch covers hooks
        # already queued to the loop.
        return max(self._published_epoch, self.service.epoch)

    async def _await_epoch(self, target: int, timeout_s: float) -> bool:
        if self._current_epoch() >= target:
            return True
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        self._epoch_waiters.append((target, future))
        try:
            await asyncio.wait_for(future, timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            self._epoch_waiters = [
                (t, f) for t, f in self._epoch_waiters if f is not future
            ]
            return False

    # -- request handling ----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(writer, self.session_queue)
        session.worker = asyncio.ensure_future(self._session_worker(session))
        self._sessions.add(session)
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(reader)
                except ProtocolError:
                    break  # a torn or oversized frame poisons only this session
                if frame is None:
                    break
                if self._draining:
                    await self._send(
                        session,
                        self._error_frame(frame, "shutting-down", "server is draining"),
                    )
                    continue
                if session.pending.full():
                    # Session backpressure: the bounded per-connection queue
                    # is the batching window; past it the client hears a
                    # structured busy, the connection stays up.
                    _SRV_BUSY.labels(reason="session-queue").inc()
                    await self._send(
                        session,
                        self._busy_frame(
                            frame,
                            f"session queue full ({self.session_queue} pending)",
                        ),
                    )
                    continue
                session.pending.put_nowait(frame)
        finally:
            self._teardown_session(session)

    def _teardown_session(self, session: _Session) -> None:
        self._sessions.discard(session)
        if session.subscriber_queue is not None:
            self._subscribers.pop(session.subscriber_queue, None)
            self._subscriber_progress.pop(session.subscriber_queue, None)
        if session.forwarder is not None:
            session.forwarder.cancel()
        if session.worker is not None and not self._draining:
            session.worker.cancel()
        with contextlib.suppress(Exception):
            session.writer.close()

    async def _session_worker(self, session: _Session) -> None:
        while True:
            frame = await session.pending.get()
            if frame is None:  # drain sentinel
                return
            started = time.perf_counter()
            try:
                reply = await self._dispatch(frame, session)
            except ProtocolError as error:
                reply = self._error_frame(frame, "protocol", str(error))
            except ServiceOverloadError as error:
                _SRV_BUSY.labels(reason="admission").inc()
                reply = self._busy_frame(frame, str(error))
            except ServiceTimeoutError as error:
                reply = self._error_frame(frame, "timeout", str(error))
            except EngineError as error:
                reply = self._error_frame(frame, "engine", str(error))
            except asyncio.CancelledError:
                raise
            except Exception as error:  # a bug must not silently hang clients
                reply = self._error_frame(
                    frame, "internal", f"{type(error).__name__}: {error}"
                )
            _SRV_FRAME_LATENCY.labels(type=str(frame.get("type"))).observe(
                (time.perf_counter() - started) * 1000.0
            )
            if reply is not None:
                try:
                    await self._send(session, reply)
                except (ConnectionError, OSError):
                    return  # the client vanished; the engine work is done

    async def _send(self, session: _Session, message: dict[str, Any]) -> None:
        async with session.write_lock:
            session.writer.write(protocol.encode_frame(message))
            await session.writer.drain()

    @staticmethod
    def _reply(frame: dict[str, Any], frame_type: str, **fields: Any) -> dict[str, Any]:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": frame_type,
            "re": frame.get("id"),
            **fields,
        }

    @classmethod
    def _busy_frame(cls, frame: dict[str, Any], message: str) -> dict[str, Any]:
        return cls._reply(frame, "busy", message=message)

    @classmethod
    def _error_frame(
        cls, frame: dict[str, Any], code: str, message: str
    ) -> dict[str, Any]:
        return cls._reply(frame, "error", code=code, message=message)

    async def _run_blocking(self, fn: Callable, *args: Any) -> Any:
        assert self._loop is not None
        return await self._loop.run_in_executor(None, functools.partial(fn, *args))

    async def _dispatch(
        self, frame: dict[str, Any], session: _Session
    ) -> dict[str, Any] | None:
        protocol.check_version(frame)
        kind = frame.get("type")
        if kind == "hello":
            return self._reply(
                frame,
                "welcome",
                protocol=protocol.PROTOCOL_VERSION,
                server="repro",
                role=self.role,
                epoch=self._current_epoch(),
                num_objects=self.service.num_objects,
                num_shards=self.service.num_shards,
                durable=self.root is not None,
            )
        if kind == "query":
            return await self._dispatch_query(frame)
        if kind == "mutate":
            return await self._dispatch_mutate(frame)
        if kind == "stats":
            return await self._dispatch_stats(frame)
        if kind == "checkpoint":
            if self.role != "primary":
                return self._error_frame(
                    frame, "not-primary", "checkpoints are written on the primary"
                )
            if self.root is None:
                return self._error_frame(
                    frame, "no-durability", "server runs without a durability root"
                )
            path = await self._run_blocking(checkpoint, self.root, self.service)
            return self._reply(
                frame, "checkpointed", epoch=self.service.epoch, path=str(path)
            )
        if kind == "metrics":
            # The scrape surface: the whole process-wide registry (engine,
            # service, WAL, server, catalog) in Prometheus text form.
            return self._reply(
                frame, "metrics", text=global_registry().render_prometheus()
            )
        if kind == "slowlog":
            log = getattr(self.service, "slow_log", None)
            return self._reply(
                frame,
                "slowlog",
                enabled=bool(log is not None and log.enabled),
                entries=log.entries() if log is not None else [],
            )
        if kind == "subscribe":
            await self._dispatch_subscribe(frame, session)
            return None  # the forwarder owns this connection's stream now
        if kind == "promote":
            # promote() joins the tailing thread — run it on the executor
            # so a slow tail cannot stall every other connection's loop.
            await self._run_blocking(self.promote)
            return self._reply(frame, "promoted", epoch=self._current_epoch())
        if kind == "shutdown":
            assert self._stop is not None
            self._stop.set()
            return self._reply(frame, "bye")
        raise ProtocolError(f"unknown frame type {kind!r}")

    def _epoch_wait(self, frame: dict[str, Any]) -> float:
        """The frame's ``min_epoch`` wait cap; 0 is a valid no-wait probe."""
        wait_s = frame.get("epoch_wait_s")
        return self.epoch_wait_s if wait_s is None else float(wait_s)

    def _catalog_resolver(self):
        """``(name, tag) -> objects`` over the attached catalog, or None.

        Resolution failures (unknown names, unreachable epochs) raise
        :class:`~repro.errors.CatalogError`, an ``EngineError`` — the
        session loop already maps those to a clean ERROR frame.
        """
        if self.catalog is None:
            return None
        return lambda name, tag: self.catalog.objects_at((name, tag))[0]

    async def _dispatch_query(self, frame: dict[str, Any]) -> dict[str, Any]:
        min_epoch = frame.get("min_epoch")
        if min_epoch is not None:
            wait_s = self._epoch_wait(frame)
            if not await self._await_epoch(int(min_epoch), wait_s):
                return self._error_frame(
                    frame,
                    "epoch-behind",
                    f"server is at epoch {self._current_epoch()}, below the "
                    f"requested min_epoch {min_epoch} after {wait_s:.1f}s",
                )
        decode = functools.partial(
            protocol.decode_query,
            frame["query"],
            dataset=lambda: self.service.snapshot_objects()[1],
            catalog=self._catalog_resolver(),
        )
        if isinstance(frame["query"], dict) and frame["query"].get("k") == "join":
            # Join sides may resolve the live dataset, which waits on the
            # service's epoch gate, or a catalog on disk: off the loop.
            query = await self._run_blocking(decode)
        else:
            query = decode()
        timeout_s = frame.get("timeout_s")
        trace_record: dict[str, Any] | None = None
        if frame.get("trace"):
            result, trace_record = await self._run_blocking(
                self._traced_execute, query, timeout_s
            )
        else:
            result = await self._run_blocking(self.service.execute, query, timeout_s)
        reply = self._reply(
            frame,
            "result",
            kind=result.stats.kind,
            epoch=result.stats.epoch,
            payload=protocol.encode_payload(result.stats.kind, result.payload),
            elapsed_ms=result.stats.elapsed_ms,
        )
        if trace_record is not None:
            reply["trace"] = trace_record
        return reply

    def _traced_execute(self, query: Any, timeout_s: float | None) -> tuple[Any, dict]:
        """Execute under a trace — opened *on the executor thread*, because
        a ContextVar set on the loop thread would not cross
        ``run_in_executor`` into the service's calling thread."""
        with trace.start_trace("server.query", role=self.role) as root:
            result = self.service.execute(query, timeout_s)
        return result, root.to_dict()

    async def _dispatch_mutate(self, frame: dict[str, Any]) -> dict[str, Any]:
        if self.role != "primary":
            return self._error_frame(
                frame,
                "not-primary",
                "this server is a replica; write to the primary or promote",
            )
        try:
            batch = decode_batch(frame["mutations"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed mutation batch: {error}") from error
        # On a durable service apply_many journals the batch before the
        # epoch publishes — by the time this ack is written, the write is
        # on disk.
        result = await self._run_blocking(self.service.apply_many, batch)
        return self._reply(
            frame, "applied", epoch=result.stats.epoch, applied=len(batch)
        )

    async def _dispatch_stats(self, frame: dict[str, Any]) -> dict[str, Any]:
        min_epoch = frame.get("min_epoch")
        if min_epoch is not None:
            wait_s = self._epoch_wait(frame)
            if not await self._await_epoch(int(min_epoch), wait_s):
                return self._error_frame(
                    frame,
                    "epoch-behind",
                    f"server is at epoch {self._current_epoch()}, below the "
                    f"requested min_epoch {min_epoch} after {wait_s:.1f}s",
                )
        admission = self.service.admission.snapshot()
        return self._reply(
            frame,
            "stats",
            role=self.role,
            epoch=self._current_epoch(),
            num_objects=self.service.num_objects,
            num_shards=self.service.num_shards,
            admission={
                "in_flight": admission.in_flight,
                "queued": admission.queued,
                "admitted": admission.admitted,
                "rejected": admission.rejected,
                "timed_out_waiting": admission.timed_out_waiting,
            },
            telemetry=self.service.telemetry.snapshot(),
        )

    async def _dispatch_subscribe(
        self, frame: dict[str, Any], session: _Session
    ) -> None:
        if session.subscriber_queue is not None:
            raise ProtocolError("this connection already subscribed")
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.subscriber_queue)
        # Register *before* reading any state: every epoch published after
        # this point lands in the queue, so snapshot/WAL reads below can
        # never race a concurrent writer into a gap (duplicates are
        # dropped by seq in the forwarder).
        self._subscribers[queue] = session
        session.subscriber_queue = queue
        from_epoch = frame.get("from_epoch")
        sent_through: int | None = None
        if (
            from_epoch is not None
            and self.service.wal is not None
            and int(from_epoch) >= self.service.wal.anchor_seq
        ):
            wal = self.service.wal
            batches = await self._run_blocking(
                lambda: list(wal.tail(int(from_epoch)))
            )
            sent_through = int(from_epoch)
            for seq, mutations in batches:
                await self._send(
                    session,
                    self._reply(
                        frame, "batch", seq=seq, mutations=encode_batch(mutations)
                    ),
                )
                sent_through = seq
        if sent_through is None:
            epoch, objects = await self._run_blocking(self.service.snapshot_objects)
            await self._send(
                session,
                self._reply(
                    frame,
                    "snapshot",
                    epoch=epoch,
                    objects=[encode_object(o) for o in objects],
                ),
            )
            sent_through = epoch
        self._subscriber_progress[queue] = sent_through
        self._update_lag_gauges()
        session.forwarder = asyncio.ensure_future(
            self._forward_batches(session, frame, queue, sent_through)
        )

    async def _forward_batches(
        self,
        session: _Session,
        frame: dict[str, Any],
        queue: asyncio.Queue,
        sent_through: int,
    ) -> None:
        try:
            while True:
                epoch, encoded = await queue.get()
                if epoch <= sent_through:
                    continue  # already covered by the snapshot / WAL catch-up
                await self._send(
                    session, self._reply(frame, "batch", seq=epoch, mutations=encoded)
                )
                sent_through = epoch
                self._subscriber_progress[queue] = sent_through
                self._update_lag_gauges()
        except (ConnectionError, OSError):
            pass
        finally:
            self._subscribers.pop(queue, None)
            self._subscriber_progress.pop(queue, None)
            self._update_lag_gauges()

    # -- failover ------------------------------------------------------------
    def promote(self) -> None:
        """Flip a replica to primary: stop tailing, start accepting writes.

        Idempotent; promoting a primary is a no-op.  The decision of
        *which* follower to promote (the most caught-up one) belongs to
        the operator or the harness — see the README failover runbook.
        """
        if self.role == "primary":
            return
        # Stop the tail *before* accepting writes: a batch applied by the
        # tail after a local write would fork the epoch history.
        if self.tail is not None:
            self.tail.stop()
        self.role = "primary"

    # -- lifecycle -----------------------------------------------------------
    async def _main_async(
        self,
        ready: Callable[["ReproServer"], None] | None = None,
        install_signal_handlers: bool = False,
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service.add_epoch_listener(self._epoch_hook)
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if self.tail is not None:
            self.tail.start()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    self._loop.add_signal_handler(signum, self._stop.set)
        if self.banner:
            print(
                f"repro serve: listening on {self.host}:{self.port} "
                f"(role={self.role}, epoch={self._current_epoch()}, "
                f"objects={self.service.num_objects}, "
                f"shards={self.service.num_shards}, "
                f"protocol v{protocol.PROTOCOL_VERSION})",
                flush=True,
            )
        if ready is not None:
            ready(self)
        try:
            await self._stop.wait()
        finally:
            await self._shutdown(server)

    async def _shutdown(self, server: asyncio.base_events.Server) -> None:
        """Graceful drain: new work refused, queued work finished, WAL closed.

        Order matters: stop accepting, stop the tail, let every session
        finish its queued requests (bounded by ``drain_timeout_s``), tear
        the connections down, and only then close the engine — which
        itself drains in-flight fan-outs and closes the WAL (every
        acknowledged write is on disk before its ack).
        """
        self._draining = True
        server.close()
        await server.wait_closed()
        if self.tail is not None:
            await self._run_blocking(self.tail.stop)
        workers = []
        for session in list(self._sessions):
            with contextlib.suppress(asyncio.QueueFull):
                session.pending.put_nowait(None)  # drain sentinel
            if session.worker is not None:
                workers.append(session.worker)
        if workers:
            done, pending = await asyncio.wait(
                workers, timeout=self.drain_timeout_s
            )
            for task in pending:
                task.cancel()
        for session in list(self._sessions):
            self._teardown_session(session)
        self.service.remove_epoch_listener(self._epoch_hook)
        await self._run_blocking(self.service.close)
        if self.banner:
            print("repro serve: drained and stopped", flush=True)

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT or a ``shutdown`` frame; then drain."""
        try:
            asyncio.run(self._main_async(install_signal_handlers=True))
        except KeyboardInterrupt:
            pass
        return 0

    def request_stop(self) -> None:
        """Thread-safe stop signal (the background-handle counterpart)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)


class ServerHandle:
    """A server running on a background thread (tests, benches, tools)."""

    def __init__(self, server: ReproServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout_s: float = 30.0) -> None:
        """Request a graceful drain and join the serving thread."""
        self.server.request_stop()
        self.thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(service: Any, **kwargs: Any) -> ServerHandle:
    """Run a :class:`ReproServer` on a daemon thread; return once bound.

    The handle's :meth:`ServerHandle.stop` drains gracefully — including
    ``service.close()`` — so callers hand the service's lifetime over to
    the handle.
    """
    kwargs.setdefault("banner", False)
    server = ReproServer(service, **kwargs)
    ready = threading.Event()
    failure: list[BaseException] = []

    def runner() -> None:
        try:
            asyncio.run(server._main_async(ready=lambda _s: ready.set()))
        except BaseException as error:  # surfaced to the starting thread
            failure.append(error)
            ready.set()

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):
        raise ServerError("server failed to start within 30s")
    if failure:
        raise ServerError(f"server failed to start: {failure[0]}")
    return ServerHandle(server, thread)


class ReplicaTail:
    """The follower's half of WAL shipping: apply the stream, epoch by epoch.

    Runs on a plain thread (the blocking client is the transport).  Every
    shipped batch must extend the replica's epoch sequence contiguously —
    a gap means the stream and the engine disagree and the tail stops
    with a recorded :attr:`error` rather than corrupt the replica.
    Batches at or below the current epoch (snapshot/WAL-catch-up overlap)
    are skipped.
    """

    def __init__(self, service: Any, subscription: Subscription) -> None:
        self.service = service
        self.subscription = subscription
        self.error: str | None = None
        self.batches_applied = 0
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-replica-tail", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            for seq, batch in self.subscription.batches():
                if self._stopped.is_set():
                    return
                current = self.service.epoch
                if seq <= current:
                    continue
                if seq != current + 1:
                    self.error = (
                        f"replication gap: replica at epoch {current}, "
                        f"stream shipped batch {seq}"
                    )
                    return
                self.service.apply_many(batch)
                self.batches_applied += 1
            if not self._stopped.is_set():
                self.error = "primary closed the replication stream"
        except (ConnectionError, OSError, EngineError) as error:
            if not self._stopped.is_set():
                self.error = f"replication stream lost: {error}"

    def stop(self) -> None:
        """Stop tailing and close the stream (idempotent)."""
        self._stopped.set()
        self.subscription.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)


def bootstrap_replica(
    primary_host: str,
    primary_port: int,
    num_shards: int | None = None,
    wal_root: Any | None = None,
    **service_kwargs: Any,
) -> tuple[Any, ReplicaTail]:
    """Build a follower service from a primary's snapshot.

    Connects, handshakes, subscribes, receives the primary's
    epoch-consistent ``(epoch, objects)`` snapshot, and builds a
    :class:`~repro.service.ShardedEngine` resumed at that epoch.  Returns
    the service plus a *not yet started* :class:`ReplicaTail` (the server
    starts it once it is listening).  ``num_shards`` defaults to the
    primary's tiling; answers are canonical across shard counts either
    way.

    ``wal_root`` makes the follower *durable in its own right*: through
    :func:`~repro.durability.recovery.attach_journal`, as for a fresh
    :func:`repro.create` root, the snapshot is written as a base checkpoint
    at the bootstrap epoch and a WAL anchored there journals every applied
    batch — so a promoted follower starts its primary life with a complete
    local history.
    """
    from repro.service.sharded import ShardedEngine

    client = Client(primary_host, primary_port)
    try:
        welcome = client.hello(name="replica")
        subscription = client.subscribe()
    except BaseException:
        client.close()
        raise
    if subscription.snapshot_epoch is None or subscription.objects is None:
        client.close()
        raise ServerError("primary did not send a bootstrap snapshot")
    if num_shards is None:
        num_shards = int(welcome["num_shards"])
    service = ShardedEngine(
        subscription.objects,
        num_shards=num_shards,
        initial_epoch=subscription.snapshot_epoch,
        **service_kwargs,
    )
    if wal_root is not None:
        try:
            attach_journal(wal_root, service)
        except BaseException:
            client.close()
            raise
    return service, ReplicaTail(service, subscription)
