"""The blocking client of ``repro serve`` — what tests and CLIs speak.

One :class:`Client` owns one TCP connection.  Requests carry ids and the
client matches responses by id, so calls may be pipelined
(:meth:`Client.query_many` sends every query before reading any answer).
Server-side failures come back as the in-process exception types —
``busy`` frames raise :class:`~repro.errors.ServiceOverloadError`,
``timeout`` errors raise :class:`~repro.errors.ServiceTimeoutError`,
writes to a replica raise :class:`~repro.errors.NotPrimaryError` — so a
caller that treats the remote engine as just another engine keeps its
``except`` clauses unchanged.

:meth:`Client.subscribe` turns the connection into a replication stream:
the reply is either a full ``snapshot`` (epoch + objects) or, when
``from_epoch`` let the server serve WAL catch-up, straight ``batch``
frames; either way :meth:`Subscription.batches` then yields shipped
``(seq, mutations)`` pairs for as long as the primary lives.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.durability.serde import decode_batch, decode_object, encode_batch
from repro.engine.mutations import Mutation
from repro.engine.queries import Query
from repro.errors import (
    NotPrimaryError,
    ProtocolError,
    ServerError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.objects import SpatialObject
from repro.server import protocol

__all__ = ["Client", "RemoteResult", "Subscription"]


@dataclass(frozen=True)
class RemoteResult:
    """One query answer: the decoded payload plus its provenance stamps."""

    kind: str
    payload: Any
    epoch: int
    elapsed_ms: float
    wire_payload: Any  # the payload exactly as it crossed the wire
    trace: dict[str, Any] | None = None  # server-side span tree, if requested


class Subscription:
    """A replication stream over one dedicated connection.

    ``snapshot_epoch`` / ``objects`` are populated when the server chose
    snapshot bootstrap (always, unless ``from_epoch`` allowed WAL
    catch-up); :meth:`batches` yields every shipped batch after that, in
    seq order, until the stream is closed from either side.
    """

    def __init__(self, client: "Client", sub_id: int) -> None:
        self._client = client
        self._sub_id = sub_id
        self.snapshot_epoch: int | None = None
        self.objects: list[SpatialObject] | None = None
        self._pending: dict[str, Any] | None = None
        first = client._read_matching(sub_id)
        if first["type"] == "snapshot":
            self.snapshot_epoch = int(first["epoch"])
            self.objects = [decode_object(o) for o in first["objects"]]
        elif first["type"] == "batch":
            self._pending = first
        else:
            raise ProtocolError(
                f"subscription expected snapshot or batch, got {first['type']!r}"
            )

    def batches(self) -> Iterator[tuple[int, list[Mutation]]]:
        """Yield shipped ``(seq, mutations)`` batches until the stream ends.

        Blocks indefinitely between batches (the socket timeout is
        lifted); closing the subscription from another thread unblocks it
        with a :class:`ConnectionError` / clean end-of-stream.
        """
        self._client._sock.settimeout(None)
        while True:
            if self._pending is not None:
                frame, self._pending = self._pending, None
            else:
                maybe = self._client._read_frame()
                if maybe is None:
                    return
                frame = maybe
            if frame.get("type") != "batch":
                raise ProtocolError(
                    f"subscription stream got a {frame.get('type')!r} frame"
                )
            yield int(frame["seq"]), decode_batch(frame["mutations"])

    def close(self) -> None:
        # A close alone does not wake a recv blocked on another thread
        # (Linux); a shutdown does, so the tail thread sees end-of-stream.
        try:
            self._client._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        self._client.close()


class Client:
    """A blocking, request-id-matched client for one ``repro serve``."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._recv_buffer = b""
        self._next_id = 0
        self._stash: dict[int, dict[str, Any]] = {}
        self.server_info: dict[str, Any] | None = None

    # -- transport -----------------------------------------------------------
    def _send(self, message: dict[str, Any]) -> int:
        request_id = self._next_id
        self._next_id += 1
        message = {"v": protocol.PROTOCOL_VERSION, "id": request_id, **message}
        try:
            self._sock.sendall(protocol.encode_frame(message))
        except OSError as error:
            raise ServerError(f"connection to {self.host}:{self.port} lost: {error}")
        return request_id

    def _recv_exact(self, count: int) -> bytes | None:
        """``count`` bytes off the socket; ``None`` on clean end-of-stream."""
        while len(self._recv_buffer) < count:
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout as error:
                raise ServerError(
                    f"timed out waiting for {self.host}:{self.port}"
                ) from error
            if not chunk:
                if self._recv_buffer:
                    raise ProtocolError("connection closed mid frame")
                return None
            self._recv_buffer += chunk
        data, self._recv_buffer = (
            self._recv_buffer[:count],
            self._recv_buffer[count:],
        )
        return data

    def _read_frame(self) -> dict[str, Any] | None:
        header = self._recv_exact(protocol.LENGTH_PREFIX.size)
        if header is None:
            return None
        payload = self._recv_exact(protocol.frame_length(header))
        if payload is None:
            raise ProtocolError("connection closed mid frame")
        frame = protocol.decode_frame(payload)
        protocol.check_version(frame)
        return frame

    def _read_matching(self, request_id: int) -> dict[str, Any]:
        """The response to ``request_id``, stashing out-of-order answers."""
        if request_id in self._stash:
            frame = self._stash.pop(request_id)
        else:
            while True:
                maybe = self._read_frame()
                if maybe is None:
                    raise ServerError(
                        f"connection to {self.host}:{self.port} closed before a "
                        "response arrived"
                    )
                frame = maybe
                if frame.get("re") == request_id:
                    break
                if isinstance(frame.get("re"), int):
                    self._stash[frame["re"]] = frame
        self._raise_for(frame)
        return frame

    @staticmethod
    def _raise_for(frame: dict[str, Any]) -> None:
        kind = frame.get("type")
        if kind == "busy":
            raise ServiceOverloadError(frame.get("message", "server busy"))
        if kind == "error":
            code = frame.get("code")
            message = frame.get("message", "request failed")
            if code == "timeout":
                raise ServiceTimeoutError(message)
            if code == "not-primary":
                raise NotPrimaryError(message)
            raise ServerError(message, code=code)

    # -- requests ------------------------------------------------------------
    def hello(self, name: str = "client") -> dict[str, Any]:
        """Handshake; returns and remembers the server's welcome record."""
        reply = self._read_matching(self._send({"type": "hello", "name": name}))
        self.server_info = reply
        return reply

    def query(
        self,
        query: Query,
        min_epoch: int | None = None,
        timeout_s: float | None = None,
        epoch_wait_s: float | None = None,
        trace: bool = False,
    ) -> RemoteResult:
        """Execute one query; ``min_epoch`` demands read-your-writes.

        ``trace=True`` asks the server to run the query under a trace and
        ship the full server-side span tree back on the result
        (:attr:`RemoteResult.trace`, a ``Span.to_dict`` record).
        """
        return self._collect_result(
            self._send_query(query, min_epoch, timeout_s, epoch_wait_s, trace)
        )

    def query_many(
        self,
        queries: Sequence[Query],
        min_epoch: int | None = None,
        timeout_s: float | None = None,
    ) -> list[RemoteResult]:
        """Pipeline a batch: every query is sent before any reply is read."""
        ids = [self._send_query(q, min_epoch, timeout_s, None) for q in queries]
        return [self._collect_result(request_id) for request_id in ids]

    def self_join(
        self,
        eps: float,
        strategy: str | None = None,
        refine: bool = False,
        min_epoch: int | None = None,
        trace: bool = False,
    ) -> RemoteResult:
        """Distance self-join of the server's *live* dataset.

        Unlike shipping explicit sides, the answer depends entirely on
        replicated state — which is why the replication differential uses
        it as its join probe.
        """
        record = {
            "k": "join",
            "eps": eps,
            "strategy": strategy,
            "refine": refine,
            "sides": "dataset",
        }
        message: dict[str, Any] = {"type": "query", "query": record}
        if min_epoch is not None:
            message["min_epoch"] = min_epoch
        if trace:
            message["trace"] = True
        return self._collect_result(self._send(message))

    def cross_join(
        self,
        ref_a: Any,
        ref_b: Any,
        eps: float,
        strategy: str | None = None,
        refine: bool = False,
        trace: bool = False,
    ) -> RemoteResult:
        """Distance join across two *catalogued* datasets on the server.

        ``ref_a`` / ``ref_b`` are ``"name"``, ``"name@tag"`` or
        ``(name, tag)`` references into the catalog the server was
        started with; side A builds, side B probes, both pinned at their
        tagged epochs.  Servers without an attached catalog answer with a
        protocol error.
        """
        from repro.catalog.manifest import check_name

        def split(ref: Any) -> list[Any]:
            if isinstance(ref, str):
                name, sep, tag = ref.partition("@")
                return [check_name(name), check_name(tag, "tag") if sep else None]
            name, tag = ref
            return [check_name(name), None if tag is None else check_name(tag, "tag")]

        record = {
            "k": "join",
            "eps": eps,
            "strategy": strategy,
            "refine": refine,
            "sides": {"datasets": {"a": split(ref_a), "b": split(ref_b)}},
        }
        message: dict[str, Any] = {"type": "query", "query": record}
        if trace:
            message["trace"] = True
        return self._collect_result(self._send(message))

    def _send_query(
        self,
        query: Query,
        min_epoch: int | None,
        timeout_s: float | None,
        epoch_wait_s: float | None,
        trace: bool = False,
    ) -> int:
        message: dict[str, Any] = {"type": "query", "query": protocol.encode_query(query)}
        if min_epoch is not None:
            message["min_epoch"] = min_epoch
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        if epoch_wait_s is not None:
            message["epoch_wait_s"] = epoch_wait_s
        if trace:
            message["trace"] = True
        return self._send(message)

    def _collect_result(self, request_id: int) -> RemoteResult:
        reply = self._read_matching(request_id)
        kind = reply["kind"]
        return RemoteResult(
            kind=kind,
            payload=protocol.decode_payload(kind, reply["payload"]),
            epoch=int(reply["epoch"]),
            elapsed_ms=float(reply["elapsed_ms"]),
            wire_payload=reply["payload"],
            trace=reply.get("trace"),
        )

    def mutate(self, mutations: Sequence[Mutation]) -> int:
        """Apply one batch; returns the published (journaled) epoch."""
        reply = self._read_matching(
            self._send({"type": "mutate", "mutations": encode_batch(mutations)})
        )
        return int(reply["epoch"])

    def stats(self, min_epoch: int | None = None) -> dict[str, Any]:
        """Service snapshot; ``min_epoch`` blocks until the server reaches it
        (the cheapest way to wait for a replica to catch up)."""
        message: dict[str, Any] = {"type": "stats"}
        if min_epoch is not None:
            message["min_epoch"] = min_epoch
        return self._read_matching(self._send(message))

    def metrics(self) -> str:
        """The server's process-wide metrics in Prometheus text form."""
        return str(self._read_matching(self._send({"type": "metrics"}))["text"])

    def slowlog(self) -> dict[str, Any]:
        """The server's slow-query log: ``{"enabled": bool, "entries": [...]}``."""
        reply = self._read_matching(self._send({"type": "slowlog"}))
        return {"enabled": bool(reply["enabled"]), "entries": list(reply["entries"])}

    def checkpoint(self) -> dict[str, Any]:
        """Ask a durable server to write a checkpoint at the current epoch."""
        return self._read_matching(self._send({"type": "checkpoint"}))

    def promote(self) -> dict[str, Any]:
        """Failover: tell a replica to stop tailing and accept writes."""
        return self._read_matching(self._send({"type": "promote"}))

    def shutdown(self) -> None:
        """Ask the server to drain and exit (acked with ``bye``)."""
        self._read_matching(self._send({"type": "shutdown"}))

    def subscribe(self, from_epoch: int | None = None) -> Subscription:
        """Dedicate this connection to the replication stream."""
        message: dict[str, Any] = {"type": "subscribe"}
        if from_epoch is not None:
            message["from_epoch"] = from_epoch
        return Subscription(self, self._send(message))

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
