"""End-to-end query tracing: lightweight nested spans, EXPLAIN-ANALYZE style.

A *trace* is a tree of :class:`Span` values rooted at one query (or one
server frame).  Instrumented code opens spans through the module-level
:func:`span` helper::

    with trace.span("shard.fanout", shards=4):
        ...

and pays almost nothing when no trace is active: one :class:`ContextVar`
read and a comparison, returning a shared no-op context manager — no
allocation, no timestamps.  Only when a caller has opened
:func:`start_trace` do spans materialise.

Propagation:

* **threads** — the current span lives in a :class:`ContextVar`, so a
  span opened on one thread parents only spans on that thread (the
  service runs a query's shard subtasks on the calling thread, so they
  nest under its ``service.execute``); a thunk handed to another thread
  inherits the parent when run under ``contextvars.copy_context().run``,
  and children append to the shared parent (list append is atomic under
  the GIL).
* **the wire** — the server serialises the root span into the result
  frame (``to_dict`` is strict-JSON-safe), so a remote ``Client`` query
  receives the full server-side trace.

Each span also snapshots the **per-thread kernel batch counter** on entry
and exit, so its ``kernel_batches`` delta is computed by exactly the same
mechanism as ``EngineStats.kernel_batches`` (see
:func:`repro.engine.executors.timed`) — the rendered tree and the engine
stats can never disagree on how much work ran vectorised.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro import kernels

__all__ = [
    "Span",
    "span",
    "start_trace",
    "current_span",
    "active",
    "from_dict",
]

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_trace_span", default=None)
_TRACE_IDS = itertools.count(1)


def _new_trace_id() -> str:
    return f"{os.getpid():x}-{next(_TRACE_IDS):x}"


class Span:
    """One timed node of a trace tree.

    ``duration_ms`` uses the monotonic :func:`time.perf_counter`;
    ``kernel_batches`` is the calling thread's batch-counter delta over
    the span's window (inclusive of same-thread children).  ``attrs``
    must stay strict-JSON-safe — spans travel over the wire.
    """

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "children",
        "duration_ms",
        "kernel_batches",
        "_started_at",
        "_batches_at",
    )

    def __init__(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.trace_id = trace_id
        self.children: list["Span"] = []
        self.duration_ms = 0.0
        self.kernel_batches = 0
        self._started_at = 0.0
        self._batches_at = 0

    def begin(self) -> "Span":
        self._batches_at = kernels.counters.batches
        self._started_at = time.perf_counter()
        return self

    def finish(self) -> "Span":
        self.duration_ms = (time.perf_counter() - self._started_at) * 1000.0
        self.kernel_batches = kernels.counters.batches - self._batches_at
        return self

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span; chains for inline use."""
        self.attrs.update(attrs)
        return self

    # -- serialisation (protocol frames) ---------------------------------------
    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "name": self.name,
            "ms": round(self.duration_ms, 4),
            "kb": self.kernel_batches,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    def render(self) -> str:
        """The span tree, one line per span, EXPLAIN-ANALYZE style."""
        lines: list[str] = []
        header = self.name if self.trace_id is None else f"{self.name} [trace {self.trace_id}]"
        lines.append(f"{header}{_describe(self)}")
        _render_children(self.children, "", lines)
        return "\n".join(lines)


def _describe(span_value: Span) -> str:
    parts = [f"{k}={v}" for k, v in span_value.attrs.items()]
    parts.append(f"{span_value.duration_ms:.2f} ms")
    if span_value.kernel_batches:
        parts.append(f"kernel_batches={span_value.kernel_batches}")
    return "  " + "  ".join(parts)


def _render_children(children: list[Span], prefix: str, lines: list[str]) -> None:
    for position, child in enumerate(children):
        last = position == len(children) - 1
        connector = "└─ " if last else "├─ "
        lines.append(f"{prefix}{connector}{child.name}{_describe(child)}")
        _render_children(child.children, prefix + ("   " if last else "│  "), lines)


def from_dict(record: dict[str, Any]) -> Span:
    """Rebuild a span tree from a :meth:`Span.to_dict` payload."""
    rebuilt = Span(
        str(record.get("name", "?")),
        attrs=record.get("attrs"),
        trace_id=record.get("trace_id"),
    )
    rebuilt.duration_ms = float(record.get("ms", 0.0))
    rebuilt.kernel_batches = int(record.get("kb", 0))
    for child in record.get("children", ()):
        rebuilt.children.append(from_dict(child))
    return rebuilt


class _NoopSpan:
    """Shared do-nothing span: what :func:`span` returns with no trace open."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _SpanContext:
    """Context manager binding a new child span to the ambient parent."""

    __slots__ = ("_parent", "_name", "_attrs", "_span", "_token")

    def __init__(self, parent: Span, name: str, attrs: dict[str, Any]) -> None:
        self._parent = parent
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._span = Span(self._name, self._attrs).begin()
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _CURRENT.reset(self._token)
        finished = self._span.finish()
        if exc is not None:
            # Error-path spans keep their timing and carry the failure.
            finished.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._parent.children.append(finished)
        return False


def span(name: str, **attrs: Any) -> Any:
    """Open a child span under the current trace; no-op when none is active."""
    parent = _CURRENT.get()
    if parent is None:
        return _NOOP
    return _SpanContext(parent, name, attrs)


@contextmanager
def start_trace(
    name: str = "trace", trace_id: str | None = None, **attrs: Any
) -> Iterator[Span]:
    """Open a trace: the yielded root span collects everything beneath it."""
    root = Span(name, attrs, trace_id=trace_id or _new_trace_id()).begin()
    token = _CURRENT.set(root)
    try:
        yield root
    except BaseException as error:
        root.attrs.setdefault("error", f"{type(error).__name__}: {error}")
        raise
    finally:
        _CURRENT.reset(token)
        root.finish()


def current_span() -> Span | None:
    """The innermost open span of the calling context, if any."""
    return _CURRENT.get()


def active() -> bool:
    """Whether a trace is open in the calling context."""
    return _CURRENT.get() is not None
