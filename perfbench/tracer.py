"""Spans recorded around each layer's public calls, from the benchmark's side.

The program is not edited: :meth:`Tracer.install` replaces each wrapped
function *on the name its caller looks up* (``engine.py`` imports the
executors by name, so the wrapper goes on ``repro.engine.engine.run_range_flat``)
and :meth:`Tracer.uninstall` puts the originals back.  A span records
``(layer, thread, start, end, op)``; its parent is the innermost open span
of the same thread.  A span that opens with an empty stack on a server or
shard-pool thread belongs to the op the client has in flight (the client
keeps exactly one), and is adopted by the latest-starting span of that op
on another thread that encloses it.  Self time is a span's duration minus
the part of it its children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Budget rows, in the order the tables print them.
LAYERS = (
    "protocol.codec",
    "service.execute",
    "service.admission",
    "service.apply",
    "engine.execute",
    "engine.plan",
    "engine.index_build",
    "flat",
    "rtree",
    "scout",
    "touch",
    "kernels",
    "wal.append",
    "wal.flush",
    "recovery.replay",
)

#: The counted public kernel functions of :mod:`repro.kernels`.
KERNELS = (
    "box_intersects",
    "box_contains",
    "box_overlap_pairs",
    "point_box_distance",
    "box_box_distance",
    "segment_distances",
    "capsule_pairs_touch",
    "xsorted_overlap_pairs",
    "hilbert_keys",
)


class Span:
    """One timed call: which layer, on which thread, for which op."""

    __slots__ = ("layer", "name", "thread", "op", "parent", "start", "end", "info", "children")

    def __init__(self, layer: str, name: str, thread: int, op: int, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.thread = thread
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info: Any = None
        self.children: list[Span] = []

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def self_ms(self) -> float:
        """Duration minus the union of the children's (clipped) intervals."""
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (self.end - self.start - covered) * 1000.0


class Tracer:
    """Records spans for the op whose id is in :attr:`op` (``None``: off)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._targets: list[tuple[Any, str, Any]] = []  # (owner, attr, wrapper)
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable,
        name: str | None = None,
        probe: Callable[[tuple], Any] | None = None,
        info: Callable[[tuple, Any, Any], Any] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call while an op is in flight.

        ``probe(args)`` runs before the call and ``info(args, result,
        probed)`` after it; the latter's value lands on ``span.info``.
        """
        tracer = self
        name = name or fn.__name__

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(layer, name, threading.get_ident(), op, stack[-1] if stack else None)
            probed = probe(args) if probe is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, result, probed)
            return result

        return traced

    def root(self, op: int, kind: str, start: float, end: float) -> Span:
        """The op's own span, timed by the benchmark's client loop."""
        span = Span("op", kind, threading.get_ident(), op, None)
        span.start, span.end = start, end
        return span

    # -- installing ----------------------------------------------------------
    def target(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Register ``wrapper`` to replace ``owner.attr`` while installed."""
        self._targets.append((owner, attr, wrapper))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, wrapper in self._targets:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def instrument(tracer: Tracer) -> Tracer:
    """Register a wrapper on every layer boundary the budget reports."""
    from repro import kernels
    from repro.durability import recovery, wal
    from repro.engine import engine, planner
    from repro.server import client, protocol, server
    from repro.service import admission, sharded

    def add(owner: Any, attr: str, layer: str, **hooks: Any) -> None:
        tracer.target(owner, attr, tracer.wrap(layer, vars(owner)[attr], **hooks))

    for fn in ("encode_query", "decode_query", "encode_payload", "decode_payload"):
        add(protocol, fn, "protocol.codec")
    add(protocol, "encode_frame", "protocol.codec", info=lambda a, r, p: len(r))
    add(protocol, "decode_frame", "protocol.codec", info=lambda a, r, p: len(a[0]))
    add(client, "encode_batch", "protocol.codec")
    add(server, "decode_batch", "protocol.codec")
    add(server, "encode_batch", "protocol.codec")

    add(sharded.ShardedEngine, "execute", "service.execute")
    add(admission.AdmissionController, "admit", "service.admission")
    add(
        sharded.ShardedEngine,
        "apply_many",
        "service.apply",
        info=lambda a, r, p: r.stats.shards_touched,
    )

    add(engine.SpatialEngine, "execute", "engine.execute")
    add(planner.Planner, "plan", "engine.plan")
    for method, key in (("flat_index", "flat"), ("object_rtree", "rtree")):
        tracer.target(
            engine.SpatialEngine,
            method,
            _only_when_building(
                vars(engine.SpatialEngine)[method],
                tracer.wrap("engine.index_build", vars(engine.SpatialEngine)[method]),
                key,
            ),
        )

    def hits(a: tuple, r: Any, p: Any) -> tuple[int, int]:
        return r[1].comparisons, r[1].num_results

    add(engine, "run_range_flat", "flat", info=hits)
    add(engine, "run_knn_flat", "flat", info=hits)
    add(engine, "run_range_rtree", "rtree", info=hits)
    add(engine, "run_knn_rtree", "rtree", info=hits)
    add(engine, "run_walk", "scout", info=lambda a, r, p: r[0])
    add(engine, "run_join", "touch", info=hits)

    def rows_before(a: tuple) -> int:
        return kernels.counters.elements

    def rows(a: tuple, r: Any, before: int) -> int:
        return kernels.counters.elements - before

    for fn in KERNELS:
        add(kernels, fn, "kernels", probe=rows_before, info=rows)

    def wal_before(a: tuple) -> tuple[int, int]:
        return a[0].stats.bytes_written, a[0].stats.flushes

    def wal_written(a: tuple, r: Any, before: tuple[int, int]) -> tuple[int, int, int]:
        stats = a[0].stats
        return len(a[1]), stats.bytes_written - before[0], stats.flushes - before[1]

    add(wal.WriteAheadLog, "append", "wal.append", probe=wal_before, info=wal_written)
    add(wal.WriteAheadLog, "flush", "wal.flush")
    add(recovery, "_replay", "recovery.replay")
    return tracer


def _only_when_building(plain: Callable, traced: Callable, key: str) -> Callable:
    """Span only the calls that build the index, not the cached lookups."""

    @functools.wraps(plain)
    def maybe_build(self: Any, *args: Any, **kwargs: Any) -> Any:
        if self.indexes_built[key]:
            return plain(self, *args, **kwargs)
        return traced(self, *args, **kwargs)

    return maybe_build


def link(spans: Iterable[Span], roots: dict[int, Span]) -> None:
    """Give every span its parent's ``children`` entry.

    Same-thread parents come from the stack at record time.  A thread's
    outermost span is adopted by the latest-starting span of the same op,
    on another thread, that encloses it — the service call that fanned it
    out, or the op itself.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.op in roots:
            by_op[span.op].append(span)
    for op, group in by_op.items():
        root = roots[op]
        for span in group:
            parent = span.parent
            if parent is None and span.thread != root.thread:
                enclosing = [
                    other
                    for other in group
                    if other.thread != span.thread
                    and other.start <= span.start
                    and other.end >= span.end
                ]
                if enclosing:
                    parent = max(enclosing, key=lambda other: other.start)
            (parent or root).children.append(span)
