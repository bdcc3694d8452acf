"""The measured workloads: ``explore``, ``ingest`` and ``analyze``.

Each is a closed loop from one process: one client thread, at most one
connection, the next op sent only after the previous one returned.  Inputs
come from the repository's own generators, seeded from ``--seed``; the
dataset is ``circuit_dataset(n_neurons=40)`` (12,453 segments) for all
three.  The system is driven only through ``repro.create``/``repro.open``,
``serve_in_background`` + ``Client`` and ``SpatialEngine.execute``.
Answers are recorded in the loop and checked against :mod:`.oracle` after it.

Every op and every set-up is timed on two clocks: wall (``perf_counter``)
and the process CPU clock (``process_time``, all threads).  ``run.py`` pins
the process to one CPU, so the two agree except for time the core spent on
something else: another process, or another guest of the host (steal).
"""

from __future__ import annotations

import functools
import gc
import itertools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import repro
from repro.engine.mutations import Delete, Insert, Move
from repro.engine.queries import KNNQuery, RangeQuery, SpatialJoin, Walkthrough
from repro.experiments.datasets import circuit_dataset
from repro.geometry.aabb import AABB
from repro.server.client import Client
from repro.server.server import serve_in_background
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.ranges import density_stratified_queries
from repro.workloads.traffic import read_write_workload, traffic_workload
from repro.workloads.walks import branch_walk

from perfbench.oracle import Model
from perfbench.tracer import Tracer

SHARDS = 2
EXTENT = 60.0  # viewport window side, um
KNN_K = 16
BATCH = 8  # mutations per Client.mutate
# Half the stream's items are mutations: 8 reads per 8-mutation batch, so
# one batch per 9 requests.
WRITE_FRACTION = 0.5
SCAN_EXTENT = 250.0
WALK_EXTENT = 40.0
WALK_STEPS = 16
JOIN_EPS = 3.0
# Trace runs alternate untraced and traced blocks of this length (at most a
# quarter of the run), so both see the same drift and the overhead
# comparison is paired.
TRACE_BLOCK_S = 1.0
# Explore cycles over this many viewport queries.  Inputs stay small so the
# harness adds little to the heap every full garbage collection walks.
EXPLORE_QUERIES = 5000
# The ingest stream is generated lazily, this many items at a time.
STREAM_CHUNK = 512


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; :meth:`toy` shrinks them for the benchmark's tests."""

    neurons: int = 40
    warmup_ops: int = 300
    setup_reps: int = 7
    scans: int = 60
    walks: int = 40
    joins: int = 12
    min_batches: int = 100

    @classmethod
    def toy(cls) -> "Sizes":
        return cls(neurons=4, warmup_ops=20, setup_reps=2, scans=4, walks=3, joins=2,
                   min_batches=3)


@dataclass
class Op:
    """One timed operation and what it returned."""

    id: int
    kind: str
    traced: bool
    start: float = 0.0
    end: float = 0.0
    cpu_start: float = 0.0  # process CPU clock, all threads
    cpu_end: float = 0.0
    error: str | None = None
    query: Any = None
    ref: int = -1  # analyze: index of the scan / walk input
    payload: Any = None
    server_ms: float | None = None  # wire reads: the server's elapsed_ms
    batch: list | None = None  # writes: the mutations sent

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def cpu_ms(self) -> float:
        return (self.cpu_end - self.cpu_start) * 1000.0


@dataclass
class Run:
    """Everything one workload run measured."""

    workload: str
    ops: list[Op]
    wall_s: float
    setup_s: list[float]  # CPU clock
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    extra_ops: list[Op] = field(default_factory=list)  # untimed, e.g. recovery
    info: dict[str, Any] = field(default_factory=dict)


def _drive(
    steps: Iterator[tuple[str, Callable[[Op], None]]],
    seconds: float,
    tracer: Tracer | None,
    enough: Callable[[list[Op]], bool] = lambda ops: True,
) -> tuple[list[Op], float]:
    """Run ``steps`` closed-loop for ``seconds`` (longer, up to 1.5x, until
    ``enough``).  With a tracer, blocks alternate untraced / traced."""
    ops: list[Op] = []
    traced = False
    gc.collect()
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + 1.5 * seconds
    block = min(TRACE_BLOCK_S, seconds / 4)
    switch = start + block
    try:
        for kind, call in steps:
            now = time.perf_counter()
            if now >= deadline and (enough(ops) or now >= hard_stop):
                break
            if tracer is not None and now >= switch:
                traced = not traced
                tracer.install() if traced else tracer.uninstall()
                switch = now + block
            op = Op(id=len(ops), kind=kind, traced=traced)
            if traced:
                tracer.op = op.id
            op.cpu_start = time.process_time()
            op.start = time.perf_counter()
            try:
                call(op)
            except Exception as error:  # counted as a failed op, loop goes on
                op.error = f"{type(error).__name__}: {error}"
            op.end = time.perf_counter()
            op.cpu_end = time.process_time()
            if tracer is not None:
                tracer.op = None
            ops.append(op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    end = ops[-1].end if ops else time.perf_counter()
    return ops, end - start


# -- op bodies -------------------------------------------------------------------
def _wire_read(client: Client, query: Any, op: Op) -> None:
    op.query = query
    reply = client.query(query)
    op.payload = reply.payload
    op.server_ms = reply.elapsed_ms


def _wire_write(client: Client, batch: list, op: Op) -> None:
    op.batch = batch
    client.mutate(batch)


def _scan(engine: Any, boxes: list, i: int, op: Op) -> None:
    op.ref = i
    op.payload = engine.execute(RangeQuery(boxes[i])).payload


def _walk(engine: Any, walks: list, i: int, op: Op) -> None:
    op.ref = i
    metrics = engine.execute(walks[i]).payload
    op.payload = [step.result_size for step in metrics.steps]


def _join(engine: Any, op: Op) -> None:
    op.payload = engine.execute(SpatialJoin(eps=JOIN_EPS)).payload


# -- the served system (explore, ingest) -------------------------------------------
class _Served:
    """A durable 2-shard service behind an in-process server and one client."""

    def __init__(self, segments: list, root: Path) -> None:
        self.root = root
        self.service = repro.create(segments, root, sharded=True, num_shards=SHARDS)
        self.handle = None
        self.client = None
        try:
            self.handle = serve_in_background(self.service)
            self.client = Client(self.handle.host, self.handle.port)
            self.client.hello()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.handle is not None:
            self.handle.stop()  # drains and closes the service
        else:
            self.service.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _setup_served(segments: list, workdir: Path, reps: int) -> tuple[_Served, list[float]]:
    """Set the served system up ``reps`` times; keep the last one.

    Set-up runs until the first range over the whole world and the first
    kNN have answered, so every shard has built its indexes: work moved
    from lazy first use into construction, or back, stays inside it.
    """
    world = AABB.union_all(o.aabb for o in segments)
    times = []
    served = None
    for rep in range(reps):
        if served is not None:
            served.close()
        start = time.process_time()
        served = _Served(segments, workdir / f"root-{rep}")
        try:
            served.client.query(RangeQuery(world))
            served.client.query(KNNQuery(world.center(), KNN_K))
        except BaseException:
            served.close()
            raise
        times.append(time.process_time() - start)
    return served, times


def explore(seed: int, seconds: float, tracer: Tracer | None, workdir: Path,
            sizes: Sizes = Sizes()) -> Run:
    """Interactive viewport reads over the wire: ~85% small ranges, ~15% kNN."""
    segments = circuit_dataset(n_neurons=sizes.neurons).segments()
    queries = traffic_workload(
        segments,
        sizes.warmup_ops + EXPLORE_QUERIES,
        extent=EXTENT,
        knn_k=KNN_K,
        include_joins=False,
        seed=seed,
    )
    served, setup = _setup_served(segments, workdir, sizes.setup_reps)
    try:
        for query in queries[: sizes.warmup_ops]:
            served.client.query(query)
        steps = (
            (q.kind, functools.partial(_wire_read, served.client, q))
            for q in itertools.cycle(queries[sizes.warmup_ops:])
        )
        ops, wall = _drive(steps, seconds, tracer)
    finally:
        served.close()
    run = Run("explore", ops, wall, setup)
    model = Model(segments)
    for op in ops:
        _check_read(run, model, op)
    run.info["objects"] = {"initial": len(segments), "final": len(segments)}
    return run


def ingest(seed: int, seconds: float, tracer: Tracer | None, workdir: Path,
           sizes: Sizes = Sizes()) -> Run:
    """Live model maintenance: reads plus 8-mutation batches, then recovery."""
    segments = circuit_dataset(n_neurons=sizes.neurons).segments()
    warmup = traffic_workload(
        segments, sizes.warmup_ops, extent=EXTENT, knn_k=KNN_K, include_joins=False,
        seed=derive_seed(seed, "perfbench", "warmup"),
    )
    served, setup = _setup_served(segments, workdir, sizes.setup_reps)
    recover = Op(id=-1, kind="recover", traced=tracer is not None)
    recovered = None
    try:
        for query in warmup:
            served.client.query(query)
        ops, wall = _drive(
            _ingest_steps(served.client, _ingest_stream(segments, seed)),
            seconds,
            tracer,
            enough=lambda ops: sum(op.kind == "write" for op in ops) >= sizes.min_batches,
        )
        # The server stays up and is never shut down cleanly before this:
        # recovery reads exactly what the acked writes left on disk.
        if tracer is not None:
            tracer.install()
            tracer.op = recover.id
        recover.start = time.perf_counter()
        try:
            recovered = repro.open(served.root, sharded=True, durable=False)
        finally:
            recover.end = time.perf_counter()
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        recovered_objects = recovered.objects
        record = recovered.last_recovery
    finally:
        if recovered is not None:
            recovered.close()
        served.close()
    run = Run("ingest", ops, wall, setup, extra_ops=[recover])
    model = Model(segments)
    for op in ops:
        if op.kind == "write":
            run.checked += 1
            if op.error is None:
                model.apply(op.batch)
            else:
                run.failures.append(f"write op {op.id}: {op.error}")
        else:
            _check_read(run, model, op)
    run.checked += 1
    if not model.recovered_ok(recovered_objects):
        run.failures.append(
            f"recovered engine holds {len(recovered_objects)} objects, not exactly "
            f"the {model.num_live} live objects of the acked writes"
        )
    run.info["objects"] = {"initial": len(segments), "final": model.num_live}
    run.info["recover_s"] = recover.ms / 1000.0
    run.info["recovery"] = {
        "replay_ms": record.replay_ms,
        "batches_replayed": record.batches_replayed,
        "mutations_replayed": record.mutations_replayed,
    }
    return run


def _ingest_stream(segments: list, seed: int) -> Iterator[Any]:
    """``read_write_workload`` chunk after chunk, each generated against the
    live set the earlier chunks leave, so the stream never runs out and the
    harness holds one chunk at a time."""
    live = {o.uid: o for o in segments}
    world = AABB.union_all(o.aabb for o in segments)
    object_extent = max(world.sizes) * 0.01
    for chunk in itertools.count():
        items = read_write_workload(
            list(live.values()),
            STREAM_CHUNK,
            write_fraction=WRITE_FRACTION,
            extent=EXTENT,
            knn_k=KNN_K,
            object_extent=object_extent,
            seed=derive_seed(seed, "perfbench", "stream", chunk),
        )
        for item in items:
            if isinstance(item, Delete):
                del live[item.uid]
            elif isinstance(item, (Insert, Move)):
                live[item.obj.uid] = item.obj
            yield item


def _ingest_steps(
    client: Client, stream: Iterator[Any]
) -> Iterator[tuple[str, Callable[[Op], None]]]:
    batch: list = []
    for item in stream:
        if isinstance(item, (Insert, Delete, Move)):
            batch.append(item)
            if len(batch) == BATCH:
                yield "write", functools.partial(_wire_write, client, batch)
                batch = []
        else:
            yield item.kind, functools.partial(_wire_read, client, item)


def _check_read(run: Run, model: Model, op: Op) -> None:
    run.checked += 1
    if op.error is not None:
        run.failures.append(f"{op.kind} op {op.id}: {op.error}")
    elif op.kind == "range" and not model.range_ok(op.query.box, op.payload):
        run.failures.append(f"range op {op.id}: wrong answer")
    elif op.kind == "knn" and not model.knn_ok(op.query.point, op.query.k, op.payload):
        run.failures.append(f"knn op {op.id}: wrong answer")


def analyze(seed: int, seconds: float, tracer: Tracer | None, workdir: Path,
            sizes: Sizes = Sizes()) -> Run:
    """FLAT dense scans, SCOUT branch walks and TOUCH joins on one engine."""
    circuit = circuit_dataset(n_neurons=sizes.neurons)
    segments = circuit.segments()
    boxes = density_stratified_queries(
        segments, sizes.scans, SCAN_EXTENT, dense=True,
        seed=make_rng(derive_seed(seed, "perfbench", "scans")),
    )
    walks = [
        Walkthrough(tuple(branch_walk(
            circuit, WALK_EXTENT, min_steps=WALK_STEPS,
            seed=make_rng(derive_seed(seed, "perfbench", "walk", i)),
        ).queries))
        for i in range(sizes.walks)
    ]
    world = AABB.union_all(o.aabb for o in segments)
    setup = []
    for _ in range(sizes.setup_reps):
        start = time.process_time()
        engine = repro.create(segments, circuit=circuit)
        engine.execute(RangeQuery(world))
        engine.execute(walks[0])
        engine.execute(SpatialJoin(eps=JOIN_EPS))
        setup.append(time.process_time() - start)
    reference = sorted(engine.execute(SpatialJoin(eps=JOIN_EPS, strategy="plane-sweep")).payload)

    order = [("scan", i) for i in range(sizes.scans)]
    order += [("walk", i) for i in range(sizes.walks)]
    order += [("join", i) for i in range(sizes.joins)]
    shuffle = make_rng(derive_seed(seed, "perfbench", "order")).permutation(len(order))
    order = [order[i] for i in shuffle]

    def body(kind: str, i: int) -> Callable[[Op], None]:
        if kind == "scan":
            return functools.partial(_scan, engine, boxes, i)
        if kind == "walk":
            return functools.partial(_walk, engine, walks, i)
        return functools.partial(_join, engine)

    steps = ((kind, body(kind, i)) for kind, i in itertools.cycle(order))
    ops, wall = _drive(steps, seconds, tracer)

    run = Run("analyze", ops, wall, setup)
    model = Model(segments)
    expected_scans = [model.range(box) for box in boxes]
    expected_walks = [[len(model.range(w)) for w in walk.queries] for walk in walks]
    for op in ops:
        run.checked += 1
        if op.error is not None:
            run.failures.append(f"{op.kind} op {op.id}: {op.error}")
            continue
        if op.kind == "scan":
            ok = sorted(op.payload) == expected_scans[op.ref]
        elif op.kind == "walk":
            ok = op.payload == expected_walks[op.ref]
        else:
            ok = sorted(op.payload) == reference
        if not ok:
            run.failures.append(f"{op.kind} op {op.id}: wrong answer")
    run.info["objects"] = {"initial": len(segments), "final": len(segments)}
    run.info["join_pairs"] = len(reference)
    return run


WORKLOADS = {"explore": explore, "ingest": ingest, "analyze": analyze}
