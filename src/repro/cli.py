"""Command-line demo runner: ``python -m repro <command>``.

The paper is a *demo*; this CLI is its terminal incarnation.  Each
subcommand reruns one demo station and prints the same statistics the
screens displayed, plus an ASCII rendering of the figure:

* ``demo flat``  — §2: FLAT vs R-tree on dense/sparse windows, density
  sweep, crawl-order figure;
* ``demo scout`` — §3: candidate pruning and the walkthrough comparison,
  walk figure;
* ``demo touch`` — §4: the join comparison and the scaling sweep;
* ``demo all``   — all three in sequence;
* ``claims``     — the headline claims C1-C5, measured;
* ``circuit``    — generate a circuit, print its morphometry, optionally
  export it (SWC + manifest) with ``--out``;
* ``query``      — one declarative query through the :class:`SpatialEngine`
  facade (range, knn, join or walk), with the planner's ``explain`` output
  and the engine telemetry;
* ``serve``      — the network front door (:mod:`repro.server`): an asyncio
  TCP server fronting the sharded service, speaking the length-prefixed
  JSON protocol; ``--wal`` makes it durable, ``--replica-of HOST:PORT``
  starts it as a WAL-shipped read replica of a running primary;
* ``connect``    — a small interactive client for a running ``serve``
  (query, mutate, stats, checkpoint, promote, shutdown);
* ``recover``    — rebuild an engine from a durability directory (newest
  valid checkpoint + WAL-suffix replay, :mod:`repro.durability`) and run a
  validation query against the recovered state;
* ``bench``      — the kernel and index microbenchmarks (:mod:`repro.bench`):
  emits the schema-versioned BENCH JSON and exits non-zero on regression
  against a baseline (system numbers come from ``perfbench/run.py``);
* ``datasets``   — the dataset catalog (:mod:`repro.catalog`):
  ``list/create/tag/untag/lineage/diff/prune`` named datasets in a catalog
  directory; ``query join --dataset A@v3 --against B@v1`` runs a
  cross-dataset spatial join at the tagged epochs, and ``serve --catalog``
  lets remote clients do the same.
"""

from __future__ import annotations

import argparse
from typing import Sequence

__all__ = ["main", "build_parser"]


def _fail(message: object) -> int:
    """One-line diagnostic on stderr; the CLI's uniform error exit code.

    Every expected failure (bad input, missing directories, corrupt
    durable state) funnels through here so scripts can rely on a clean
    ``error: ...`` line on stderr and exit code 2 — never a traceback.
    """
    import sys

    print(f"error: {message}", file=sys.stderr)
    return 2


def _package_version() -> str:
    """The installed distribution version, falling back to the source tree."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Data-driven Neuroscience' (SIGMOD'13): "
        "FLAT, SCOUT and TOUCH demos in the terminal.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="re-run a demo station")
    demo.add_argument("station", choices=["flat", "scout", "touch", "all"])
    demo.add_argument("--quick", action="store_true", help="smaller workloads")
    demo.add_argument("--no-figures", action="store_true", help="skip ASCII figures")

    claims = sub.add_parser("claims", help="measure the paper's headline claims")
    claims.add_argument("--full", action="store_true", help="full-size workloads")

    report = sub.add_parser("report", help="run every experiment, emit one report")
    report.add_argument("--full", action="store_true", help="full-size workloads")
    report.add_argument("--out", type=str, default=None, help="write the report to a file")

    circuit = sub.add_parser("circuit", help="generate and inspect a circuit")
    circuit.add_argument("--neurons", type=int, default=20)
    circuit.add_argument("--seed", type=int, default=0)
    circuit.add_argument("--out", type=str, default=None, help="export directory (SWC + manifest)")
    circuit.add_argument("--no-figures", action="store_true")

    query = sub.add_parser("query", help="run one declarative query on the engine")
    query.add_argument("kind", choices=["range", "knn", "join", "walk"])
    query.add_argument("--neurons", type=int, default=20, help="generated circuit size")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--circuit", type=str, default=None,
        help="open a saved circuit directory instead of generating one",
    )
    query.add_argument(
        "--strategy", type=str, default=None,
        help="pin the execution strategy instead of letting the planner pick",
    )
    query.add_argument(
        "--explain", action="store_true", help="print the plan only; execute nothing"
    )
    query.add_argument(
        "--trace", action="store_true",
        help="run under a trace and print the span tree (EXPLAIN-ANALYZE style, "
        "with per-span timings and kernel-batch counts)",
    )
    query.add_argument(
        "--root", type=str, default=None, metavar="DIR",
        help="query a sharded durable root (wal/ + checkpoints/) instead of "
        "building an in-process engine (range, knn and join kinds)",
    )
    query.add_argument("--extent", type=float, default=120.0, help="window edge length (um)")
    query.add_argument(
        "--center", type=str, default=None,
        help="query centre as x,y,z (default: dataset centre)",
    )
    query.add_argument("--k", type=int, default=8, help="knn: neighbours to return")
    query.add_argument("--eps", type=float, default=3.0, help="join: distance threshold (um)")
    query.add_argument("--steps", type=int, default=8, help="walk: minimum window count")
    query.add_argument(
        "--dataset", type=str, default=None, metavar="NAME[@TAG]",
        help="join: build side from this catalogued dataset (needs --against)",
    )
    query.add_argument(
        "--against", type=str, default=None, metavar="NAME[@TAG]",
        help="join: probe side from this catalogued dataset (needs --dataset)",
    )
    query.add_argument(
        "--catalog", type=str, default=".", metavar="DIR",
        help="catalog root for --dataset/--against (default: current directory)",
    )

    server = sub.add_parser(
        "serve",
        help="serve the sharded engine over TCP (primary or WAL-shipped replica)",
    )
    server.add_argument("--host", type=str, default="127.0.0.1")
    server.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick an ephemeral port, printed in the banner)",
    )
    server.add_argument("--neurons", type=int, default=30, help="generated circuit size")
    server.add_argument("--seed", type=int, default=0)
    server.add_argument(
        "--circuit", type=str, default=None,
        help="open a saved circuit directory instead of generating one",
    )
    server.add_argument(
        "--shards", type=int, default=None,
        help="service shard count (default 4; a replica defaults to the "
        "primary's tiling)",
    )
    server.add_argument(
        "--workers", type=int, default=None, help="pool threads (default: one per shard)"
    )
    server.add_argument(
        "--max-in-flight", type=int, default=None,
        help="admission: concurrent queries (default: shard count)",
    )
    server.add_argument("--max-queued", type=int, default=64, help="admission: wait-queue bound")
    server.add_argument(
        "--timeout", type=float, default=None, help="per-query deadline in seconds"
    )
    server.add_argument(
        "--session-queue", type=int, default=32,
        help="per-connection pending-request bound (past it: structured busy)",
    )
    server.add_argument(
        "--wal", type=str, default=None, metavar="DIR",
        help="durability root: journal writes before the ack; a replica with "
        "--wal journals every batch it applies from the stream",
    )
    server.add_argument(
        "--replica-of", type=str, default=None, metavar="HOST:PORT",
        help="start as a read replica: bootstrap from this primary's snapshot "
        "and tail its mutation stream (writes are rejected until promoted)",
    )
    server.add_argument(
        "--catalog", type=str, default=None, metavar="DIR",
        help="attach a dataset catalog: clients may send cross-dataset joins "
        "against its tagged datasets",
    )
    server.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="record queries slower than MS into the ring-buffer slow-query "
        "log (queryable via 'repro connect --cmd slowlog')",
    )

    connect = sub.add_parser(
        "connect", help="interactive client for a running 'repro serve'"
    )
    connect.add_argument("address", type=str, metavar="HOST:PORT")
    connect.add_argument(
        "--cmd", action="append", default=None, metavar="COMMAND",
        help="run this command instead of the interactive loop (repeatable)",
    )
    connect.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout in seconds"
    )

    recover = sub.add_parser(
        "recover",
        help="rebuild an engine from a durability directory (checkpoint + WAL)",
    )
    recover.add_argument("dir", type=str, help="durability directory (wal/ + checkpoints/)")
    recover.add_argument(
        "--sharded", action="store_true",
        help="recover a ShardedEngine instead of a single SpatialEngine",
    )
    recover.add_argument(
        "--shards", type=int, default=None,
        help="shard count override (default: the checkpoint manifest's spec)",
    )
    recover.add_argument(
        "--at-epoch", type=int, default=None, metavar="E",
        help="time-travel: rebuild the state at exactly epoch E",
    )
    recover.add_argument(
        "--extent", type=float, default=150.0,
        help="validation range-window edge length (um)",
    )
    recover.add_argument(
        "--no-verify", action="store_true", help="skip the validation query"
    )

    from repro import bench

    # The flags are declared once, by the bench module's own parser.
    sub.add_parser(
        "bench",
        parents=[bench.build_parser()],
        add_help=False,
        help="run the kernel and index microbenchmarks, emit BENCH JSON",
    )

    datasets = sub.add_parser(
        "datasets", help="manage named, tagged datasets in a catalog directory"
    )
    datasets.add_argument(
        "--catalog", type=str, default=".", metavar="DIR",
        help="catalog root (default: current directory)",
    )
    dsub = datasets.add_subparsers(dest="datasets_command", required=True)

    dsub.add_parser("list", help="list datasets, their tips and tags")

    ds_create = dsub.add_parser(
        "create", help="register a new dataset from a circuit (saved or generated)"
    )
    ds_create.add_argument("name", type=str)
    ds_create.add_argument("--neurons", type=int, default=20, help="generated circuit size")
    ds_create.add_argument("--seed", type=int, default=0)
    ds_create.add_argument(
        "--circuit", type=str, default=None,
        help="import a saved circuit directory instead of generating one",
    )

    ds_tag = dsub.add_parser("tag", help="pin a tag to an epoch (default: the tip)")
    ds_tag.add_argument("name", type=str)
    ds_tag.add_argument("tag", type=str)
    ds_tag.add_argument("--epoch", type=int, default=None)

    ds_untag = dsub.add_parser("untag", help="delete a tag (leaves a tombstone)")
    ds_untag.add_argument("name", type=str)
    ds_untag.add_argument("tag", type=str)

    ds_lineage = dsub.add_parser(
        "lineage", help="per-epoch provenance reconstructed from WAL + checkpoints"
    )
    ds_lineage.add_argument("name", type=str)
    ds_lineage.add_argument("--at-epoch", type=int, default=None, metavar="E")

    ds_diff = dsub.add_parser(
        "diff", help="uid-level adds/deletes/moves between two references"
    )
    ds_diff.add_argument("ref_a", type=str, metavar="NAME[@TAG]")
    ds_diff.add_argument("ref_b", type=str, metavar="NAME[@TAG]")

    ds_prune = dsub.add_parser(
        "prune", help="reclaim checkpoints and WAL segments no tag still needs"
    )
    ds_prune.add_argument("name", type=str)
    return parser


def _demo_flat(quick: bool, figures: bool) -> None:
    from repro.experiments.fig_flat import (
        crawl_trace_experiment,
        density_sweep_experiment,
        flat_vs_rtree_experiment,
    )

    n_queries = 4 if quick else 12
    for region in ("dense", "sparse"):
        print(flat_vs_rtree_experiment(region=region, num_queries=n_queries).render())
        print()
    factors = (1, 2, 4) if quick else (1, 2, 4, 8)
    print(density_sweep_experiment(density_factors=factors).render())
    print()
    trace = crawl_trace_experiment()
    print(trace.render())
    if figures:
        from repro.experiments.datasets import circuit_dataset, flat_index_for
        from repro.viz import render_crawl
        from repro.workloads.ranges import density_stratified_queries

        circuit = circuit_dataset(n_neurons=40)
        index = flat_index_for(n_neurons=40, page_capacity=48)
        box = density_stratified_queries(circuit.segments(), 1, 150.0, dense=True, seed=2013)[0]
        print()
        print(render_crawl(index, trace.crawl_order, box))


def _demo_scout(quick: bool, figures: bool) -> None:
    from repro.experiments.fig_scout import pruning_experiment, walkthrough_experiment

    print(pruning_experiment().render())
    print()
    print(walkthrough_experiment(num_walks=1 if quick else 3).render())
    if figures:
        from repro.experiments.datasets import circuit_dataset
        from repro.viz import render_walk
        from repro.workloads.walks import branch_walk

        circuit = circuit_dataset(n_neurons=40)
        walk = branch_walk(circuit, window_extent=90.0, seed=3, min_steps=14)
        print()
        print(render_walk(circuit.segments(), walk.path, walk.queries[:4]))


def _demo_touch(quick: bool, figures: bool) -> None:
    from repro.experiments.fig_touch import (
        join_comparison_experiment,
        join_scaling_experiment,
    )

    n_per_side = 800 if quick else 2500
    comparison = join_comparison_experiment(n_per_side=n_per_side)
    print(comparison.render())
    print()
    sizes = (500, 1000) if quick else (1000, 2000, 4000)
    print(join_scaling_experiment(sizes=sizes, nested_loop_max=min(sizes[-1], 2000)).render())
    if figures:
        from repro.experiments.datasets import dense_join_workload
        from repro.viz import render_density

        # Same (cached) workload and the pair set the table above agreed on;
        # the canvas spans the full join input so synapse placement reads in
        # tissue context.
        from repro.geometry.aabb import AABB

        axons, dendrites = dense_join_workload(n_per_side)
        matched = {a for a, _ in comparison.pairs} | {b for _, b in comparison.pairs}
        touching = [s for s in (*axons, *dendrites) if s.uid in matched]
        if touching:
            world = AABB.union_all(s.aabb for s in (*axons, *dendrites))
            print()
            print("segments participating in candidate synapses:")
            print(render_density(touching, world=world))


def _run_demo(args: argparse.Namespace) -> int:
    figures = not args.no_figures
    stations = {
        "flat": _demo_flat,
        "scout": _demo_scout,
        "touch": _demo_touch,
    }
    selected = list(stations) if args.station == "all" else [args.station]
    for position, name in enumerate(selected):
        if position:
            print("\n" + "=" * 72 + "\n")
        print(f"--- demo station: {name.upper()} ---\n")
        stations[name](args.quick, figures)
    return 0


def _run_claims(args: argparse.Namespace) -> int:
    from repro.experiments.claims import headline_claims

    report = headline_claims(quick=not args.full)
    print(report.render())
    return 0 if report.all_hold else 1


def _run_circuit(args: argparse.Namespace) -> int:
    from repro.neuro.circuit import generate_circuit
    from repro.neuro.morphometry import circuit_morphometry

    circuit = generate_circuit(n_neurons=args.neurons, seed=args.seed)
    print(circuit_morphometry(circuit).render())
    if not args.no_figures:
        from repro.viz import render_density

        print()
        print(render_density(circuit.segments()))
    if args.out is not None:
        from repro.neuro.persistence import save_circuit

        manifest = save_circuit(circuit, args.out)
        print(f"\nexported to {manifest.parent} ({circuit.num_neurons} SWC files + manifest)")
    return 0


def _build_query(args: argparse.Namespace, engine):
    """Translate CLI flags into one declarative query object."""
    from repro.engine import KNNQuery, RangeQuery, SpatialJoin, Walkthrough
    from repro.geometry.aabb import AABB
    from repro.geometry.vec import Vec3

    if args.center is not None:
        parts = [float(v) for v in args.center.split(",")]
        if len(parts) != 3:
            raise ValueError("--center must be x,y,z")
        center = Vec3(*parts)
    else:
        center = engine.profile.world.center()

    if args.kind == "range":
        return RangeQuery(AABB.from_center_extent(center, args.extent), strategy=args.strategy)
    if args.kind == "knn":
        return KNNQuery(center, args.k, strategy=args.strategy)
    if args.kind == "join":
        return SpatialJoin(eps=args.eps, strategy=args.strategy)
    if args.kind == "walk":
        from repro.workloads.walks import branch_walk

        walk = branch_walk(
            engine.circuit,
            window_extent=args.extent,
            min_steps=args.steps,
            seed=args.seed,
        )
        return Walkthrough(tuple(walk.queries), strategy=args.strategy)
    raise AssertionError(f"unhandled query kind {args.kind!r}")


def _run_cross_join(args: argparse.Namespace) -> int:
    """``repro query join --dataset A@v3 --against B@v1 [--catalog DIR]``."""
    import repro
    from repro.errors import ReproError

    try:
        catalog = repro.Catalog(args.catalog, create=False)
        result = catalog.join(
            args.dataset,
            args.against,
            eps=args.eps,
            strategy=args.strategy,
        )
    except (ReproError, ValueError, OSError) as error:
        return _fail(error)
    print(result.describe())
    shown = result.pairs[:20]
    for a, b in shown:
        print(f"  {a} - {b}")
    if len(result.pairs) > len(shown):
        print(f"  ... {len(result.pairs) - len(shown)} more")
    return 0


def _run_query_root(args: argparse.Namespace) -> int:
    """``repro query <kind> --root DIR [--trace]`` — query a durable service.

    Opens the sharded durable root read-only (checkpoint + WAL replay; the
    WAL is never opened for writing, so a one-shot read runs no tail
    repair), runs one query through the
    :class:`~repro.service.ShardedEngine`, and with
    ``--trace`` prints the full nested span tree — admission, per-shard
    fan-out and per-shard engine execution, each with its kernel-batch
    count.
    """
    import repro
    from repro.engine import KNNQuery, RangeQuery, SpatialJoin
    from repro.errors import ReproError
    from repro.geometry.aabb import AABB
    from repro.geometry.vec import Vec3
    from repro.obs import trace as obs_trace

    if args.kind == "walk":
        return _fail("--root supports the range, knn and join kinds")
    service = None
    try:
        service = repro.open(args.root, sharded=True, durable=False)
        print(service.describe())
        print()
        _, objects = service.snapshot_objects()
        if args.center is not None:
            parts = [float(v) for v in args.center.split(",")]
            if len(parts) != 3:
                raise ValueError("--center must be x,y,z")
            center = Vec3(*parts)
        else:
            center = AABB.union_all(o.aabb for o in objects).center()
        if args.kind == "range":
            query = RangeQuery(
                AABB.from_center_extent(center, args.extent), strategy=args.strategy
            )
        elif args.kind == "knn":
            query = KNNQuery(center, args.k, strategy=args.strategy)
        else:
            sides = tuple(objects)
            query = SpatialJoin(
                eps=args.eps, side_a=sides, side_b=sides, strategy=args.strategy
            )
        if args.trace:
            with obs_trace.start_trace("query", kind=args.kind) as root_span:
                result = service.execute(query)
            print(root_span.render())
            print()
        else:
            result = service.execute(query)
        stats = result.stats
        print(
            f"{stats.kind}: {stats.num_results} results at epoch {stats.epoch} "
            f"in {stats.elapsed_ms:.2f} ms across {stats.shards_used} shard(s)"
        )
        print()
        print(service.telemetry.render())
    except (ReproError, ValueError, OSError) as error:
        return _fail(error)
    finally:
        if service is not None:
            service.close()
    return 0


def _run_query(args: argparse.Namespace) -> int:
    import repro
    from repro.errors import ReproError

    if (args.dataset is None) != (args.against is None):
        return _fail("--dataset and --against must be given together")
    if args.dataset is not None:
        if args.kind != "join":
            return _fail("--dataset/--against apply to the join kind only")
        return _run_cross_join(args)
    if args.root is not None:
        return _run_query_root(args)
    try:
        if args.circuit is not None:
            from repro.neuro.persistence import load_circuit

            circuit = load_circuit(args.circuit)
        else:
            from repro.neuro.circuit import generate_circuit

            circuit = generate_circuit(n_neurons=args.neurons, seed=args.seed)
        engine = repro.create(circuit.segments(), circuit=circuit)
        print(engine.describe())
        print()

        query = _build_query(args, engine)
        plan = engine.explain(query)
        print(plan.render())
        if args.explain:
            return 0
        if args.trace:
            from repro.obs import trace as obs_trace

            with obs_trace.start_trace("query", kind=args.kind) as root_span:
                result = engine.execute(query)
        else:
            root_span = None
            result = engine.execute(query)
    except (ReproError, ValueError, OSError) as error:
        return _fail(error)

    if root_span is not None:
        print()
        print(root_span.render())
    print()
    print(result.render())
    if args.kind == "walk":
        metrics = result.payload
        print()
        print(
            f"walkthrough via {metrics.prefetcher}: {metrics.num_steps} steps, "
            f"{metrics.total_prefetched} prefetched, {metrics.prefetch_used} used, "
            f"{metrics.demand_misses} demand misses, "
            f"stall {metrics.total_stall_ms:.1f} ms"
        )
    print()
    print(engine.telemetry.render())
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import generate_report

    text = generate_report(quick=not args.full, progress=print)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print()
        print(text)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.server import ReproServer, bootstrap_replica

    try:
        catalog = None
        if args.catalog is not None:
            import repro

            catalog = repro.Catalog(args.catalog, create=False)
        service_kwargs = dict(
            max_workers=args.workers,
            max_in_flight=args.max_in_flight,
            max_queued=args.max_queued,
            default_timeout_s=args.timeout,
            slow_query_ms=args.slow_query_ms,
        )
        if args.replica_of is not None:
            host, _, port = args.replica_of.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError("--replica-of must be HOST:PORT")
            service, tail = bootstrap_replica(
                host,
                int(port),
                num_shards=args.shards,
                wal_root=args.wal,
                **service_kwargs,
            )
            print(
                f"repro serve: bootstrapped replica of {host}:{port} at epoch "
                f"{service.epoch} ({service.num_objects} objects)"
            )
            server = ReproServer(
                service,
                host=args.host,
                port=args.port,
                role="replica",
                root=args.wal,
                tail=tail,
                session_queue=args.session_queue,
                catalog=catalog,
            )
        else:
            if args.circuit is not None:
                from repro.neuro.persistence import load_circuit

                circuit = load_circuit(args.circuit)
            else:
                from repro.neuro.circuit import generate_circuit

                circuit = generate_circuit(n_neurons=args.neurons, seed=args.seed)
            num_shards = args.shards if args.shards is not None else 4
            if args.wal is not None:
                import repro
                from repro.durability import checkpoints_path, list_checkpoints

                if list_checkpoints(checkpoints_path(args.wal)):
                    service = repro.open(
                        args.wal,
                        sharded=True,
                        num_shards=args.shards,
                        circuit=circuit,
                        **service_kwargs,
                    )
                else:
                    service = repro.create(
                        circuit.segments(),
                        args.wal,
                        sharded=True,
                        num_shards=num_shards,
                        circuit=circuit,
                        **service_kwargs,
                    )
            else:
                from repro.service import ShardedEngine

                service = ShardedEngine.from_circuit(
                    circuit, num_shards=num_shards, **service_kwargs
                )
            server = ReproServer(
                service,
                host=args.host,
                port=args.port,
                role="primary",
                root=args.wal,
                session_queue=args.session_queue,
                catalog=catalog,
            )
        return server.run()
    except (ReproError, ValueError, OSError) as error:
        return _fail(error)


def _connect_help() -> str:
    return (
        "commands:\n"
        "  range X,Y,Z EXTENT       objects in a window around a centre\n"
        "  knn X,Y,Z K              K nearest objects to a point\n"
        "  join EPS                 distance self-join of the live dataset\n"
        "  insert UID X,Y,Z EXTENT  insert a box object\n"
        "  delete UID               delete an object\n"
        "  move UID X,Y,Z EXTENT    move an object\n"
        "  stats [MIN_EPOCH]        service snapshot (optionally wait for an epoch)\n"
        "  metrics                  Prometheus scrape of the server's metrics registry\n"
        "  slowlog                  the server's ring-buffer slow-query log\n"
        "  checkpoint               write a durable checkpoint (primary + --wal)\n"
        "  promote                  failover: make this replica the primary\n"
        "  shutdown                 drain and stop the server\n"
        "  quit                     close this client"
    )


def _connect_command(client, line: str) -> str:
    """Execute one ``repro connect`` command line; return the output."""
    from repro.engine.mutations import Delete, Insert, Move
    from repro.engine.queries import KNNQuery, RangeQuery
    from repro.geometry.aabb import AABB
    from repro.geometry.vec import Vec3
    from repro.objects import BoxObject

    def vec(text: str) -> Vec3:
        parts = [float(v) for v in text.split(",")]
        if len(parts) != 3:
            raise ValueError("expected X,Y,Z")
        return Vec3(*parts)

    words = line.split()
    command, rest = words[0], words[1:]
    if command == "help":
        return _connect_help()
    if command == "range":
        box = AABB.from_center_extent(vec(rest[0]), float(rest[1]))
        result = client.query(RangeQuery(box))
        return (
            f"epoch {result.epoch}: {len(result.payload)} objects in "
            f"{result.elapsed_ms:.2f} ms"
        )
    if command == "knn":
        result = client.query(KNNQuery(vec(rest[0]), int(rest[1])))
        nearest = ", ".join(f"{uid}@{dist:.2f}" for uid, dist in result.payload[:8])
        return f"epoch {result.epoch}: [{nearest}]"
    if command == "join":
        result = client.self_join(float(rest[0]))
        return (
            f"epoch {result.epoch}: {len(result.payload)} pairs in "
            f"{result.elapsed_ms:.2f} ms"
        )
    if command in ("insert", "move"):
        uid = int(rest[0])
        box = AABB.from_center_extent(vec(rest[1]), float(rest[2]))
        mutation = (
            Insert(BoxObject(uid=uid, box=box))
            if command == "insert"
            else Move(uid, BoxObject(uid=uid, box=box))
        )
        return f"applied as epoch {client.mutate([mutation])}"
    if command == "delete":
        return f"applied as epoch {client.mutate([Delete(int(rest[0]))])}"
    if command == "stats":
        reply = client.stats(min_epoch=int(rest[0]) if rest else None)
        admission = reply["admission"]
        return (
            f"role={reply['role']} epoch={reply['epoch']} "
            f"objects={reply['num_objects']} shards={reply['num_shards']} "
            f"in_flight={admission['in_flight']} queued={admission['queued']} "
            f"rejected={admission['rejected']}"
        )
    if command == "metrics":
        return client.metrics().rstrip("\n")
    if command == "slowlog":
        reply = client.slowlog()
        if not reply["enabled"]:
            return "slow-query log disabled (start the server with --slow-query-ms)"
        if not reply["entries"]:
            return "slow-query log is empty"
        lines = []
        for entry in reply["entries"]:
            extras = " ".join(
                f"{key}={value}"
                for key, value in entry.items()
                if key not in ("kind", "elapsed_ms", "ts")
            )
            lines.append(
                f"{entry['kind']}: {entry['elapsed_ms']:.2f} ms"
                + (f"  {extras}" if extras else "")
            )
        return "\n".join(lines)
    if command == "checkpoint":
        reply = client.checkpoint()
        return f"checkpointed epoch {reply['epoch']} at {reply['path']}"
    if command == "promote":
        return f"promoted to primary at epoch {client.promote()['epoch']}"
    if command == "shutdown":
        client.shutdown()
        return "server draining"
    raise ValueError(f"unknown command {command!r} (try 'help')")


def _run_connect(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.server import Client

    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        return _fail("address must be HOST:PORT")
    try:
        client = Client(host, int(port), timeout_s=args.timeout)
    except OSError as error:
        return _fail(f"cannot connect to {args.address}: {error}")
    with client:
        welcome = client.hello(name="repro-connect")
        print(
            f"connected to {args.address}: role={welcome['role']} "
            f"epoch={welcome['epoch']} objects={welcome['num_objects']} "
            f"shards={welcome['num_shards']} protocol v{welcome['protocol']}"
        )
        status = 0
        if args.cmd is not None:
            lines = list(args.cmd)
        else:
            print(_connect_help())
            lines = None
        while True:
            if lines is not None:
                if not lines:
                    break
                line = lines.pop(0)
                print(f"> {line}")
            else:
                try:
                    line = input("> ")
                except EOFError:
                    break
            line = line.strip()
            if not line:
                continue
            if line == "quit":
                break
            try:
                print(_connect_command(client, line))
            except (ReproError, ValueError, IndexError) as error:
                import sys

                print(f"error: {error}", file=sys.stderr)
                status = 1
        return status


def _run_recover(args: argparse.Namespace) -> int:
    import repro
    from repro.engine import RangeQuery
    from repro.errors import ReproError
    from repro.geometry.aabb import AABB

    engine = None
    try:
        engine = repro.open(
            args.dir,
            sharded=args.sharded,
            durable=False,
            at_epoch=args.at_epoch,
            num_shards=args.shards if args.sharded else None,
        )
        print(engine.last_recovery.describe())
        print(engine.describe())
        if not args.no_verify:
            window = AABB.from_center_extent(
                engine.profile.world.center(), args.extent
            )
            result = engine.execute(RangeQuery(window))
            expected = sorted(
                o.uid for o in engine.objects if o.aabb.intersects(window)
            )
            exact = sorted(result.payload) == expected
            print()
            print(
                f"validation query: {len(result.payload)} objects in a "
                f"{args.extent:g} um window — {'exact' if exact else 'MISMATCH'}"
            )
            if not exact:
                return 1
    except (ReproError, OSError) as error:
        return _fail(error)
    finally:
        if args.sharded and engine is not None:
            engine.close()  # shut the recovered service's worker pool down
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    import repro
    from repro.errors import ReproError

    try:
        # Only 'create' may initialise a catalog root; the read/modify
        # commands refuse to invent one in an arbitrary directory.
        catalog = repro.Catalog(
            args.catalog, create=args.datasets_command == "create"
        )
        if args.datasets_command == "list":
            infos = catalog.datasets()
            if not infos:
                print("catalog is empty")
            for info in infos:
                print(info.describe())
            return 0
        if args.datasets_command == "create":
            if args.circuit is not None:
                from repro.neuro.persistence import load_circuit

                circuit = load_circuit(args.circuit)
            else:
                from repro.neuro.circuit import generate_circuit

                circuit = generate_circuit(n_neurons=args.neurons, seed=args.seed)
            engine = catalog.create(args.name, circuit.segments())
            try:
                print(
                    f"dataset {args.name}: {len(engine.objects)} objects at "
                    f"epoch {engine.epoch} under {catalog.dataset_root(args.name)}"
                )
            finally:
                engine.close()
            return 0
        if args.datasets_command == "tag":
            epoch = catalog.tag(args.name, args.tag, epoch=args.epoch)
            print(f"tag {args.name}@{args.tag} -> epoch {epoch}")
            return 0
        if args.datasets_command == "untag":
            epoch = catalog.untag(args.name, args.tag)
            print(f"untagged {args.name}@{args.tag} (pinned epoch {epoch})")
            return 0
        if args.datasets_command == "lineage":
            for record in catalog.lineage(args.name, at_epoch=args.at_epoch):
                print(record.describe())
            return 0
        if args.datasets_command == "diff":
            print(catalog.diff(args.ref_a, args.ref_b).render())
            return 0
        if args.datasets_command == "prune":
            print(catalog.prune(args.name).describe())
            return 0
    except (ReproError, ValueError, OSError) as error:
        return _fail(error)
    raise AssertionError(f"unhandled datasets command {args.datasets_command!r}")


def _run_bench(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.errors import ReproError

    try:
        return bench.run_from_args(args)
    except ReproError as error:
        return _fail(error)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "claims":
        return _run_claims(args)
    if args.command == "circuit":
        return _run_circuit(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "connect":
        return _run_connect(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "datasets":
        return _run_datasets(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
