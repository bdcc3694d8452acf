"""repro — spatial data management for data-driven neuroscience.

A from-scratch reproduction of the systems demonstrated in *"Data-driven
Neuroscience: Enabling Breakthroughs Via Innovative Data Management"*
(Stougiannis, Tauheed, Pavlovic, Heinis, Ailamaki — SIGMOD 2013):

* :class:`FLATIndex` — density-independent spatial range queries
  (seed-and-crawl execution over page-sized partitions),
* :class:`ScoutPrefetcher` / :class:`ExplorationSession` — content-aware
  prefetching for structure-following query sequences,
* :func:`touch_join` — in-memory spatial distance join by hierarchical
  data-oriented partitioning (plus the PBSM / S3 / sweep / nested-loop
  baselines),

together with every substrate they run on: a 3-D geometry kernel, Hilbert
curves, an R-tree with STR bulk loading, a paged-storage simulator
with an LRU buffer pool, and a synthetic neural-circuit generator standing
in for the proprietary Blue Brain datasets.

The primary entry points are :func:`repro.create` (a fresh engine —
in-memory, durable with a directory, sharded with ``sharded=True``) and
:func:`repro.open` (resume an existing durability directory, writable or
read-only/time-travelled).  They, and the engine class constructors they
call, are the only way to build or reopen an engine; a saved model is a
durability directory (CRC-checked checkpoints + WAL).  Both return engines
speaking the same declarative query API; a planner lazily builds the
structures above and picks the execution strategy per query.  The
low-level constructors remain public as the kernel layer.

Quickstart
----------
>>> import repro
>>> circuit = repro.generate_circuit(n_neurons=20, seed=7)
>>> engine = repro.create(circuit.segments(), circuit=circuit)
>>> window = repro.AABB.from_center_extent(circuit.bounding_box().center(), 100.0)
>>> hits = engine.execute(repro.RangeQuery(window))
>>> nearest = engine.execute(repro.KNNQuery(window.center(), k=8))
>>> synapses = engine.execute(repro.SpatialJoin(eps=3.0))
>>> engine.explain(repro.RangeQuery(window)).strategy in ("flat", "rtree")
True

Each call returns an :class:`EngineResult` (payload + uniform
:class:`EngineStats`), and ``engine.telemetry`` aggregates them over the
engine's lifetime.
"""

from repro.api import create, open
from repro.catalog import Catalog
from repro.core.flat import FLATIndex, FLATQueryResult, FLATQueryStats
from repro.core.scout import (
    ExplorationSession,
    ExtrapolationPrefetcher,
    HilbertPrefetcher,
    MarkovPrefetcher,
    NoPrefetcher,
    ScoutPrefetcher,
    SessionMetrics,
    Skeleton,
)
from repro.core.touch import (
    JoinResult,
    JoinStats,
    nested_loop_join,
    pbsm_join,
    plane_sweep_join,
    s3_join,
    touch_join,
)
from repro.engine import (
    Delete,
    EngineResult,
    EngineStats,
    EngineTelemetry,
    Insert,
    KNNQuery,
    Move,
    MutationResult,
    MutationStats,
    QueryPlan,
    RangeQuery,
    SpatialEngine,
    SpatialJoin,
    Walkthrough,
)
from repro.durability import WriteAheadLog, checkpoint, recover_engine
from repro.errors import (
    CatalogError,
    CheckpointMismatchError,
    DurabilityError,
    EngineError,
    NotPrimaryError,
    ProtocolError,
    ReproError,
    ServerError,
    ServiceError,
    ServiceOverloadError,
    ServiceTimeoutError,
    WalCorruptionError,
)
from repro.geometry import AABB, Segment, TriangleMesh, Vec3
from repro.neuro import (
    Circuit,
    CircuitConfig,
    Morphology,
    MorphologyConfig,
    MorphologyGenerator,
    generate_circuit,
    read_swc,
    write_swc,
)
from repro.neuro.morphometry import circuit_morphometry, sholl_analysis
from repro.objects import BoxObject, SpatialObject
from repro.rtree import RTree, str_bulk_load
from repro.server import Client, ReproServer, bootstrap_replica, serve_in_background
from repro.service import (
    AdmissionController,
    ServiceResult,
    ServiceStats,
    ServiceTelemetry,
    ShardedEngine,
    hilbert_shards,
)
from repro.storage import BufferPool, Disk, DiskParameters, ObjectStore
from repro.viz import render_crawl, render_density, render_walk
from repro.workloads import branch_walk, random_walk, uniform_queries

__version__ = "1.5.0"

__all__ = [
    "AABB",
    "AdmissionController",
    "BoxObject",
    "Client",
    "BufferPool",
    "Catalog",
    "CatalogError",
    "CheckpointMismatchError",
    "Circuit",
    "CircuitConfig",
    "Delete",
    "Disk",
    "DiskParameters",
    "DurabilityError",
    "EngineError",
    "EngineResult",
    "EngineStats",
    "EngineTelemetry",
    "ExplorationSession",
    "ExtrapolationPrefetcher",
    "FLATIndex",
    "FLATQueryResult",
    "FLATQueryStats",
    "HilbertPrefetcher",
    "Insert",
    "JoinResult",
    "JoinStats",
    "KNNQuery",
    "MarkovPrefetcher",
    "Morphology",
    "MorphologyConfig",
    "MorphologyGenerator",
    "Move",
    "MutationResult",
    "MutationStats",
    "NoPrefetcher",
    "NotPrimaryError",
    "ObjectStore",
    "ProtocolError",
    "QueryPlan",
    "RTree",
    "RangeQuery",
    "ReproError",
    "ReproServer",
    "ScoutPrefetcher",
    "Segment",
    "ServerError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceResult",
    "ServiceStats",
    "ServiceTelemetry",
    "ServiceTimeoutError",
    "SessionMetrics",
    "ShardedEngine",
    "Skeleton",
    "SpatialEngine",
    "SpatialJoin",
    "SpatialObject",
    "TriangleMesh",
    "Vec3",
    "WalCorruptionError",
    "Walkthrough",
    "WriteAheadLog",
    "__version__",
    "bootstrap_replica",
    "branch_walk",
    "checkpoint",
    "circuit_morphometry",
    "create",
    "generate_circuit",
    "hilbert_shards",
    "nested_loop_join",
    "open",
    "pbsm_join",
    "plane_sweep_join",
    "random_walk",
    "read_swc",
    "recover_engine",
    "render_crawl",
    "render_density",
    "render_walk",
    "s3_join",
    "serve_in_background",
    "sholl_analysis",
    "str_bulk_load",
    "touch_join",
    "uniform_queries",
    "write_swc",
]
