"""Service traffic: the mixed, read-heavy workload of many concurrent users.

A production deployment of the engine does not see one query kind at a
time; it sees an interleaved stream — mostly range windows (viewport
fetches), a steady trickle of KNN lookups (probe placement, "what is near
this electrode"), and the occasional expensive join (synapse recount).
:func:`traffic_workload` scripts that stream deterministically so the
service's stress and differential tests replay the exact same traffic on
every run.  :func:`read_write_workload` adds the live-data dimension: the
same seeded stream with a fraction of insert/delete/move mutations woven
in, valid by construction against the dataset it was generated for.

Every random draw flows through :mod:`repro.utils.rng`: one master seed,
one :func:`~repro.utils.rng.derive_seed` sub-stream per concern (mix
shuffling, window placement, knn placement), so adding queries of one kind
never perturbs the others.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.mutations import Delete, Insert, Move, Mutation
from repro.engine.queries import KNNQuery, Query, RangeQuery, SpatialJoin
from repro.errors import WorkloadError
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.objects import BoxObject, SpatialObject
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.ranges import uniform_queries

__all__ = ["traffic_workload", "read_write_workload", "TRAFFIC_MIX", "WRITE_MIX"]

#: Default (range, knn, join) proportions of the read-heavy mix.
TRAFFIC_MIX = (0.8, 0.15, 0.05)

#: Default (insert, delete, move) proportions of the write side.
WRITE_MIX = (0.4, 0.3, 0.3)


def traffic_workload(
    objects: Sequence[SpatialObject],
    count: int,
    extent: float = 120.0,
    knn_k: int = 8,
    mix: tuple[float, float, float] = TRAFFIC_MIX,
    include_joins: bool = True,
    seed: int = 0,
) -> list[Query]:
    """``count`` declarative queries drawn from a read-heavy traffic mix.

    Parameters
    ----------
    objects:
        The served dataset; windows and knn points are placed inside its
        bounding box so queries hit real data.
    mix:
        ``(range, knn, join)`` weights.  Joins need the executing engine to
        be bound to a circuit (the default synapse-discovery sides); pass
        ``include_joins=False`` to redistribute their weight to ranges
        when serving plain objects.
    seed:
        Master seed; every draw derives from it via stable sub-streams.

    >>> queries = traffic_workload(circuit.segments(), 50, seed=7)
    >>> queries == traffic_workload(circuit.segments(), 50, seed=7)
    True
    """
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if len(mix) != 3 or min(mix) < 0 or sum(mix) <= 0:
        raise WorkloadError("mix must be three non-negative weights summing > 0")
    if not objects:
        raise WorkloadError("need objects to build traffic against")

    range_w, knn_w, join_w = mix
    if not include_joins:
        range_w, join_w = range_w + join_w, 0.0
    total = range_w + knn_w + join_w

    world = AABB.union_all(o.aabb for o in objects)
    mix_rng = make_rng(derive_seed(seed, "traffic", "mix"))
    kinds: list[str] = []
    for _ in range(count):
        draw = float(mix_rng.uniform(0.0, total))
        if draw < range_w:
            kinds.append("range")
        elif draw < range_w + knn_w:
            kinds.append("knn")
        else:
            kinds.append("join")

    windows = iter(
        uniform_queries(
            world,
            kinds.count("range"),
            extent,
            seed=make_rng(derive_seed(seed, "traffic", "ranges")),
        )
    )
    knn_rng = make_rng(derive_seed(seed, "traffic", "knn"))
    queries: list[Query] = []
    for kind in kinds:
        if kind == "range":
            queries.append(RangeQuery(next(windows)))
        elif kind == "knn":
            point = Vec3(
                float(knn_rng.uniform(world.min_x, world.max_x)),
                float(knn_rng.uniform(world.min_y, world.max_y)),
                float(knn_rng.uniform(world.min_z, world.max_z)),
            )
            queries.append(KNNQuery(point, knn_k))
        else:
            queries.append(SpatialJoin(eps=3.0))
    return queries


def read_write_workload(
    objects: Sequence[SpatialObject],
    count: int,
    write_fraction: float = 0.25,
    extent: float = 120.0,
    knn_k: int = 8,
    write_mix: tuple[float, float, float] = WRITE_MIX,
    object_extent: float | None = None,
    seed: int = 0,
) -> list[Query | Mutation]:
    """``count`` interleaved reads and writes — the live-data traffic mix.

    Reads are range windows and KNN lookups (the read-heavy
    :data:`TRAFFIC_MIX` ratio between them, joins excluded: a live write
    stream mutates the indexed dataset, not the circuit-bound join
    sides); writes are :class:`Insert` / :class:`Delete` / :class:`Move`
    values in the ``write_mix`` proportions.  The stream is *valid by
    construction*: the generator tracks the live uid set, so deletes and
    moves always name a live uid, inserts always use a fresh one, and the
    dataset never shrinks below half its initial size.  Replaying the
    stream in order against any engine bound to ``objects`` therefore
    never raises.

    ``object_extent`` sizes inserted/moved boxes (default: 1% of the
    world's largest side).  Every draw derives from ``seed`` via stable
    sub-streams, so the exact same interleaving replays on every run —
    the property any replay of the stream relies on.

    >>> ops = read_write_workload(circuit.segments(), 100, seed=7)
    >>> ops == read_write_workload(circuit.segments(), 100, seed=7)
    True
    """
    if count < 0:
        raise WorkloadError("count must be >= 0")
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError("write_fraction must be in [0, 1]")
    if len(write_mix) != 3 or min(write_mix) < 0 or sum(write_mix) <= 0:
        raise WorkloadError("write_mix must be three non-negative weights summing > 0")
    if not objects:
        raise WorkloadError("need objects to build traffic against")

    world = AABB.union_all(o.aabb for o in objects)
    if object_extent is None:
        object_extent = max(max(world.sizes) * 0.01, 1e-6)
    insert_w, delete_w, move_w = write_mix
    write_total = insert_w + delete_w + move_w
    range_w, knn_w, _ = TRAFFIC_MIX
    read_total = range_w + knn_w

    kind_rng = make_rng(derive_seed(seed, "rw", "kind"))
    place_rng = make_rng(derive_seed(seed, "rw", "place"))
    pick_rng = make_rng(derive_seed(seed, "rw", "pick"))
    windows = iter(
        uniform_queries(
            world, count, extent, seed=make_rng(derive_seed(seed, "rw", "ranges"))
        )
    )
    knn_rng = make_rng(derive_seed(seed, "rw", "knn"))

    live = sorted(o.uid for o in objects)
    floor = max(1, len(live) // 2)
    next_uid = live[-1] + 1 if live else 0

    def fresh_box() -> AABB:
        center = Vec3(
            float(place_rng.uniform(world.min_x, world.max_x)),
            float(place_rng.uniform(world.min_y, world.max_y)),
            float(place_rng.uniform(world.min_z, world.max_z)),
        )
        return AABB.from_center_extent(center, object_extent)

    def next_read() -> Query:
        if float(kind_rng.uniform(0.0, read_total)) < range_w:
            return RangeQuery(next(windows))
        point = Vec3(
            float(knn_rng.uniform(world.min_x, world.max_x)),
            float(knn_rng.uniform(world.min_y, world.max_y)),
            float(knn_rng.uniform(world.min_z, world.max_z)),
        )
        return KNNQuery(point, knn_k)

    ops: list[Query | Mutation] = []
    for _ in range(count):
        if float(kind_rng.uniform(0.0, 1.0)) >= write_fraction:
            ops.append(next_read())
            continue
        draw = float(kind_rng.uniform(0.0, write_total))
        if draw < insert_w:
            kind = "insert"
        elif draw < insert_w + delete_w:
            kind = "delete"
        else:
            kind = "move"
        if kind == "delete" and len(live) <= floor:
            # The floor invariant outranks the mix: substitute an insert
            # (or a move, or a read when those weights are zero) so the
            # stream never shrinks the dataset below half its start size.
            if insert_w > 0:
                kind = "insert"
            elif move_w > 0:
                kind = "move"
            else:
                ops.append(next_read())
                continue
        if kind == "insert":
            uid = next_uid
            next_uid += 1
            ops.append(Insert(BoxObject(uid=uid, box=fresh_box())))
            live.append(uid)
        elif kind == "delete":
            position = int(pick_rng.integers(0, len(live)))
            uid = live.pop(position)
            ops.append(Delete(uid))
        else:
            uid = live[int(pick_rng.integers(0, len(live)))]
            ops.append(Move(uid, BoxObject(uid=uid, box=fresh_box())))
    return ops
