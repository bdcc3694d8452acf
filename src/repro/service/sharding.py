"""Spatial partitioning of one dataset into engine shards.

A shard is a contiguous run of the dataset in Hilbert-curve order: sort all
object centres along the curve, cut the sorted sequence into ``num_shards``
equal-count chunks.  Equal counts balance the per-shard work (every shard
owns the same number of objects, so index sizes and scan costs match), and
curve contiguity makes each chunk a spatially coherent *tile* — a range
window touches only the shards whose tile it overlaps, which is what lets
the service prune the fan-out.

The partitioning is a pure function of ``(objects, num_shards, order)``:
ties on the Hilbert key break by ``uid``, so shard membership is exactly
reproducible across runs, thread schedules and kernel backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServiceError
from repro.geometry.aabb import AABB
from repro.hilbert.curve import HilbertEncoder3D
from repro.objects import SpatialObject

__all__ = ["ShardSpec", "hilbert_shards"]


@dataclass
class ShardSpec:
    """Routing and pruning metadata of one live shard.

    ``mbr`` covers every member object's AABB (not the tile of space): a
    query window that misses it misses the whole shard, so the service can
    skip the shard without consulting its index.  It starts as the tight
    union at partition time and only ever *stretches* as writes land
    (:meth:`stretch` on insert and move); deletes leave it as it is, so it
    stays a conservative cover and pruning stays exact until the next
    re-tile recomputes it tightly.

    ``key_range`` is the shard's span ``(lo, hi)`` on the Hilbert curve the
    partitioner sorted by — the shard *owns* that contiguous key interval,
    which is what lets the live-data write path route an inserted object to
    a shard without consulting any index (``None`` when the partitioner did
    not sort, e.g. the single-shard fast path).

    The members themselves live only in the shard's engine; a spec holds
    no copy of them.
    """

    shard_id: int
    mbr: AABB
    key_range: tuple[int, int] | None = None

    def stretch(self, box: AABB) -> None:
        """Grow ``mbr`` to cover ``box`` (a written object's new geometry)."""
        if not self.mbr.contains_box(box):
            self.mbr = self.mbr.union(box)


def hilbert_shards(
    objects: Sequence[SpatialObject],
    num_shards: int,
    order: int = 10,
) -> list[tuple[ShardSpec, tuple[SpatialObject, ...]]]:
    """Partition ``objects`` into up to ``num_shards`` Hilbert-order tiles.

    Returns one ``(spec, members)`` pair per shard.  Every object lands in
    exactly one shard (the invariant every merge in
    :class:`~repro.service.ShardedEngine` relies on).  When the dataset is
    smaller than ``num_shards`` the count is clamped so no shard is empty.

    >>> parts = hilbert_shards(circuit.segments(), 4)
    >>> sum(len(members) for _, members in parts) == len(circuit.segments())
    True
    """
    if num_shards < 1:
        raise ServiceError("need at least one shard")
    if not objects:
        raise ServiceError("cannot shard an empty dataset")
    num_shards = min(num_shards, len(objects))
    if num_shards == 1:
        members = tuple(objects)
        return [(ShardSpec(0, _cover(members)), members)]

    world = AABB.union_all(o.aabb for o in objects)
    encoder = HilbertEncoder3D(world, order=order)
    keys = encoder.keys_of_boxes([o.aabb for o in objects])
    ranked = sorted(range(len(objects)), key=lambda i: (keys[i], objects[i].uid))

    base, extra = divmod(len(ranked), num_shards)
    parts: list[tuple[ShardSpec, tuple[SpatialObject, ...]]] = []
    cursor = 0
    for shard_id in range(num_shards):
        take = base + (1 if shard_id < extra else 0)
        picked = ranked[cursor : cursor + take]
        members = tuple(objects[i] for i in picked)
        key_range = (keys[picked[0]], keys[picked[-1]])
        parts.append((ShardSpec(shard_id, _cover(members), key_range=key_range), members))
        cursor += take
    return parts


def _cover(members: Sequence[SpatialObject]) -> AABB:
    return AABB.union_all(o.aabb for o in members)

