"""Dynamic maintenance of a FLAT index.

The neuroscientists "build, analyze and fix" their models (paper §1): the
index must absorb insertions (new neurons placed into the circuit) and
deletions (mis-placed branches removed) without a full rebuild.  This module
implements the maintenance operations used by :class:`FLATIndex`:

* ``insert`` routes the object to the least-enlargement partition near it,
  splits the partition with STR when it overflows, and repairs the seed
  tree and the neighbour links locally;
* ``delete`` shrinks or dissolves the containing partition and repairs the
  same structures;
* ``move`` replaces one object's geometry: a *page-level in-place* rewrite
  (same membership, refreshed MBR/page/pack/links) when the new geometry
  still fits the owning partition's MBR, and delete-then-reinsert routing
  when it has drifted out.

Every repair stores a *new* immutable page snapshot (bumping the disk
write-version, which refreshes buffer-pool frames) carrying a new bounds
column view (a one-object insert, delete or in-place move edits the old
view at that object's slot only), and keeps the partitions in
Hilbert-coherent placement: the in-place move path preserves the page's
position in the crawl order, and relocations go through the same
least-enlargement routing as fresh inserts.

All repairs are local: only the touched partition(s) and the neighbour
lists that mention them change, mirroring how the original system applies
model updates between simulation runs.  A rewrite that leaves its
partition MBR unchanged (most of them, in dense tissue) repairs nothing
beyond the page: the seed tree, neighbour links and world box depend on
partition MBRs only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.flat.partitions import Partition
from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.objects import SpatialObject
from repro.rtree.bulk import str_tiles
from repro.storage.arena import BoundsView
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.flat.index import FLATIndex

__all__ = ["insert_object", "delete_object", "move_object", "validate_index"]


def insert_object(index: "FLATIndex", obj: SpatialObject) -> None:
    """Insert ``obj`` into the index, splitting a partition if needed."""
    if obj.uid in index._objects:
        raise IndexError_(f"duplicate object uid {obj.uid}")
    index._objects[obj.uid] = obj

    pid = _choose_partition(index, obj.aabb)
    if pid is None:
        # Index currently holds no live partition: open a fresh one.
        _create_partition(index, (obj.uid,), obj.aabb)
        return

    partition = index.partitions[pid]
    uids = partition.object_uids + (obj.uid,)
    view = index.disk.peek(pid).bounds.append_row(index.bounds_row(obj))
    if len(uids) <= index.page_capacity:
        _replace_partition(index, pid, uids, view)
        return

    # Overflow: retile the members into two partitions with STR.
    halves, mbrs = str_tiles(np.array(view.bounds, dtype=float), (len(uids) + 1) // 2)
    # str_tiles may produce >2 tiles for odd geometry; the first keeps the
    # id, the rest become new partitions.
    kept = tuple(uids[i] for i in halves[0].tolist())
    _replace_partition(index, pid, kept, index.page_bounds_view(kept))
    for group, mbr in zip(halves[1:], mbrs[1:].tolist()):
        _create_partition(index, tuple(uids[i] for i in group.tolist()), AABB(*mbr))


def delete_object(index: "FLATIndex", uid: int) -> None:
    """Remove object ``uid``; dissolve its partition when it empties."""
    if uid not in index._objects:
        raise IndexError_(f"unknown object uid {uid}")
    pid = index._partition_of_uid[uid]
    uids = index.partitions[pid].object_uids
    slot = uids.index(uid)
    remaining = uids[:slot] + uids[slot + 1 :]
    del index._objects[uid]
    del index._partition_of_uid[uid]
    if remaining:
        _replace_partition(index, pid, remaining, index.disk.peek(pid).bounds.remove_row(slot))
    else:
        _dissolve_partition(index, pid)


def move_object(index: "FLATIndex", obj: SpatialObject) -> None:
    """Replace object ``obj.uid``'s geometry with ``obj``.

    When the new geometry still fits inside the owning partition's MBR the
    move is a page-level in-place update: the membership is unchanged, a
    fresh page snapshot is stored (bumping its write-version), the partition
    MBR is tightened and the bounds view refreshed (the seed tree and the
    neighbour links too, when the MBR changed).  Otherwise the object is
    deleted and re-routed through the normal insertion path.
    """
    uid = obj.uid
    if uid not in index._objects:
        raise IndexError_(f"unknown object uid {uid}")
    pid = index._partition_of_uid[uid]
    partition = index.partitions[pid]
    old = index._objects[uid]
    index._objects[uid] = obj
    if partition.mbr.contains_box(obj.aabb):
        uids = partition.object_uids
        view = index.disk.peek(pid).bounds.replace_row(uids.index(uid), index.bounds_row(obj))
        _replace_partition(index, pid, uids, view)
        return
    # Drifted out of the page: restore, then delete + reinsert routes it.
    index._objects[uid] = old
    delete_object(index, uid)
    insert_object(index, obj)


# -- internals ----------------------------------------------------------------


def _choose_partition(index: "FLATIndex", box: AABB) -> int | None:
    """Least-enlargement live partition among the nearest candidates."""
    candidates = index.seed_tree.knn(box.center(), k=4)
    best_pid: int | None = None
    best_key: tuple[float, float] | None = None
    for pid, _distance in candidates:
        partition = index.partitions[pid]
        if partition.num_objects == 0:
            continue
        key = (partition.mbr.enlargement(box), partition.mbr.volume())
        if best_key is None or key < best_key:
            best_key = key
            best_pid = pid
    return best_pid


def _replace_partition(
    index: "FLATIndex", pid: int, uids: tuple[int, ...], bounds: BoundsView
) -> None:
    """Store ``uids`` as page ``pid``; ``bounds`` is their bounds view, in order."""
    old = index.partitions[pid]
    mbr = AABB.union_bounds(bounds.bounds)
    index.partitions[pid] = Partition(partition_id=pid, mbr=mbr, object_uids=uids)
    index.disk.store(Page(page_id=pid, object_uids=uids, mbr=mbr, bounds=bounds))
    for uid in uids:
        index._partition_of_uid[uid] = pid
    if mbr == old.mbr:
        return  # seed tree, links and world depend on partition MBRs only
    index.seed_tree.delete(pid, old.mbr)
    index.seed_tree.insert(pid, mbr)
    _relink_neighbors(index, pid)
    index.world = index.world.union(mbr)


def _create_partition(index: "FLATIndex", uids: tuple[int, ...], mbr: AABB) -> None:
    pid = len(index.partitions)
    index.partitions.append(Partition(partition_id=pid, mbr=mbr, object_uids=uids))
    index.neighbors.append([])
    index.disk.store(
        Page(page_id=pid, object_uids=uids, mbr=mbr, bounds=index.page_bounds_view(uids))
    )
    for uid in uids:
        index._partition_of_uid[uid] = pid
    index.seed_tree.insert(pid, mbr)
    _relink_neighbors(index, pid)
    index.world = index.world.union(mbr)


def _dissolve_partition(index: "FLATIndex", pid: int) -> None:
    """Empty a partition in place, detaching it from all structures."""
    old = index.partitions[pid]
    for neighbor_pid in index.neighbors[pid]:
        index.neighbors[neighbor_pid] = [
            p for p in index.neighbors[neighbor_pid] if p != pid
        ]
    index.neighbors[pid] = []
    index.seed_tree.delete(pid, old.mbr)
    # Keep the id slot (stable page ids) but mark it as empty.
    empty_box = AABB.from_center_extent(old.mbr.center(), 0.0)
    index.partitions[pid] = Partition(partition_id=pid, mbr=empty_box, object_uids=())
    index.disk.store(
        Page(page_id=pid, object_uids=(), mbr=empty_box, bounds=index.page_bounds_view(()))
    )


def _relink_neighbors(index: "FLATIndex", pid: int) -> None:
    """Recompute ``pid``'s adjacency and fix the reverse links."""
    eps = index.neighbor_eps
    partition = index.partitions[pid]
    # Candidates: anything whose MBR could be within eps. The seed tree
    # answers this with an expanded window query.
    probe = partition.mbr.expanded(eps)
    fresh = sorted(
        other
        for other in index.seed_tree.range_query(probe)
        if other != pid
        and index.partitions[other].num_objects > 0
        and partition.mbr.intersects_expanded(index.partitions[other].mbr, eps)
    )
    stale = set(index.neighbors[pid]) - set(fresh)
    for other in stale:
        index.neighbors[other] = [p for p in index.neighbors[other] if p != pid]
    for other in fresh:
        if pid not in index.neighbors[other]:
            index.neighbors[other].append(pid)
            index.neighbors[other].sort()
    index.neighbors[pid] = fresh


def validate_index(index: "FLATIndex") -> None:
    """Check all FLAT invariants; raise :class:`IndexError_` on violation."""
    seen: set[int] = set()
    for partition in index.partitions:
        for uid in partition.object_uids:
            if uid in seen:
                raise IndexError_(f"uid {uid} appears in multiple partitions")
            seen.add(uid)
            obj = index._objects.get(uid)
            if obj is None:
                raise IndexError_(f"partition {partition.partition_id} references unknown {uid}")
            if not partition.mbr.contains_box(obj.aabb):
                raise IndexError_(
                    f"partition {partition.partition_id} MBR does not cover object {uid}"
                )
            if index._partition_of_uid.get(uid) != partition.partition_id:
                raise IndexError_(f"uid {uid} has a stale partition mapping")
        page = index.disk.peek(partition.partition_id)
        rows = tuple(index._objects[uid].aabb.bounds() for uid in partition.object_uids)
        if page.object_uids != partition.object_uids or page.bounds.bounds != rows:
            raise IndexError_(f"page {partition.partition_id} is stale")
    if seen != set(index._objects):
        raise IndexError_("objects and partitions disagree")

    live = {p.partition_id for p in index.partitions if p.num_objects > 0}
    tree_pids = set(index.seed_tree.range_query(index.world.expanded(1.0)))
    if tree_pids != live:
        raise IndexError_(
            f"seed tree tracks {len(tree_pids)} partitions, index has {len(live)} live"
        )
    for pid, adjacency in enumerate(index.neighbors):
        for other in adjacency:
            if pid not in index.neighbors[other]:
                raise IndexError_(f"neighbour link {pid}->{other} not symmetric")
            if index.partitions[other].num_objects == 0:
                raise IndexError_(f"{pid} links to empty partition {other}")
        if index.partitions[pid].num_objects > 0:
            expected = sorted(
                other
                for other in live
                if other != pid
                and index.partitions[pid].mbr.intersects_expanded(
                    index.partitions[other].mbr, index.neighbor_eps
                )
            )
            if sorted(adjacency) != expected:
                raise IndexError_(f"neighbour list of {pid} is stale")
    index.seed_tree.validate()
