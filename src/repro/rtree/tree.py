"""The R-tree proper.

Dynamic operations follow Guttman's original design (ChooseLeaf by least
volume enlargement, quadratic split, condense-tree deletion); bulk loading
lives in :mod:`repro.rtree.bulk`.  Every traversal records the statistics the
paper's demo visualises: nodes read per level, entries tested, pages touched.

On dense data the R-tree's internal MBRs overlap heavily, so a range query
descends many parallel paths — that degradation is precisely what FLAT
(:mod:`repro.core.flat`) sidesteps, and the included counters make it
measurable.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Container, Iterator, Sequence

from repro import kernels
from repro.errors import IndexError_, InvariantViolation
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.rtree.node import Entry, Node
from repro.rtree.split import quadratic_split
from repro.rtree.stats import KNNQueryStats, RangeQueryStats, SeedSearchStats
from repro.storage.arena import BoundsView

__all__ = ["RTree"]

SplitFunc = Callable[[Sequence[Entry], int], tuple[list[Entry], list[Entry]]]


class RTree:
    """A 3-D R-tree over ``(uid, AABB)`` pairs.

    Parameters
    ----------
    max_entries:
        Fan-out of internal nodes (and default leaf capacity).
    min_entries:
        Minimum fill; defaults to 40% of ``max_entries``.
    leaf_capacity:
        Leaf fan-out when it differs from the internal one (a leaf models a
        data page, an internal node an index page).
    split:
        Splitting policy; defaults to Guttman's quadratic split.
    """

    def __init__(
        self,
        max_entries: int = 16,
        min_entries: int | None = None,
        leaf_capacity: int | None = None,
        split: SplitFunc = quadratic_split,
    ) -> None:
        if max_entries < 2:
            raise IndexError_("max_entries must be >= 2")
        if min_entries is None:
            min_entries = max(1, (max_entries * 2) // 5)
        if not 1 <= min_entries <= max_entries // 2:
            raise IndexError_("min_entries must be in [1, max_entries/2]")
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.leaf_capacity = leaf_capacity if leaf_capacity is not None else max_entries
        if self.leaf_capacity < 2:
            raise IndexError_("leaf_capacity must be >= 2")
        self._split_func = split
        self._next_node_id = 0
        self.root = self._new_node(level=0)
        self._size = 0
        # Bulk loaders may leave a trailing underfull node per level; the
        # validator only enforces minimum fill for dynamically built trees.
        self._maintains_min_fill = True

    # -- construction helpers ------------------------------------------------
    def _new_node(self, level: int, entries: list[Entry] | None = None) -> Node:
        node = Node(level=level, entries=entries if entries is not None else [])
        node.node_id = self._next_node_id
        self._next_node_id += 1
        return node

    @classmethod
    def _from_root(
        cls,
        root: Node,
        size: int,
        max_entries: int,
        min_entries: int | None = None,
        leaf_capacity: int | None = None,
    ) -> "RTree":
        """Internal: wrap a bulk-built subtree into a tree object."""
        tree = cls(max_entries=max_entries, min_entries=min_entries, leaf_capacity=leaf_capacity)
        tree.root = root
        tree._size = size
        tree._maintains_min_fill = False
        tree._assign_node_ids()
        return tree

    def _assign_node_ids(self) -> None:
        """Number nodes breadth-first (stable ids for page accounting)."""
        next_id = 0
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            node.node_id = next_id
            next_id += 1
            if not node.is_leaf:
                queue.extend(e.child for e in node.entries if e.child is not None)
        self._next_node_id = next_id

    # -- basic properties -----------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return self.root.level + 1

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries if e.child is not None)

    def byte_size(self) -> int:
        """Modelled in-memory footprint of the index structure."""
        return sum(node.byte_size() for node in self.iter_nodes())

    def _capacity_of(self, node: Node) -> int:
        return self.leaf_capacity if node.is_leaf else self.max_entries

    def _min_fill_of(self, node: Node) -> int:
        """Minimum fill for ``node``'s kind.

        When leaves model data pages with their own capacity, the 40%
        internal-node fill can exceed the leaf capacity entirely, making
        leaf splits impossible; leaves then get the same 40% rule scaled
        to their own capacity.  Dynamic maintenance on page-leaved trees
        (the engine's object R-tree) depends on this.
        """
        if node.is_leaf and self.leaf_capacity != self.max_entries:
            return max(1, min(self.min_entries, (self.leaf_capacity * 2) // 5))
        return self.min_entries

    # -- insertion ---------------------------------------------------------------
    def insert(self, uid: int, mbr: AABB) -> None:
        """Insert object ``uid`` with bounding box ``mbr``."""
        self._insert_entry(Entry(mbr=mbr, uid=uid), level=0)
        self._size += 1

    def _insert_entry(self, entry: Entry, level: int) -> None:
        if level > self.root.level:
            raise IndexError_(f"cannot insert at level {level} above root {self.root.level}")
        overflow, _changed = self._insert_rec(self.root, entry, level)
        if overflow is not None:
            old_root = self.root
            self.root = self._new_node(
                level=old_root.level + 1,
                entries=[
                    Entry(mbr=old_root.mbr(), child=old_root),
                    Entry(mbr=overflow.mbr(), child=overflow),
                ],
            )

    def _insert_rec(self, node: Node, entry: Entry, level: int) -> tuple[Node | None, bool]:
        """Insert ``entry`` below ``node``: ``(split-off sibling, changed)``.

        ``changed`` is False only when ``node``'s entries, and so its MBR,
        are exactly what they were: the caller then leaves its slot and
        bounds view alone, and so does every level above it.  A changed
        node edits its bounds view only at the slots that changed.
        """
        if node.level == level:
            node.append(entry)
        else:
            i = self._choose_subtree(node, entry.mbr)
            child = node.entries[i].child
            assert child is not None
            overflow, changed = self._insert_rec(child, entry, level)
            if not changed:
                return None, False
            mbr = child.mbr()
            if overflow is None and mbr == node.entries[i].mbr:
                return None, False
            node.set_mbr(i, mbr)
            if overflow is not None:
                node.append(Entry(mbr=overflow.mbr(), child=overflow))
        if len(node.entries) > self._capacity_of(node):
            return self._split_node(node), True
        return None, True

    def _choose_subtree(self, node: Node, mbr: AABB) -> int:
        """Slot of the least-enlargement child; ties by volume, then by fill.

        Enlargement and volume come straight from the node's bounds tuples
        with :meth:`AABB.enlargement`'s arithmetic, so no box is built per
        entry and the choice (first minimum wins) is the same.
        """
        qx0, qy0, qz0, qx1, qy1, qz1 = mbr.bounds()
        best: int | None = None
        best_key: tuple[float, float, int] | None = None
        for i, (x0, y0, z0, x1, y1, z1) in enumerate(node.view().bounds):
            child = node.entries[i].child
            assert child is not None
            volume = (x1 - x0) * (y1 - y0) * (z1 - z0)
            grown = (
                ((qx1 if qx1 > x1 else x1) - (qx0 if qx0 < x0 else x0))
                * ((qy1 if qy1 > y1 else y1) - (qy0 if qy0 < y0 else y0))
                * ((qz1 if qz1 > z1 else z1) - (qz0 if qz0 < z0 else z0))
            )
            key = (grown - volume, volume, len(child.entries))
            if best_key is None or key < best_key:
                best_key = key
                best = i
        if best is None:
            raise InvariantViolation("internal node with no entries")
        return best

    def _split_node(self, node: Node) -> Node:
        """Split ``node`` in place; both halves' views reuse its rows."""
        group_a, group_b = self._split_func(node.entries, self._min_fill_of(node))
        sibling = self._new_node(level=node.level, entries=group_b)
        if node.bounds is not None:
            row_of = {id(e): row for e, row in zip(node.entries, node.bounds.bounds)}
            node.bounds = BoundsView(row_of[id(e)] for e in group_a)
            sibling.bounds = BoundsView(row_of[id(e)] for e in group_b)
        node.entries = group_a
        return sibling

    # -- deletion -----------------------------------------------------------------
    def delete(self, uid: int, mbr: AABB | None = None) -> None:
        """Remove object ``uid``; ``mbr`` (if given) narrows the search."""
        path = self._find_leaf_path(self.root, uid, mbr)
        if path is None:
            raise KeyError(f"uid {uid} not in tree")
        leaf = path[-1]
        leaf.remove(next(i for i, e in enumerate(leaf.entries) if e.uid == uid))
        self._size -= 1
        self._condense(path)

    def _find_leaf_path(self, node: Node, uid: int, mbr: AABB | None) -> list[Node] | None:
        if node.is_leaf:
            if any(e.uid == uid for e in node.entries):
                return [node]
            return None
        for slot in node.entries:
            if mbr is not None and not slot.mbr.intersects(mbr):
                continue
            assert slot.child is not None
            sub = self._find_leaf_path(slot.child, uid, mbr)
            if sub is not None:
                return [node, *sub]
        return None

    def _condense(self, path: list[Node]) -> None:
        orphan_leaf_entries: list[Entry] = []
        # Whether path[i] changed: once a node keeps its MBR, its parent's
        # slot and bounds stay as they are.  The walk still goes on to the
        # root, because bulk-loaded trees may hold underfull ancestors and
        # the condense pass dissolves every underfull node on the path.
        changed = True
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            parent = path[i - 1]
            if len(node.entries) < self._min_fill_of(node):
                parent.remove(next(k for k, s in enumerate(parent.entries) if s.child is node))
                orphan_leaf_entries.extend(self._collect_leaf_entries(node))
            elif changed:
                slot = next(k for k, s in enumerate(parent.entries) if s.child is node)
                mbr = node.mbr()
                if mbr == parent.entries[slot].mbr:
                    changed = False
                    continue
                parent.set_mbr(slot, mbr)
            else:
                continue
            changed = True
        # Shrink the root while it is an internal node with a single child.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            child = self.root.entries[0].child
            assert child is not None
            self.root = child
        if not self.root.is_leaf and not self.root.entries:
            self.root = self._new_node(level=0)
        for entry in orphan_leaf_entries:
            self._insert_entry(entry, level=0)

    @staticmethod
    def _collect_leaf_entries(node: Node) -> list[Entry]:
        out: list[Entry] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                out.extend(current.entries)
            else:
                stack.extend(e.child for e in current.entries if e.child is not None)
        return out

    # -- queries ----------------------------------------------------------------------
    def range_query(self, box: AABB) -> list[int]:
        """All uids whose boxes intersect ``box`` (order unspecified)."""
        results, _ = self.range_query_with_stats(box)
        return results

    def range_query_with_stats(self, box: AABB) -> tuple[list[int], RangeQueryStats]:
        """Range query plus the per-level node-access statistics of Figure 3.

        Each node scan is one batch kernel call over the entry MBRs (the
        node carries an immutable bounds view, edited at every mutation
        site), so the per-entry work runs vectorised under the NumPy
        backend.
        """
        stats = RangeQueryStats()
        results: list[int] = []
        if self._size == 0:
            return results, stats
        stack = [self.root]
        while stack:
            node = stack.pop()
            stats.record_node(node.level)
            entries = node.entries
            stats.entries_tested += len(entries)
            mask = kernels.box_intersects(node.entry_bounds(), box)
            if node.is_leaf:
                for i in kernels.nonzero(mask):
                    uid = entries[i].uid
                    assert uid is not None
                    results.append(uid)
            else:
                for i in kernels.nonzero(mask):
                    child = entries[i].child
                    assert child is not None
                    stack.append(child)
        stats.num_results = len(results)
        return results, stats

    def find_any_in_range(
        self, box: AABB, exclude: Container[int] | None = None
    ) -> tuple[int | None, SeedSearchStats]:
        """Early-exit search for *one* object intersecting ``box``.

        This is FLAT's seeding primitive: unlike a full range query it stops
        at the first hit, so its cost tracks the tree height rather than the
        result size (and is insensitive to overlap-induced multi-path
        descents as long as one path hits).  ``exclude`` filters uids (FLAT
        passes the already-crawled partitions when re-seeding).
        """
        stats = SeedSearchStats()
        if self._size == 0:
            return None, stats
        found = self._find_any_rec(self.root, box, exclude, stats)
        stats.found = found is not None
        return found, stats

    def _find_any_rec(
        self,
        node: Node,
        box: AABB,
        exclude: Container[int] | None,
        stats: SeedSearchStats,
    ) -> int | None:
        stats.nodes_visited += 1
        for entry in node.entries:
            stats.entries_tested += 1
            if not entry.mbr.intersects(box):
                continue
            if node.is_leaf:
                assert entry.uid is not None
                if exclude is None or entry.uid not in exclude:
                    return entry.uid
            else:
                assert entry.child is not None
                hit = self._find_any_rec(entry.child, box, exclude, stats)
                if hit is not None:
                    return hit
        return None

    def knn(self, point: Vec3, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest objects to ``point`` as ``(uid, distance)`` pairs.

        Best-first traversal with a priority queue on MBR distance, which is
        optimal in node accesses for the given tree.
        """
        results, _ = self.knn_with_stats(point, k)
        return results

    def knn_with_stats(
        self, point: Vec3, k: int
    ) -> tuple[list[tuple[int, float]], KNNQueryStats]:
        """k-nearest-neighbour search plus node/entry access counters.

        The answer is canonical — the ``k`` smallest by ``(distance,
        uid)``.  The frontier orders nodes *before* objects at equal
        distance (an unexplored equal-distance subtree may hold a
        smaller-uid tie) and equal-distance objects by uid, so the result
        never depends on insertion order.
        """
        stats = KNNQueryStats()
        if k < 1 or self._size == 0:
            return [], stats
        counter = itertools.count()
        # Heap items: (distance, is_object, uid-or-tiebreak, node, uid).
        heap: list[tuple[float, int, int, Node | None, int | None]] = [
            (0.0, 0, next(counter), self.root, None)
        ]
        results: list[tuple[int, float]] = []
        while heap and len(results) < k:
            dist, _, _, node, uid = heapq.heappop(heap)
            if node is None:
                assert uid is not None
                results.append((uid, dist))
                continue
            stats.nodes_visited += 1
            entries = node.entries
            stats.entries_tested += len(entries)
            distances = kernels.point_box_distance(node.entry_bounds(), point)
            if node.is_leaf:
                for entry, entry_dist in zip(entries, distances):
                    heapq.heappush(heap, (float(entry_dist), 1, entry.uid, None, entry.uid))
            else:
                for entry, entry_dist in zip(entries, distances):
                    heapq.heappush(
                        heap, (float(entry_dist), 0, next(counter), entry.child, None)
                    )
        stats.num_results = len(results)
        return results, stats

    # -- invariants ------------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`InvariantViolation` if any structural invariant fails."""
        seen_uids: set[int] = set()
        leaf_entries = self._validate_rec(self.root, is_root=True, seen_uids=seen_uids)
        if leaf_entries != self._size:
            raise InvariantViolation(
                f"size mismatch: tree says {self._size}, counted {leaf_entries}"
            )

    def _validate_rec(self, node: Node, is_root: bool, seen_uids: set[int]) -> int:
        cap = self._capacity_of(node)
        if len(node.entries) > cap:
            raise InvariantViolation(f"node {node.node_id} overflows: {len(node.entries)} > {cap}")
        min_fill = self._min_fill_of(node)
        if self._maintains_min_fill and not is_root and len(node.entries) < min_fill:
            raise InvariantViolation(
                f"node {node.node_id} underfull: {len(node.entries)} < {min_fill}"
            )
        if not is_root and not node.entries:
            raise InvariantViolation(f"non-root node {node.node_id} is empty")
        if is_root and not node.is_leaf and len(node.entries) < 2:
            raise InvariantViolation("internal root must have >= 2 entries")
        count = 0
        for entry in node.entries:
            if node.is_leaf:
                if entry.uid is None:
                    raise InvariantViolation("leaf entry without uid")
                if entry.uid in seen_uids:
                    raise InvariantViolation(f"duplicate uid {entry.uid}")
                seen_uids.add(entry.uid)
                count += 1
            else:
                child = entry.child
                if child is None:
                    raise InvariantViolation("internal entry without child")
                if child.level != node.level - 1:
                    raise InvariantViolation(
                        f"level break: node {node.node_id} level {node.level}, "
                        f"child {child.node_id} level {child.level}"
                    )
                if not entry.mbr.contains_box(child.mbr()):
                    raise InvariantViolation(
                        f"entry MBR of node {node.node_id} does not cover child {child.node_id}"
                    )
                count += self._validate_rec(child, is_root=False, seen_uids=seen_uids)
        return count

    # -- diagnostics --------------------------------------------------------------------
    def overlap_factor(self) -> float:
        """Mean pairwise sibling MBR overlap volume, normalised by node volume.

        A direct measure of why range queries degrade on dense data: sibling
        subtrees that cover the same space must all be descended.
        """
        total_overlap = 0.0
        total_volume = 0.0
        for node in self.iter_nodes():
            if node.is_leaf:
                continue
            entries = node.entries
            for i in range(len(entries)):
                total_volume += entries[i].mbr.volume()
                for j in range(i + 1, len(entries)):
                    total_overlap += entries[i].mbr.overlap_volume(entries[j].mbr)
        if total_volume == 0.0:
            return 0.0
        return total_overlap / total_volume
