"""Skeleton reconstruction: approximate query-result content with a graph.

"While the result of query q in the sequence is loaded, SCOUT already starts
to reconstruct the dominating structures/the topological skeleton in q and
approximates them with a graph" (paper §3.1).

The skeleton is rebuilt from *geometry only*: segment endpoints are snapped
onto a tolerance grid and segments sharing a snapped endpoint are connected.
Provenance ids (which branch a segment really belongs to) are deliberately
unused — they serve only as ground truth in the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.geometry.aabb import AABB
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3

__all__ = ["Skeleton", "Structure", "ExitEdge"]


@dataclass(frozen=True)
class ExitEdge:
    """A skeleton edge crossing the query boundary outward."""

    segment_uid: int
    exit_point: Vec3
    direction: Vec3  # unit vector pointing out of the box
    structure_id: int


@dataclass
class Structure:
    """A connected component of the skeleton."""

    structure_id: int
    segment_uids: set[int] = field(default_factory=set)
    exit_edges: list[ExitEdge] = field(default_factory=list)

    @property
    def num_segments(self) -> int:
        return len(self.segment_uids)

    @property
    def is_exiting(self) -> bool:
        return bool(self.exit_edges)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            root = self.find(parent)
            self._parent[x] = root
            return root
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


class Skeleton:
    """Graph approximation of a query result.

    Nodes are snapped segment endpoints, edges are segments; connected
    components are the *structures* of the paper.  ``snap_tolerance`` is the
    grid pitch for endpoint coincidence (float noise robustness).
    """

    def __init__(self, segments: Sequence[Segment], snap_tolerance: float = 1e-3) -> None:
        self.snap_tolerance = snap_tolerance
        self._segments = {s.uid: s for s in segments}
        self._node_of_point: dict[tuple[int, int, int], int] = {}
        self._endpoints: dict[int, tuple[int, int]] = {}  # uid -> (node0, node1)
        self._adjacency: dict[int, list[int]] = {}  # node -> segment uids
        union = _UnionFind()

        for segment in segments:
            n0 = self._node_for(segment.p0)
            n1 = self._node_for(segment.p1)
            self._endpoints[segment.uid] = (n0, n1)
            self._adjacency.setdefault(n0, []).append(segment.uid)
            self._adjacency.setdefault(n1, []).append(segment.uid)
            union.union(n0, n1)

        # Assign dense structure ids per component root.
        root_to_sid: dict[int, int] = {}
        self._structures: dict[int, Structure] = {}
        self._structure_of_segment: dict[int, int] = {}
        for uid, (n0, _) in self._endpoints.items():
            root = union.find(n0)
            sid = root_to_sid.setdefault(root, len(root_to_sid))
            structure = self._structures.setdefault(sid, Structure(structure_id=sid))
            structure.segment_uids.add(uid)
            self._structure_of_segment[uid] = sid

    def _node_for(self, point: Vec3) -> int:
        key = (
            round(point.x / self.snap_tolerance),
            round(point.y / self.snap_tolerance),
            round(point.z / self.snap_tolerance),
        )
        return self._node_of_point.setdefault(key, len(self._node_of_point))

    # -- accessors ---------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_of_point)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def structures(self) -> list[Structure]:
        return [self._structures[sid] for sid in sorted(self._structures)]

    def structure_of(self, segment_uid: int) -> int:
        return self._structure_of_segment[segment_uid]

    # -- exit detection -------------------------------------------------------
    def find_exits(self, box: AABB, smooth_steps: int = 4) -> list[ExitEdge]:
        """Detect edges leaving ``box`` and attach them to their structures.

        A segment with one endpoint inside and one outside crosses the
        boundary; the exit point is the crossing, and the direction is the
        average of up to ``smooth_steps`` trailing segment directions along
        the unbranched chain behind the exit (linear extrapolation of a
        jagged path is noisy from a single segment, so SCOUT smooths over
        the reconstructed skeleton path).
        """
        exits: list[ExitEdge] = []
        for structure in self._structures.values():
            structure.exit_edges.clear()
        for uid, segment in self._segments.items():
            inside0 = box.contains_point(segment.p0)
            inside1 = box.contains_point(segment.p1)
            if inside0 == inside1:
                continue
            inner, outer = (segment.p0, segment.p1) if inside0 else (segment.p1, segment.p0)
            exit_point = _clip_to_boundary(inner, outer, box)
            direction = self._smoothed_direction(uid, inner, outer, smooth_steps)
            sid = self._structure_of_segment[uid]
            edge = ExitEdge(
                segment_uid=uid, exit_point=exit_point, direction=direction, structure_id=sid
            )
            exits.append(edge)
            self._structures[sid].exit_edges.append(edge)
        return exits

    def _smoothed_direction(
        self, uid: int, inner: Vec3, outer: Vec3, smooth_steps: int
    ) -> Vec3:
        """Average direction over the chain of segments feeding the exit."""
        total = (outer - inner).normalized()
        if smooth_steps <= 1:
            return total
        accum = total
        count = 1
        # Walk backwards from the inner endpoint along degree-2 chain nodes.
        n0, n1 = self._endpoints[uid]
        # The inner endpoint is whichever snapped node is nearer to ``inner``.
        current_node = n0 if self._distance_to_node(inner, n0, uid) <= self._distance_to_node(
            inner, n1, uid
        ) else n1
        current_uid = uid
        head = inner
        for _ in range(smooth_steps - 1):
            incident = [u for u in self._adjacency.get(current_node, []) if u != current_uid]
            if len(incident) != 1:
                break  # branch point or dangling end: stop smoothing
            current_uid = incident[0]
            seg = self._segments[current_uid]
            e0, e1 = self._endpoints[current_uid]
            if e0 == current_node:
                tail, next_node = seg.p0, e1
                tail_other = seg.p1
            else:
                tail, next_node = seg.p1, e0
                tail_other = seg.p0
            step_dir = (head - tail_other).normalized()
            del tail
            accum = accum + step_dir
            count += 1
            head = tail_other
            current_node = next_node
        if count == 1:
            return total
        return (accum / count).normalized()

    def _distance_to_node(self, point: Vec3, node: int, uid: int) -> float:
        seg = self._segments[uid]
        n0, n1 = self._endpoints[uid]
        endpoint = seg.p0 if node == n0 else seg.p1
        return point.distance_to(endpoint)


def _clip_to_boundary(inner: Vec3, outer: Vec3, box: AABB) -> Vec3:
    """First crossing of the ray ``inner -> outer`` with the box boundary."""
    t_exit = 1.0
    delta = outer - inner
    for axis, (lo, hi) in enumerate(
        ((box.min_x, box.max_x), (box.min_y, box.max_y), (box.min_z, box.max_z))
    ):
        d = delta[axis]
        if d == 0.0:
            continue
        p = inner[axis]
        for bound in (lo, hi):
            t = (bound - p) / d
            if 0.0 < t < t_exit:
                # Crossing must leave the box: check the point is on the face.
                candidate = inner.lerp(outer, t)
                if _on_box(candidate, box):
                    t_exit = t
    return inner.lerp(outer, t_exit)


def _on_box(point: Vec3, box: AABB, slack: float = 1e-9) -> bool:
    return (
        box.min_x - slack <= point.x <= box.max_x + slack
        and box.min_y - slack <= point.y <= box.max_y + slack
        and box.min_z - slack <= point.z <= box.max_z + slack
    )
