"""TOUCH phase 1: data-oriented partitioning of dataset A.

Dataset A is packed bottom-up into a hierarchy of spatially tight nodes
(STR tiles), which — unlike a space-oriented grid — leaves *empty space*
between sibling MBRs.  That dead space is what enables filtering in phase 2:
a B object falling entirely into it provably has no join partner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro import kernels
from repro.core.touch.stats import BOX_BYTES, REF_BYTES
from repro.errors import JoinError
from repro.geometry.aabb import AABB
from repro.objects import SpatialObject
from repro.rtree.bulk import str_chunks

__all__ = ["TouchLevels", "TouchNode", "build_touch_tree", "touch_levels"]


@dataclass
class TouchNode:
    """A node of the TOUCH hierarchy over dataset A.

    Leaves hold A objects.  Phases 2 and 3 read the hierarchy as level
    arrays (:func:`touch_levels`), never these nodes.
    """

    level: int
    mbr: AABB
    children: list["TouchNode"] = field(default_factory=list)
    objects: list[SpatialObject] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator["TouchNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def subtree_object_count(self) -> int:
        return sum(len(n.objects) for n in self.iter_nodes())


@dataclass(frozen=True)
class TouchLevels:
    """The TOUCH hierarchy as level arrays: all that phases 2 and 3 read.

    ``objects`` is dataset A laid out leaf by leaf; ``packed`` is the
    active kernel backend's :func:`repro.kernels.pack_hierarchy` of the
    node bounds per level, the child offsets between levels, each leaf's
    range into ``objects`` and the objects' bounds.  Nothing writes to it
    after :func:`touch_levels`, so concurrent joins of B slices share one.
    """

    objects: list[SpatialObject]
    packed: Any
    num_nodes: int

    def structure_bytes(self) -> int:
        """Modelled memory of the hierarchy itself (boxes + references).

        One box per node, one reference per child (every node but the
        root) and one per A object.
        """
        return BOX_BYTES * self.num_nodes + REF_BYTES * (self.num_nodes - 1 + len(self.objects))


def touch_levels(root: TouchNode) -> TouchLevels:
    """Flatten a :func:`build_touch_tree` hierarchy into :class:`TouchLevels`.

    :func:`build_touch_tree` makes balanced trees (every leaf sits at
    level 0), so the nodes of one depth are either all leaves or all
    internal.
    """
    level = [root]
    level_bounds = [[root.mbr.bounds()]]
    child_starts: list[list[int]] = []
    while not level[0].is_leaf:
        below: list[TouchNode] = []
        starts = [0]
        for node in level:
            below.extend(node.children)
            starts.append(len(below))
        child_starts.append(starts)
        level = below
        level_bounds.append([node.mbr.bounds() for node in level])
    objects: list[SpatialObject] = []
    leaf_starts = [0]
    for leaf in level:
        objects.extend(leaf.objects)
        leaf_starts.append(len(objects))
    packed = kernels.pack_hierarchy(
        level_bounds, child_starts, leaf_starts, [o.aabb.bounds() for o in objects]
    )
    return TouchLevels(
        objects=objects, packed=packed, num_nodes=sum(len(b) for b in level_bounds)
    )


def build_touch_tree(
    objects_a: Sequence[SpatialObject],
    leaf_capacity: int = 32,
    fanout: int = 8,
) -> TouchNode:
    """Pack ``objects_a`` into a TOUCH hierarchy with STR tiling."""
    if not objects_a:
        raise JoinError("cannot build a TOUCH tree over an empty dataset")
    if leaf_capacity < 1 or fanout < 2:
        raise JoinError("leaf_capacity must be >= 1 and fanout >= 2")

    def obj_center(obj: SpatialObject) -> tuple[float, float, float]:
        c = obj.aabb.center()
        return (c.x, c.y, c.z)

    leaf_groups = str_chunks(list(objects_a), leaf_capacity, obj_center)
    nodes = [
        TouchNode(
            level=0,
            mbr=AABB.union_all(o.aabb for o in group),
            objects=list(group),
        )
        for group in leaf_groups
    ]

    def node_center(node: TouchNode) -> tuple[float, float, float]:
        c = node.mbr.center()
        return (c.x, c.y, c.z)

    while len(nodes) > 1:
        next_level = nodes[0].level + 1
        groups = str_chunks(nodes, fanout, node_center)
        nodes = [
            TouchNode(
                level=next_level,
                mbr=AABB.union_all(n.mbr for n in group),
                children=list(group),
            )
            for group in groups
        ]
    return nodes[0]
