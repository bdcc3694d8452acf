"""TOUCH phase 1: data-oriented partitioning of dataset A.

Dataset A is packed bottom-up into a hierarchy of spatially tight nodes
(STR tiles), which — unlike a space-oriented grid — leaves *empty space*
between sibling MBRs.  That dead space is what enables filtering in phase 2:
a B object falling entirely into it provably has no join partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import kernels
from repro.core.touch.stats import BOX_BYTES, REF_BYTES
from repro.errors import JoinError
from repro.objects import SpatialObject
from repro.rtree.bulk import str_tiles

__all__ = ["TouchLevels", "touch_levels"]


@dataclass(frozen=True)
class TouchLevels:
    """The TOUCH hierarchy as level arrays: all that phases 2 and 3 read.

    ``objects`` is dataset A laid out leaf by leaf; ``packed`` is the
    active kernel backend's :func:`repro.kernels.pack_hierarchy` of the
    node bounds per level, the child offsets between levels, each leaf's
    range into ``objects`` and the objects' bounds.  Nothing writes to it
    after :func:`touch_levels`: joins only read it.
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


def touch_levels(
    objects_a: Sequence[SpatialObject],
    leaf_capacity: int = 32,
    fanout: int = 8,
) -> TouchLevels:
    """Pack ``objects_a`` into TOUCH's hierarchy with STR tiling, as level arrays.

    Leaves are STR tiles of at most ``leaf_capacity`` objects; each level
    above tiles the MBRs of the one below into nodes of at most ``fanout``,
    until one root remains, so every leaf sits at the same depth.  The
    levels are then laid out root first, each node's children consecutive
    in the level below.
    """
    if not objects_a:
        raise JoinError("cannot build a TOUCH tree over an empty dataset")
    if leaf_capacity < 1 or fanout < 2:
        raise JoinError("leaf_capacity must be >= 1 and fanout >= 2")

    rows = [o.aabb.bounds() for o in objects_a]
    groups, boxes = str_tiles(np.array(rows, dtype=float), leaf_capacity)
    built = [(groups, boxes)]  # bottom-up: each level's child groups and MBRs
    while len(boxes) > 1:
        groups, boxes = str_tiles(boxes, fanout)
        built.append((groups, boxes))

    order = [0]  # the nodes of the current depth, as indices into its level
    level_bounds: list[list[tuple[float, ...]]] = []
    child_starts: list[list[int]] = []
    for groups, boxes in reversed(built):
        box_rows = boxes.tolist()
        level_bounds.append([tuple(box_rows[i]) for i in order])
        starts = [0]
        below: list[int] = []
        for i in order:
            below.extend(groups[i].tolist())
            starts.append(len(below))
        child_starts.append(starts)
        order = below
    leaf_starts = child_starts.pop()  # the leaves' children are A objects
    packed = kernels.pack_hierarchy(
        level_bounds, child_starts, leaf_starts, [rows[i] for i in order]
    )
    return TouchLevels(
        objects=[objects_a[i] for i in order],
        packed=packed,
        num_nodes=sum(len(b) for b in level_bounds),
    )
