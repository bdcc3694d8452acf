"""FLAT indexing phase, step 1: pack objects into disk-page partitions.

Partitions are STR tiles of ``page_capacity`` objects: spatially compact,
non-replicated, one partition per simulated disk page.  The partition MBRs
are what the seed index and the neighborhood links are built over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.aabb import AABB
from repro.objects import SpatialObject
from repro.rtree.bulk import str_tiles

__all__ = ["Partition", "build_partitions"]


@dataclass(frozen=True)
class Partition:
    """A page-sized group of objects with its MBR.

    ``partition_id`` doubles as the page id on the simulated disk.
    """

    partition_id: int
    mbr: AABB
    object_uids: tuple[int, ...]

    @property
    def num_objects(self) -> int:
        return len(self.object_uids)


def build_partitions(
    objects: Sequence[SpatialObject], page_capacity: int, bounds: np.ndarray | None = None
) -> list[Partition]:
    """STR-tile ``objects`` into partitions of at most ``page_capacity``.

    ``bounds`` is the objects' float64 ``(n, 6)`` bounds array, row for
    row, when the caller already holds one (an arena's bounds column);
    otherwise it is built from the objects.
    """
    if not objects:
        raise IndexError_("cannot partition an empty dataset")
    if page_capacity < 1:
        raise IndexError_("page capacity must be >= 1")
    if bounds is None:
        bounds = np.array([o.aabb.bounds() for o in objects], dtype=float)

    chunks, mbrs = str_tiles(bounds, page_capacity)
    uids = np.array([o.uid for o in objects])
    return [
        Partition(partition_id=pid, mbr=AABB(*mbr), object_uids=tuple(uids[chunk].tolist()))
        for pid, (chunk, mbr) in enumerate(zip(chunks, mbrs.tolist()))
    ]
