"""R-tree: the classical spatial index the paper's techniques compare against.

Implemented from scratch: Guttman insertion with quadratic split, deletion
with tree condensation, exact range queries with per-level node-access
statistics (the demo's Figure 3 shows "how many nodes are retrieved on each
level"), early-exit seed search (used by FLAT), best-first k-nearest-
neighbour, and STR bulk loading.
"""

from repro.rtree.bulk import str_bulk_load, str_chunks
from repro.rtree.node import ENTRY_BYTES, NODE_HEADER_BYTES, Entry, Node
from repro.rtree.stats import RangeQueryStats, SeedSearchStats
from repro.rtree.tree import RTree

__all__ = [
    "ENTRY_BYTES",
    "Entry",
    "NODE_HEADER_BYTES",
    "Node",
    "RangeQueryStats",
    "RTree",
    "SeedSearchStats",
    "str_bulk_load",
    "str_chunks",
]
