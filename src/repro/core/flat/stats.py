"""FLAT query statistics — the live counters of the demo's Figure 3/4."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FLATQueryStats"]


@dataclass
class FLATQueryStats:
    """Counters for one FLAT range query.

    ``crawl_order`` is the sequence of partition (page) ids in visit order —
    exactly what Figure 4 renders by colouring the result as it loads.
    ``pages_read`` is the total I/O: seed-index node pages plus data pages.
    """

    seed_attempts: int = 0
    seed_nodes_visited: int = 0
    seed_entries_tested: int = 0
    reseeds: int = 0  # seed attempts beyond the first that found a partition
    partitions_fetched: int = 0
    crawl_order: list[int] = field(default_factory=list)
    neighbor_tests: int = 0
    objects_scanned: int = 0
    num_results: int = 0
    stall_time_ms: float = 0.0

    @property
    def pages_read(self) -> int:
        return self.seed_nodes_visited + self.partitions_fetched
