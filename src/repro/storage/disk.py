"""Simulated disk with a deterministic cost model.

The paper's numbers were taken on real disk arrays attached to a BlueGene/P;
this reproduction replaces the hardware with a cost model so that "disk pages
retrieved" and "I/O time" are exact and machine-independent:

* every page read off the platter costs ``read_latency_ms``
  (seek + rotational + transfer, collapsed into one constant),
* a read that follows the immediately preceding page id is *sequential* and
  costs only ``sequential_latency_ms`` (no seek), matching the behaviour
  FLAT's Hilbert-clustered crawl exploits,
* buffer-pool hits cost ``hit_latency_ms``.

The paper's claims compare techniques under one shared set of constants;
``repro report`` regenerates every figure and claim under the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PageNotFoundError
from repro.storage.page import Page

__all__ = ["Disk", "DiskParameters", "IOStats"]


@dataclass(frozen=True, slots=True)
class DiskParameters:
    """Latency constants (milliseconds) of the simulated device."""

    read_latency_ms: float = 5.0
    sequential_latency_ms: float = 0.5
    hit_latency_ms: float = 0.01

    def __post_init__(self) -> None:
        if min(self.read_latency_ms, self.sequential_latency_ms, self.hit_latency_ms) < 0:
            raise ValueError("latencies must be non-negative")


@dataclass
class IOStats:
    """Counters accumulated by a :class:`Disk` (and surfaced per query)."""

    page_reads: int = 0
    sequential_reads: int = 0
    io_time_ms: float = 0.0

    def snapshot(self) -> "IOStats":
        return IOStats(self.page_reads, self.sequential_reads, self.io_time_ms)

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        return IOStats(
            self.page_reads - earlier.page_reads,
            self.sequential_reads - earlier.sequential_reads,
            self.io_time_ms - earlier.io_time_ms,
        )

    def merged_with(self, other: "IOStats") -> "IOStats":
        return IOStats(
            self.page_reads + other.page_reads,
            self.sequential_reads + other.sequential_reads,
            self.io_time_ms + other.io_time_ms,
        )


@dataclass
class Disk:
    """A dictionary of pages fronted by the cost model above."""

    params: DiskParameters = field(default_factory=DiskParameters)
    _pages: dict[int, Page] = field(default_factory=dict)
    stats: IOStats = field(default_factory=IOStats)
    _last_page_id: int | None = field(default=None, repr=False)
    _versions: dict[int, int] = field(default_factory=dict, repr=False)

    def store(self, page: Page) -> None:
        """Write a page (index building is not part of measured query I/O).

        Every store bumps the page's version, which is how buffer pools and
        pack caches detect that a frame they hold went stale after index
        maintenance rewrote the page in place.
        """
        self._pages[page.page_id] = page
        self._versions[page.page_id] = self._versions.get(page.page_id, 0) + 1

    def version_of(self, page_id: int) -> int:
        """Monotone write-version of a page (0 for never-stored pages)."""
        return self._versions.get(page_id, 0)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def page_ids(self) -> list[int]:
        return list(self._pages)

    def read(self, page_id: int) -> tuple[Page, float]:
        """Fetch a page from the platter; returns ``(page, latency_ms)``."""
        try:
            page = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
        sequential = self._last_page_id is not None and page_id == self._last_page_id + 1
        latency = (
            self.params.sequential_latency_ms if sequential else self.params.read_latency_ms
        )
        self.stats.page_reads += 1
        if sequential:
            self.stats.sequential_reads += 1
        self.stats.io_time_ms += latency
        self._last_page_id = page_id
        return page, latency

    def peek(self, page_id: int) -> Page:
        """Inspect a page without touching the counters (maintenance, tests)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None

    def reset_stats(self) -> None:
        self.stats = IOStats()
        self._last_page_id = None
