"""A1-A8: ablations of the design choices of FLAT, SCOUT and TOUCH."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    a1_flat_verification,
    a2_flat_page_capacity,
    a3_scout_content_awareness,
    a4_scout_pruning,
    a5_touch_filtering,
    a6_touch_fanout,
    a7_flat_incremental_maintenance,
    a8_touch_eps_sensitivity,
)


def test_a1_flat_verification(benchmark, save_result):
    """Verification adds seed work; crawl-only already achieves full recall
    on the circuit workloads (the neighbour graph connects every range)."""
    result = benchmark.pedantic(a1_flat_verification, rounds=1, iterations=1)
    save_result("A1_flat_verification", result.render())
    crawl_only, verified = result.rows
    assert crawl_only["recall"] == pytest.approx(1.0)
    assert verified["recall"] == pytest.approx(1.0)
    assert verified["seed_nodes"] > crawl_only["seed_nodes"]
    assert verified["data_pages"] == pytest.approx(crawl_only["data_pages"])


def test_a2_flat_page_capacity(benchmark, save_result):
    """Smaller pages fetch less junk per query but need more fetches."""
    result = benchmark.pedantic(a2_flat_page_capacity, rounds=1, iterations=1)
    save_result("A2_flat_page_capacity", result.render())
    rows = result.rows
    # Page count per query decreases monotonically with capacity...
    assert rows[0]["pages"] >= rows[-1]["pages"]
    # ...while the objects touched per query grow (coarser granularity).
    assert rows[0]["scanned"] <= rows[-1]["scanned"]


def test_a3_scout_content_awareness(benchmark, save_result):
    """Skeleton-path smoothing must not hurt; jagged paths reward it."""
    result = benchmark.pedantic(a3_scout_content_awareness, rounds=1, iterations=1)
    save_result("A3_scout_content", result.render())
    smoothed, single = result.rows
    assert smoothed["stall_ms"] <= single["stall_ms"] * 1.1


def test_a4_scout_pruning(benchmark, save_result):
    """Pruning concentrates the budget: fewer wasted prefetches."""
    result = benchmark.pedantic(a4_scout_pruning, rounds=1, iterations=1)
    save_result("A4_scout_pruning", result.render())
    pruned, unpruned = result.rows
    assert pruned["accuracy"] >= unpruned["accuracy"] * 0.95
    assert pruned["issued"] <= unpruned["issued"]


def test_a5_touch_filtering(benchmark, save_result):
    """Empty-space filtering removes work without changing results."""
    result = benchmark.pedantic(a5_touch_filtering, rounds=1, iterations=1)
    save_result("A5_touch_filtering", result.render())
    on, off = result.rows
    assert on["pairs"] == off["pairs"]
    assert on["filtered"] > 0
    assert on["comparisons"] <= off["comparisons"]


def test_a6_touch_fanout(benchmark, save_result):
    """Fanout trades node tests against bucket sizes; results unchanged."""
    result = benchmark.pedantic(a6_touch_fanout, rounds=1, iterations=1)
    save_result("A6_touch_fanout", result.render())
    assert len({row["fanout"] for row in result.rows}) == len(result.rows)


def test_a7_flat_incremental_maintenance(benchmark, save_result):
    """Incremental inserts keep queries exact at near-rebuild quality."""
    result = benchmark.pedantic(a7_flat_incremental_maintenance, rounds=1, iterations=1)
    save_result("A7_flat_maintenance", result.render())
    incremental, rebuild = result.rows
    assert incremental["recall"] == pytest.approx(1.0)
    assert rebuild["recall"] == pytest.approx(1.0)
    # The locally maintained index must stay within 2x of the rebuilt
    # index's per-query page cost (packing degrades gracefully).
    assert incremental["pages"] <= rebuild["pages"] * 2.0


def test_a8_touch_eps_sensitivity(benchmark, save_result):
    """Pairs and comparisons grow monotonically with the tolerance."""
    result = benchmark.pedantic(a8_touch_eps_sensitivity, rounds=1, iterations=1)
    save_result("A8_touch_eps", result.render())
    pairs = [row["pairs"] for row in result.rows]
    comparisons = [row["comparisons"] for row in result.rows]
    assert pairs == sorted(pairs)
    assert comparisons == sorted(comparisons)
