"""Tests for the experiment harness and the shapes the paper reports.

``repro claims`` and ``repro report`` run the full-size experiments; these
tests verify the harness logic itself — table rendering, result
invariants, cross-system agreement — and each figure's and ablation's
qualitative shape (who wins, which way a sweep moves), at the smallest
sizes where that shape is defined.
"""

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
from repro.experiments.datasets import (
    circuit_dataset,
    dense_join_workload,
    flat_index_for,
    rtree_baseline_for,
)
from repro.experiments.fig_flat import (
    crawl_trace_experiment,
    density_sweep_experiment,
    flat_vs_rtree_experiment,
    tissue_statistics_experiment,
)
from repro.experiments.fig_scout import pruning_experiment, walkthrough_experiment
from repro.experiments.fig_touch import (
    join_comparison_experiment,
    join_scaling_experiment,
)

SMALL = dict(n_neurons=12, seed=99)


class TestDatasets:
    def test_circuit_memoised(self):
        assert circuit_dataset(**SMALL) is circuit_dataset(**SMALL)

    def test_index_matches_circuit(self):
        circuit = circuit_dataset(**SMALL)
        index = flat_index_for(page_capacity=32, **SMALL)
        assert index.num_objects == circuit.num_segments

    def test_rtree_baseline_methods(self):
        inserted = rtree_baseline_for(method="insert", **SMALL)
        packed = rtree_baseline_for(method="str", **SMALL)
        assert len(inserted) == len(packed)
        inserted.validate()
        packed.validate()
        # Both must answer queries identically (overlap quality differs).
        circuit = circuit_dataset(**SMALL)
        from repro.geometry.aabb import AABB

        box = AABB.from_center_extent(circuit.bounding_box().center(), 150.0)
        assert sorted(inserted.range_query(box)) == sorted(packed.range_query(box))
        with pytest.raises(ValueError):
            rtree_baseline_for(method="bogus", **SMALL)

    def test_dense_join_workload_shapes(self):
        a, b = dense_join_workload(200, seed=5, n_neurons=30)
        assert len(a) == 200 and len(b) == 200
        assert len({s.uid for s in a} & {s.uid for s in b}) == 0


class TestFlatExperiments:
    def test_e1_result_consistency(self):
        result = flat_vs_rtree_experiment(
            region="dense", num_queries=3, extent=100.0, **SMALL
        )
        assert result.flat.mean_results == result.rtree.mean_results
        assert result.flat.mean_data_pages > 0
        assert "E1" in result.render()

    def test_e1_sparse_region(self):
        result = flat_vs_rtree_experiment(
            region="sparse", num_queries=3, extent=60.0, **SMALL
        )
        assert result.flat.mean_results <= 50

    def test_e1_flat_reads_less_on_a_dense_region(self):
        result = flat_vs_rtree_experiment(region="dense", num_queries=4)
        assert result.flat.mean_io_ms < result.rtree.mean_io_ms
        assert result.flat.mean_results == result.rtree.mean_results

    def test_e2_rows_and_growth(self):
        sweep = density_sweep_experiment(
            density_factors=(1, 2), base_neurons=6, num_queries=3, seed=99
        )
        assert len(sweep.rows) == 2
        assert sweep.flat_growth() > 0
        assert "density" in sweep.render()

    def test_e3_trace_contiguous(self):
        trace = crawl_trace_experiment(extent=120.0, **SMALL)
        assert trace.contiguous_fraction == pytest.approx(1.0)
        assert trace.reseeds == 0
        assert trace.data_pages == len(trace.crawl_order)

    def test_e8_density_grid(self):
        result = tissue_statistics_experiment(cells_per_axis=2, **SMALL)
        assert len(result.densities) == 8
        assert 0 < result.flat_total_pages <= result.rtree_total_pages
        assert max(result.densities) > 0.0


class TestScoutExperiments:
    def test_e4_history_nonempty(self):
        result = pruning_experiment(walk_seed=3, **SMALL)
        assert result.candidate_history
        assert all(c >= 0 for c in result.candidate_history)

    def test_e4_candidate_set_contracts(self):
        history = pruning_experiment().candidate_history
        assert len(history) >= 5
        # Figure 5: the steady-state set is a small fraction of the first.
        assert min(history[2:]) <= max(history[0], 1) // 2
        assert history[0] >= history[-1]

    def test_e5_rows_complete(self):
        result = walkthrough_experiment(
            num_walks=1, methods=("none", "SCOUT"), **SMALL
        )
        assert {row.method for row in result.rows} == {"none", "SCOUT"}
        scout = result.row("SCOUT")
        none = result.row("none")
        assert scout.total_stall_ms <= none.total_stall_ms
        assert none.speedup == 1.0
        with pytest.raises(KeyError):
            result.row("bogus")

    def test_e5_scout_leads_every_baseline(self):
        result = walkthrough_experiment(num_walks=1, **SMALL)
        scout = result.row("SCOUT")
        assert scout.speedup > 2.0
        assert scout.steady_speedup > 8.0
        for method in ("none", "hilbert", "extrapolation"):
            assert scout.total_stall_ms < result.row(method).total_stall_ms
        assert result.row("markov").speedup < scout.speedup


class TestTouchExperiments:
    def test_e6_all_algorithms_agree(self):
        result = join_comparison_experiment(n_per_side=300, seed=99)
        pair_counts = {row.pairs for row in result.rows}
        assert len(pair_counts) == 1  # identical result sets
        touch = result.row("TOUCH")
        assert touch.filtered > 0  # empty space is actually exploited
        assert touch.replicated == 0
        assert result.row("PBSM").replicated > 0
        assert "E6" in result.render()

    def test_e6_touch_needs_the_fewest_comparisons(self):
        result = join_comparison_experiment(n_per_side=1200, seed=99)
        touch = result.row("TOUCH")
        for name in ("PBSM", "S3", "plane-sweep", "nested-loop"):
            assert touch.comparisons < result.row(name).comparisons

    def test_e6_without_refinement(self):
        refined = join_comparison_experiment(n_per_side=300, seed=99, refine=True)
        raw = join_comparison_experiment(n_per_side=300, seed=99, refine=False)
        assert raw.synapses >= refined.synapses

    def test_e7_slowdowns_relative_to_touch(self):
        result = join_scaling_experiment(sizes=(300,), seed=99, nested_loop_max=300)
        touch_rows = [r for r in result.rows if r.algorithm == "TOUCH"]
        assert all(r.slowdown_vs_touch == 1.0 for r in touch_rows)
        nested = result.slowdown("nested-loop", 300)
        assert nested > 1.0

    def test_e7_nested_loop_capped(self):
        result = join_scaling_experiment(sizes=(300, 400), seed=99, nested_loop_max=300)
        nested_sizes = {r.n_per_side for r in result.rows if r.algorithm == "nested-loop"}
        assert nested_sizes == {300}

    def test_e7_competitors_need_several_times_more_comparisons(self):
        result = join_scaling_experiment(sizes=(2000,), seed=99, nested_loop_max=2000)
        comparisons = {r.algorithm: r.comparisons for r in result.rows}
        touch = comparisons["TOUCH"]
        assert comparisons["PBSM"] > touch * 2
        assert comparisons["plane-sweep"] > touch * 2
        assert comparisons["S3"] > touch
        assert comparisons["nested-loop"] > touch * 20


class TestAblations:
    def test_a1_full_recall_both_modes(self):
        result = a1_flat_verification(n_neurons=12, num_queries=4, seed=99)
        for row in result.rows:
            assert row["recall"] == pytest.approx(1.0)
        # Verification only adds seed work; it fetches no extra data pages.
        crawl_only, verified = result.rows
        assert verified["seed_nodes"] > crawl_only["seed_nodes"]
        assert verified["data_pages"] == pytest.approx(crawl_only["data_pages"])

    def test_a2_monotone_pages(self):
        result = a2_flat_page_capacity(
            capacities=(16, 64), n_neurons=12, num_queries=4, seed=99
        )
        assert result.rows[0]["pages"] >= result.rows[-1]["pages"]
        assert result.rows[0]["scanned"] <= result.rows[-1]["scanned"]

    def test_a3_smoothing_does_not_hurt(self):
        smoothed, single = a3_scout_content_awareness(n_neurons=12, seed=99).rows
        assert smoothed["stall_ms"] <= single["stall_ms"] * 1.1

    def test_a4_pruning_wastes_fewer_prefetches(self):
        pruned, unpruned = a4_scout_pruning(n_neurons=12, seed=99).rows
        assert pruned["accuracy"] >= unpruned["accuracy"] * 0.95
        assert pruned["issued"] <= unpruned["issued"]

    def test_a5_results_invariant(self):
        result = a5_touch_filtering(n_per_side=300, seed=99)
        on, off = result.rows
        assert on["pairs"] == off["pairs"]
        assert on["filtered"] > 0
        assert on["comparisons"] <= off["comparisons"]

    def test_a6_results_invariant(self):
        result = a6_touch_fanout(fanouts=(4, 16), n_per_side=300, seed=99)
        assert len(result.rows) == 2

    def test_a7_incremental_inserts_stay_exact_and_compact(self):
        incremental, rebuild = a7_flat_incremental_maintenance(
            n_neurons=12, added_neurons=2, num_queries=4, seed=99
        ).rows
        assert incremental["recall"] == pytest.approx(1.0)
        assert rebuild["recall"] == pytest.approx(1.0)
        # Local maintenance stays within 2x of a rebuild's pages per query.
        assert incremental["pages"] <= rebuild["pages"] * 2.0

    def test_a8_work_grows_with_the_tolerance(self):
        rows = a8_touch_eps_sensitivity(
            eps_values=(0.5, 3.0, 12.0), n_per_side=300, seed=99
        ).rows
        pairs = [row["pairs"] for row in rows]
        comparisons = [row["comparisons"] for row in rows]
        assert pairs == sorted(pairs)
        assert comparisons == sorted(comparisons)
