"""The benchmark harness: schema, regression gate and committed artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import bench, kernels

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_report(walls: dict[tuple[str, str], float], calibration: float = 50.0) -> dict:
    return {
        "schema_version": bench.SCHEMA_VERSION,
        "suite": "smoke",
        "calibration_ms": calibration,
        "workloads": [
            {"name": name, "mode": mode, "wall_ms": wall}
            for (name, mode), wall in walls.items()
        ],
    }


class TestCompareToBaseline:
    def test_no_regression_when_identical(self):
        report = make_report({("flat.range_scan", "numpy"): 10.0})
        assert bench.compare_to_baseline(report, report) == []

    def test_flags_large_slowdown(self):
        baseline = make_report({("flat.range_scan", "numpy"): 10.0})
        current = make_report({("flat.range_scan", "numpy"): 14.0})
        regressions = bench.compare_to_baseline(current, baseline, max_regression=0.30)
        assert len(regressions) == 1
        assert regressions[0].name == "flat.range_scan"
        assert regressions[0].ratio == pytest.approx(1.4)
        assert "flat.range_scan" in regressions[0].describe()

    def test_allows_slowdown_within_threshold(self):
        baseline = make_report({("flat.range_scan", "numpy"): 10.0})
        current = make_report({("flat.range_scan", "numpy"): 12.5})
        assert bench.compare_to_baseline(current, baseline, max_regression=0.30) == []

    def test_tiny_absolute_deltas_are_ignored(self):
        baseline = make_report({("kernel.box_intersects", "numpy"): 1.0})
        current = make_report({("kernel.box_intersects", "numpy"): 2.0})
        # 2x relative, but under the MIN_REGRESSION_MS jitter floor.
        assert bench.compare_to_baseline(current, baseline, max_regression=0.30) == []

    def test_calibration_rescales_machine_speed(self):
        # Same code on a machine measured 2x slower: no regression.
        baseline = make_report({("join.filter", "numpy"): 10.0}, calibration=50.0)
        current = make_report({("join.filter", "numpy"): 20.0}, calibration=100.0)
        assert bench.compare_to_baseline(current, baseline, max_regression=0.30) == []
        # A real 2x regression on an equally-fast machine is still caught.
        current_same_machine = make_report(
            {("join.filter", "numpy"): 20.0}, calibration=50.0
        )
        assert len(bench.compare_to_baseline(current_same_machine, baseline)) == 1

    def test_new_workloads_are_ignored(self):
        baseline = make_report({("flat.range_scan", "numpy"): 10.0})
        current = make_report(
            {("flat.range_scan", "numpy"): 10.0, ("brand.new", "numpy"): 500.0}
        )
        assert bench.compare_to_baseline(current, baseline) == []

    def test_missing_workload_is_a_regression(self):
        # A deleted or renamed workload must not drop out of the gate.
        baseline = make_report(
            {("flat.range_scan", "numpy"): 10.0, ("flat.knn", "numpy"): 4.0}
        )
        current = make_report({("flat.range_scan", "numpy"): 10.0})
        regressions = bench.compare_to_baseline(current, baseline)
        assert [(r.name, r.mode) for r in regressions] == [("flat.knn", "numpy")]
        assert regressions[0].wall_ms is None
        assert "missing from the report" in regressions[0].describe()

    def test_modes_the_report_did_not_run_are_not_missing(self):
        baseline = make_report(
            {("flat.knn", "numpy"): 4.0, ("flat.knn", "python"): 10.0}
        )
        current = make_report({("flat.knn", "numpy"): 4.0})
        assert bench.compare_to_baseline(current, baseline) == []

    def test_schema_or_suite_mismatch_skips_comparison(self):
        baseline = make_report({("flat.range_scan", "numpy"): 1.0})
        current = make_report({("flat.range_scan", "numpy"): 1000.0})
        stale = dict(baseline, schema_version=bench.SCHEMA_VERSION + 1)
        assert bench.compare_to_baseline(current, stale) == []
        other_suite = dict(baseline, suite="full")
        assert bench.compare_to_baseline(current, other_suite) == []


class TestHarness:
    def test_time_workload_produces_sane_result(self):
        cfg = {"repeats": 2, "micro_boxes": 200, "micro_windows": 2}
        workload = bench._Workload(
            name="kernel.box_intersects",
            unit="box tests",
            setup=bench._micro_boxes,
            run=bench._run_box_intersects,
        )
        backend = kernels.active_backend()
        result = bench._time_workload_interleaved(workload, cfg, [backend])[backend]
        assert result.name == "kernel.box_intersects"
        assert result.mode == kernels.active_backend()
        assert result.units == 400
        assert result.wall_ms >= 0.0
        assert result.units_per_sec > 0.0
        payload = result.as_json()
        assert payload["unit"] == "box tests"
        # Cheap workloads autorange past the configured floor of 2.
        assert payload["repeats"] >= 2

    def test_results_to_json_schema(self):
        cfg = {"suite": "smoke", "repeats": 1}
        result = bench.WorkloadResult(
            name="w", mode="numpy", wall_ms=1.0, units=10, unit="u", repeats=1
        )
        report = bench.results_to_json(cfg, [result], calibration_ms=42.0)
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["suite"] == "smoke"
        assert report["calibration_ms"] == 42.0
        assert report["workloads"][0]["name"] == "w"
        json.dumps(report)  # must be serialisable

    def test_headline_speedups_extraction(self):
        report = {
            "workloads": [
                {"name": "flat.range_scan", "mode": "numpy", "speedup_vs_fallback": 3.1},
                {"name": "join.filter", "mode": "numpy", "speedup_vs_fallback": 2.5},
                {"name": "flat.range_scan", "mode": "python", "speedup_vs_fallback": None},
            ]
        }
        speedups = bench.headline_speedups(report)
        assert speedups == {"flat.range_scan": 3.1, "join.filter": 2.5}

    def test_parser_flags(self):
        args = bench.build_parser().parse_args(
            ["--smoke", "--json", "out.json", "--baseline", "b.json", "--max-regression", "0.5"]
        )
        assert args.smoke and args.json == "out.json"
        assert args.baseline == "b.json"
        assert args.max_regression == 0.5

    def test_calibration_probe_is_positive(self):
        assert bench.measure_calibration(repeats=1) > 0.0


class TestCommittedArtifacts:
    """The committed ``benchmarks/baseline.json`` backs the headline claims."""

    @pytest.fixture
    def report(self) -> dict:
        # Every gate below reads the baseline: a missing file must fail
        # the class, never skip it.
        baseline = REPO_ROOT / "benchmarks" / "baseline.json"
        assert baseline.is_file(), f"committed bench baseline missing: {baseline}"
        return json.loads(baseline.read_text(encoding="utf-8"))

    def test_artifacts_are_schema_valid(self, report):
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["suite"] in ("smoke", "full")
        assert report["calibration_ms"] > 0
        names = {w["name"] for w in report["workloads"]}
        for headline in bench.HEADLINE_WORKLOADS:
            assert headline in names
        for entry in report["workloads"]:
            assert entry["wall_ms"] >= 0.0
            assert entry["units"] > 0

    def test_baseline_gates_exactly_the_suite(self, report):
        """Every suite workload is gated under every backend, and the
        baseline holds nothing the suite no longer runs."""
        suite = {w.name for w in bench._workloads()}
        assert len(suite) == 10
        committed = {(w["name"], w["mode"]) for w in report["workloads"]}
        assert committed == {
            (name, mode) for name in suite for mode in report["available_backends"]
        }

    def test_vectorized_hot_paths_beat_fallback_2x(self, report):
        speedups = bench.headline_speedups(report)
        for name, speedup in speedups.items():
            assert speedup is not None, f"{name} missing a fallback comparison"
            assert speedup >= 2.0, f"{name} only {speedup:.2f}x vs scalar fallback"

    def test_vectorized_never_loses_to_scalar(self, report):
        """Batch kernel and index work is array-shaped, so the vectorized
        backend must win (or tie) on every committed workload."""
        ratios = {
            w["name"]: w["speedup_vs_fallback"]
            for w in report["workloads"]
            if w.get("speedup_vs_fallback") is not None
        }
        assert "flat.range_scan" in ratios
        for name, ratio in ratios.items():
            assert ratio >= 1.0, f"{name} vectorized is {ratio:.3f}x of scalar"

    def test_durability_regression_trips_the_gate(self):
        baseline = make_report({("recover.replay_ms", "numpy"): 50.0})
        current = make_report({("recover.replay_ms", "numpy"): 80.0})
        regressions = bench.compare_to_baseline(current, baseline, max_regression=0.30)
        assert [r.name for r in regressions] == ["recover.replay_ms"]

    def test_mutate_regression_trips_the_gate(self):
        baseline = make_report({("mutate.ingest_throughput", "numpy"): 50.0})
        current = make_report({("mutate.ingest_throughput", "numpy"): 80.0})
        regressions = bench.compare_to_baseline(current, baseline, max_regression=0.30)
        assert [r.name for r in regressions] == ["mutate.ingest_throughput"]
