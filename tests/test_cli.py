"""Tests for the terminal demo runner."""

from __future__ import annotations

import pytest

from repro import bench
from repro.cli import build_parser, main


class TestParser:
    def test_demo_stations(self):
        parser = build_parser()
        for station in ("flat", "scout", "touch", "all"):
            args = parser.parse_args(["demo", station])
            assert args.station == station

    def test_unknown_station_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "bogus"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_circuit_defaults(self):
        args = build_parser().parse_args(["circuit"])
        assert args.neurons == 20
        assert args.out is None

    def test_report_options(self):
        args = build_parser().parse_args(["report", "--full", "--out", "r.txt"])
        assert args.full and args.out == "r.txt"

    def test_query_kinds(self):
        parser = build_parser()
        for kind in ("range", "knn", "join", "walk"):
            args = parser.parse_args(["query", kind])
            assert args.kind == kind
            assert args.strategy is None and not args.explain

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.smoke
        assert args.json == "BENCH_PR2.json"
        assert args.baseline is None
        assert args.max_regression == 0.30
        # One declaration: the subcommand parses exactly the bench
        # module's own flags, with the same defaults.
        own = vars(bench.build_parser().parse_args([]))
        assert {k: v for k, v in vars(args).items() if k != "command"} == own

    def test_bench_flags(self):
        args = build_parser().parse_args(
            [
                "bench", "--smoke", "--json", "out.json",
                "--baseline", "benchmarks/baseline.json",
                "--max-regression", "0.4", "--modes", "python",
            ]
        )
        assert args.smoke and args.json == "out.json"
        assert args.baseline == "benchmarks/baseline.json"
        assert args.max_regression == 0.4
        assert args.modes == "python"

    def test_bench_forwards_its_arguments(self, monkeypatch):
        seen = []
        monkeypatch.setattr(bench, "run_from_args", lambda args: seen.append(args) or 0)
        assert main(["bench", "--smoke", "--modes", "python"]) == 0
        assert seen[0].smoke and seen[0].modes == "python"

    def test_bench_unknown_mode_is_a_clean_error(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        assert main(["bench", "--modes", "numpy,bogus", "--json", str(report)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bogus" in err[0]
        assert not report.exists()  # rejected before any workload ran

    def test_query_options(self):
        args = build_parser().parse_args(
            ["query", "range", "--strategy", "flat", "--explain",
             "--extent", "90", "--center", "1,2,3"]
        )
        assert args.strategy == "flat" and args.explain
        assert args.extent == 90.0 and args.center == "1,2,3"

    def test_unknown_query_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "scan"])


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Package metadata (or the source-tree fallback) is a semver triple.
        assert out.strip().split(" ")[1].count(".") == 2

    def test_version_matches_package_fallback(self):
        from repro.cli import _package_version

        assert _package_version().count(".") == 2


class TestRecoverCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["recover", "some/dir"])
        assert args.dir == "some/dir"
        assert not args.sharded
        assert args.shards is None and args.at_epoch is None
        assert not args.no_verify

    def _durable_dir(self, tmp_path):
        import repro
        from repro.engine.mutations import Insert
        from repro.geometry.aabb import AABB
        from repro.objects import BoxObject
        from tests.conftest import grid_boxes

        root = tmp_path / "model"
        durable = repro.create(grid_boxes(3), root)
        durable.apply_many(
            [Insert(BoxObject(uid=1000, box=AABB(0, 0, 0, 1, 1, 1)))]
        )
        # No close: the CLI recovers from the "crashed" directory.
        return root

    def test_recover_replays_and_verifies(self, capsys, tmp_path):
        root = self._durable_dir(tmp_path)
        code = main(["recover", str(root), "--extent", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered to epoch 1" in out
        assert "1 WAL batches" in out
        assert "exact" in out

    def test_recover_sharded_mode(self, capsys, tmp_path):
        root = self._durable_dir(tmp_path)
        code = main(["recover", str(root), "--sharded", "--shards", "2", "--extent", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ShardedEngine over" in out
        assert "exact" in out

    def test_recover_time_travel(self, capsys, tmp_path):
        root = self._durable_dir(tmp_path)
        code = main(["recover", str(root), "--at-epoch", "0", "--no-verify"])
        assert code == 0
        assert "recovered to epoch 0" in capsys.readouterr().out

    def test_recover_missing_dir_fails_cleanly(self, capsys, tmp_path):
        code = main(["recover", str(tmp_path / "nothing-here")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestCircuitCommand:
    def test_prints_morphometry(self, capsys):
        code = main(["circuit", "--neurons", "3", "--seed", "5", "--no-figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "circuit morphometry" in out
        assert "neurons" in out

    def test_figures_rendered(self, capsys):
        code = main(["circuit", "--neurons", "3", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "projection" in out
        assert "+--" in out  # canvas frame

    def test_export(self, capsys, tmp_path):
        code = main(
            ["circuit", "--neurons", "3", "--seed", "5", "--no-figures",
             "--out", str(tmp_path / "model")]
        )
        assert code == 0
        assert (tmp_path / "model" / "circuit.json").exists()
        assert (tmp_path / "model" / "neuron_0.swc").exists()
        out = capsys.readouterr().out
        assert "exported" in out


class TestDemoCommand:
    def test_scout_station_quick(self, capsys):
        code = main(["demo", "scout", "--quick", "--no-figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E4 candidate pruning" in out
        assert "E5 walkthrough" in out
        assert "SCOUT" in out

    def test_touch_station_quick(self, capsys):
        code = main(["demo", "touch", "--quick", "--no-figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E6 spatial join" in out
        assert "E7 join scaling" in out
        assert "TOUCH" in out
        assert "candidate synapses" not in out  # figure suppressed

    def test_touch_station_renders_figure(self, capsys):
        code = main(["demo", "touch", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "segments participating in candidate synapses" in out
        assert "+--" in out  # canvas frame


class TestQueryCommand:
    def test_range_query_runs_engine(self, capsys):
        code = main(["query", "range", "--neurons", "6", "--seed", "3", "--extent", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SpatialEngine over" in out
        assert "plan: range via" in out
        assert "engine result" in out
        assert "engine telemetry" in out

    def test_explain_executes_nothing(self, capsys):
        code = main(["query", "join", "--neurons", "6", "--seed", "3", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: join via" in out
        assert "engine result" not in out

    def test_forced_strategy_is_reported(self, capsys):
        code = main(
            ["query", "knn", "--neurons", "6", "--seed", "3", "--k", "4",
             "--strategy", "rtree"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "knn via rtree" in out

    def test_walk_prints_session_summary(self, capsys):
        code = main(["query", "walk", "--neurons", "6", "--seed", "3", "--steps", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: walk via" in out
        assert "walkthrough via" in out

    def test_unknown_strategy_fails_cleanly(self, capsys):
        code = main(["query", "range", "--neurons", "6", "--strategy", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_root_query_is_read_only_on_a_damaged_root(self, capsys, tmp_path):
        """A one-shot ``--root`` read never takes the WAL for writing, so
        it runs no tail repair: on a root whose recovery stops below the
        durable tip it still answers, and the WAL is left byte-identical."""
        from tests.test_durability import diverged_tip_root, wal_bytes

        root = tmp_path / "svc"
        diverged_tip_root(root, sharded=True, num_shards=2)
        before = wal_bytes(root)
        code = main(["query", "range", "--root", str(root), "--extent", "40"])
        assert code == 0
        assert "at epoch 4" in capsys.readouterr().out
        assert wal_bytes(root) == before

    def test_saved_circuit_round_trip(self, capsys, tmp_path):
        assert main(
            ["circuit", "--neurons", "4", "--seed", "9", "--no-figures",
             "--out", str(tmp_path / "model")]
        ) == 0
        capsys.readouterr()
        code = main(
            ["query", "range", "--circuit", str(tmp_path / "model"), "--extent", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SpatialEngine over" in out
        assert "engine result" in out
