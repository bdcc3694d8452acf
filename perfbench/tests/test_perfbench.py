"""The benchmark's own tests, at toy sizes.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.mutations import Insert
from repro.geometry.aabb import AABB
from repro.objects import BoxObject

from perfbench import report, workloads
from perfbench.tracer import LAYERS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = workloads.Sizes.toy()


def bench(workload: str, trace: int, seed: int = 1) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        text, result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        lines = text.splitlines()
        for m in declared:
            assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                       for line in lines), m["name"]
        if trace:
            # One budget table per traced op kind, each with a row per layer.
            tables = text.split(" traced ops, ")[1:]
            assert tables
            for table in tables:
                rows = {line.split()[0] for line in table.splitlines()[3:] if line.strip()}
                assert set(LAYERS) | {"unattributed"} <= rows


def test_end_to_end_metrics_are_never_zero():
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )
    run = workloads.analyze(1, 0.5, None, Path("unused"), TOY)
    assert all(value > 0 for value in report.end_to_end(run).values())


def test_injected_wrong_read_raises_error_rate(monkeypatch, tmp_path):
    real = workloads._wire_read

    def wrong_first_range(client, query, op):
        real(client, query, op)
        if op.kind == "range" and op.id == 0:
            op.payload = list(op.payload) + [-1]

    monkeypatch.setattr(workloads, "_wire_read", wrong_first_range)
    run = workloads.explore(1, 0.3, None, tmp_path, TOY)
    assert run.failures == ["range op 0: wrong answer"]
    assert report.kind_metrics(run)["error_rate"][0] == pytest.approx(1 / run.checked)


def test_injected_wrong_join_raises_error_rate(monkeypatch, tmp_path):
    real = workloads._join

    def drop_a_pair(engine, op):
        real(engine, op)
        op.payload = op.payload[1:]

    monkeypatch.setattr(workloads, "_join", drop_a_pair)
    run = workloads.analyze(1, 0.3, None, tmp_path, TOY)
    joins = sum(op.kind == "join" for op in run.ops)
    assert joins and len(run.failures) == joins


def test_missing_acked_write_fails_the_durability_check(monkeypatch, tmp_path):
    real = workloads._wire_write
    ghost = Insert(BoxObject(uid=10**9, box=AABB(0, 0, 0, 1, 1, 1)))
    claimed = []

    def claim_an_unsent_write(client, batch, op):
        real(client, batch, op)
        if not claimed:  # the first ack is recorded with one mutation never sent
            claimed.append(op.id)
            op.batch = list(batch) + [ghost]

    monkeypatch.setattr(workloads, "_wire_write", claim_an_unsent_write)
    run = workloads.ingest(1, 0.5, None, tmp_path, TOY)
    assert any(f.startswith("recovered engine holds") for f in run.failures)


def test_two_seeds_give_different_inputs_and_the_same_metric_names(tmp_path):
    runs = [workloads.explore(seed, 0.3, None, tmp_path, TOY) for seed in (1, 2)]
    assert runs[0].ops[0].query != runs[1].ops[0].query
    assert set(report.end_to_end(runs[0])) == set(report.end_to_end(runs[1]))
    again = workloads.explore(1, 0.3, None, tmp_path, TOY)
    assert again.ops[0].query == runs[0].ops[0].query


def test_run_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
