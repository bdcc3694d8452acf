"""The CI workflow files parse: on a YAML error GitHub runs none of a file's jobs."""

from __future__ import annotations

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = Path(__file__).resolve().parents[1] / ".github" / "workflows"


def test_every_workflow_is_valid_yaml():
    paths = sorted(WORKFLOWS.glob("*.yml"))
    assert paths
    for path in paths:
        document = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert document["jobs"], path.name
