"""Shared benchmark fixtures.

Benchmarks regenerate the paper's figures (``repro report`` lists them
all).  Each bench saves the rendered experiment table under
``benchmarks/results/`` and asserts the qualitative shape the paper
reports.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered experiment table to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return _save
