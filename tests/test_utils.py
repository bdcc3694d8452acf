"""Unit tests for rng and tables utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng
from repro.utils.tables import Table, format_float, format_int


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(5).uniform(size=10)
        b = make_rng(5).uniform(size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = make_rng(7)
        assert make_rng(gen) is gen

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_label_sensitivity(self):
        assert derive_seed(1, "circuit") != derive_seed(1, "workload")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_seed_in_numpy_range(self):
        seed = derive_seed(2**62, "x" * 100)
        assert 0 <= seed < 2**63
        make_rng(seed)  # must be accepted


class TestTables:
    def test_formatters(self):
        assert format_int(12345) == "12,345"
        assert format_float(3.14159, 2) == "3.14"

    def test_render_alignment(self):
        table = Table(["name", "value"], title="t")
        table.add_row(["a", 1])
        table.add_row(["long-name", 123456])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "t"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
        assert "123,456" in text

    def test_row_width_mismatch_raises(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_bool_and_float_formatting(self):
        table = Table(["x"])
        table.add_row([True])
        table.add_row([0.0000001])
        table.add_row([2.5])
        text = table.render()
        assert "yes" in text
        assert "e-07" in text
        assert "2.500" in text
