"""ASCII rendering helpers and the experiment registry."""

from __future__ import annotations

import pytest

from repro.reporting import EXPERIMENTS, ascii_table, format_percent, render_distribution
from repro.reporting.tables import render_cdf_series


class TestFormatting:
    def test_percent(self):
        assert format_percent(0.147) == "14.7%"
        assert format_percent(None) == "NA"
        assert format_percent(1.0) == "100.0%"

    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = table.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "alpha" in table and "22" in table

    def test_ascii_table_title(self):
        table = ascii_table(["x"], [["1"]], title="T1")
        assert table.startswith("T1\n")

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [["only-one"]])

    def test_render_distribution_bars_scale(self):
        text = render_distribution({"big": 0.8, "small": 0.2})
        big_line, small_line = text.splitlines()
        assert big_line.count("#") > small_line.count("#")

    def test_render_distribution_empty(self):
        assert "empty" in render_distribution({}, title="d")

    def test_render_cdf_series(self):
        text = render_cdf_series([(1.0, 0.5), (2.0, 1.0)], title="cdf")
        assert "cdf" in text and "100.0%" in text


class TestRegistry:
    def test_all_experiments_have_benches(self):
        assert len(EXPERIMENTS) >= 18
        for exp in EXPERIMENTS:
            assert exp.bench.startswith("benchmarks/bench_")
            assert exp.modules

    def test_bench_files_exist(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for exp in EXPERIMENTS:
            assert (root / exp.bench).exists(), exp.bench

    def test_ids_unique(self):
        ids = [e.exp_id for e in EXPERIMENTS]
        assert len(ids) == len(set(ids))
