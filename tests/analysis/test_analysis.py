"""Analysis layer: boxplot stats, binning, wins, rendering."""

import numpy as np
import pytest

from repro.analysis import (
    BoxStats,
    ascii_boxplot,
    bin_by,
    box_stats,
    boxplot_panel,
    format_table,
    format_wins,
    geometric_mean,
    win_table,
)
from repro.core.table import SweepTable


class TestBoxStats:
    def test_five_numbers(self):
        s = box_stats([1, 2, 3, 4, 5])
        assert s.minimum == 1 and s.maximum == 5
        assert s.median == 3
        assert s.mean == 3
        assert s.n == 5
        assert s.iqr == s.q3 - s.q1

    def test_single_value(self):
        s = box_stats([7.0])
        assert s.minimum == s.median == s.maximum == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_quartile_ordering(self):
        rng = np.random.default_rng(0)
        s = box_stats(rng.random(1000))
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum

    def test_as_row(self):
        s = box_stats([1.0, 2.0])
        assert len(s.as_row()) == 7


class TestBinning:
    def test_labels_and_contents(self):
        rows = [
            {"mb": 2.0, "gflops": 10.0},
            {"mb": 100.0, "gflops": 20.0},
            {"mb": 600.0, "gflops": 5.0},
        ]
        bins = bin_by(rows, "mb", [32, 512], value_key="gflops")
        assert list(bins) == ["<32", "32-512", ">=512"]
        assert bins["<32"] == [10.0]
        assert bins["32-512"] == [20.0]
        assert bins[">=512"] == [5.0]

    def test_boundary_goes_right(self):
        rows = [{"v": 32.0, "gflops": 1.0}]
        bins = bin_by(rows, "v", [32])
        assert bins[">=32"] == [1.0]


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestWins:
    def test_percentages(self):
        rows = [{"format": "A"}] * 3 + [{"format": "B"}]
        wins = format_wins(SweepTable.from_rows(rows))
        assert wins == {"A": 75.0, "B": 25.0}

    def test_empty(self):
        assert format_wins(SweepTable.from_rows([])) == {}

    def test_win_table_by_device(self):
        rows = [
            {"device": "d1", "format": "A"},
            {"device": "d1", "format": "A"},
            {"device": "d2", "format": "B"},
        ]
        table = win_table(SweepTable.from_rows(rows), ["d1", "d2"])
        assert table["d1"] == {"A": 100.0}
        assert table["d2"] == {"B": 100.0}


class TestRendering:
    def test_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["bbbb", 22.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(line) == len(lines[2]) or i < 2
                   for i, line in enumerate(lines[2:], 2))

    def test_boxplot_markers(self):
        s = box_stats([0.0, 25.0, 50.0, 75.0, 100.0])
        plot = ascii_boxplot(s, 0.0, 100.0, width=41)
        assert plot[0] == "|"
        assert plot[-1] == "|"
        assert plot[20] == "M"
        assert "=" in plot

    def test_panel_renders_all_rows(self):
        panel = boxplot_panel(
            {"a": box_stats([1, 2, 3]), "b": box_stats([2, 4, 8])}
        )
        assert "a" in panel and "b" in panel
        assert "med=" in panel

    def test_panel_log_scale(self):
        panel = boxplot_panel(
            {"a": box_stats([1, 10, 100])}, log=True
        )
        assert "[log scale]" in panel

    def test_panel_empty(self):
        assert boxplot_panel({}) == "(no data)"

    def test_degenerate_range(self):
        s = box_stats([5.0, 5.0])
        plot = ascii_boxplot(s, 5.0, 5.0)
        assert "M" in plot
