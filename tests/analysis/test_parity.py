"""Columnar analysis reductions vs the dict-row reference, field for
field, over a full testbed grid.

`format_wins`/`win_table`/`feature_slice`/`bottleneck_census`/
`optimal_ranges` reduce a SweepTable's columns; their historical
dict-row implementations live in ``tests/oracles/analysis.py``.  Fed
the table's rows, the oracle must produce exactly the same values (same
floats, same keys, in the same order at every nesting level: the
paper-claim benches print in iteration order).
"""

import os

import pytest

from repro.analysis import (
    bottleneck_census, feature_slice, format_wins, optimal_ranges,
    win_table,
)
from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS

from tests.oracles import analysis as oracle

TINY = build_dataset_specs("tiny")
SPECS = TINY if os.environ.get("REPRO_EXHAUSTIVE") == "1" else TINY[::7]
DEVICES = [TESTBEDS[name] for name in
           ("AMD-EPYC-24", "Tesla-A100", "Alveo-U280")]


def _ordered(value):
    """``value`` with every dict, at any depth, replaced by its item
    list, so equality also compares key order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    return value


def assert_same(columnar, reference):
    assert _ordered(columnar) == _ordered(reference)


@pytest.fixture(scope="module")
def best_table():
    """Best-format rows across every device class (Fig 2-6 shape)."""
    return sweep(
        Dataset(SPECS, max_nnz=6_000, name="parity"), DEVICES,
        best_only=True,
    )


@pytest.fixture(scope="module")
def formats_table():
    """Per-format rows on one device (Fig 7 / selector shape)."""
    return sweep(
        Dataset(SPECS, max_nnz=6_000, name="parity"), DEVICES[:1],
        best_only=False,
    )


class TestWinsParity:
    def test_format_wins(self, best_table):
        cpu = best_table.where(device="AMD-EPYC-24")
        assert_same(format_wins(cpu), oracle.format_wins(cpu.rows))

    def test_format_wins_per_format_rows(self, formats_table):
        assert_same(format_wins(formats_table),
                    oracle.format_wins(formats_table.rows))

    def test_format_wins_empty(self, best_table):
        empty = best_table.where(device="no-such-device")
        assert format_wins(empty) == {} == oracle.format_wins(empty.rows)

    def test_win_table(self, best_table):
        devices = [d.name for d in DEVICES] + ["no-such-device"]
        assert_same(win_table(best_table, devices),
                    oracle.win_table(best_table.rows, devices))


class TestCensusParity:
    @pytest.mark.parametrize("by", ["device", "format", "matrix"])
    def test_bottleneck_census(self, best_table, by):
        assert_same(bottleneck_census(best_table, by=by),
                    oracle.bottleneck_census(best_table.rows, by=by))

    def test_census_values_sum_to_100(self, best_table):
        census = bottleneck_census(best_table)
        assert census
        for fractions in census.values():
            assert abs(sum(fractions.values()) - 100.0) < 1e-9


class TestFeatureSliceParity:
    FIXED = {
        "req_footprint_mb": lambda v: v < 600,
        "req_avg_nnz": lambda v: v >= 5,
    }

    @pytest.mark.parametrize("sweep_key", ["req_neigh", "req_skew"])
    def test_feature_slice(self, best_table, sweep_key):
        columnar = feature_slice(best_table, sweep_key, self.FIXED)
        reference = oracle.feature_slice(best_table.rows, sweep_key,
                                         self.FIXED)
        assert_same(columnar, reference)
        assert columnar  # the slice actually selected something

    def test_all_rows_filtered_out(self, best_table):
        fixed = {"req_footprint_mb": lambda v: False}
        assert feature_slice(best_table, "req_neigh", fixed) == {} == \
            oracle.feature_slice(best_table.rows, "req_neigh", fixed)

    def test_categorical_fixed_and_sweep_keys(self, best_table):
        """Regression: predicates on categorical columns (decoded str
        values carry no .item()) and categorical sweep keys must work
        and match the dict path."""
        fixed = {"device": lambda d: d == "AMD-EPYC-24"}
        assert_same(feature_slice(best_table, "req_neigh", fixed),
                    oracle.feature_slice(best_table.rows, "req_neigh", fixed))
        assert_same(feature_slice(best_table, "format", {}),
                    oracle.feature_slice(best_table.rows, "format", {}))


class TestOptimalRangesParity:
    @pytest.mark.parametrize("feature_key", [
        "req_footprint_mb", "avg_nnz_per_row", "skew_coeff",
    ])
    def test_optimal_ranges(self, best_table, feature_key):
        columnar = optimal_ranges(best_table, feature_key)
        reference = oracle.optimal_ranges(best_table.rows, feature_key)
        assert_same(columnar, reference)
        assert columnar is not None

    def test_top_fraction_validation(self, best_table):
        with pytest.raises(ValueError, match="top_fraction"):
            optimal_ranges(best_table, "skew_coeff", top_fraction=0.0)

    def test_empty_returns_none(self, best_table):
        empty = best_table.where(device="no-such-device")
        assert optimal_ranges(empty, "skew_coeff") is None
