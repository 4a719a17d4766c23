"""Feature slicing, bottleneck census and optimal-range extraction."""

import pytest

from repro.analysis import bottleneck_census, feature_slice, optimal_ranges
from repro.core.table import SweepTable


ROWS = SweepTable.from_rows([
    {"device": "cpu", "req_neigh": 0.05, "req_skew": 0, "gflops": 10.0,
     "bottleneck": "memory_bandwidth"},
    {"device": "cpu", "req_neigh": 1.9, "req_skew": 0, "gflops": 20.0,
     "bottleneck": "memory_bandwidth"},
    {"device": "cpu", "req_neigh": 1.9, "req_skew": 10000, "gflops": 5.0,
     "bottleneck": "low_ilp"},
    {"device": "gpu", "req_neigh": 0.05, "req_skew": 0, "gflops": 50.0,
     "bottleneck": "memory_latency"},
])


class TestFeatureSlice:
    def test_sweep_with_fixed_predicates(self):
        out = feature_slice(
            ROWS, "req_neigh",
            fixed={"req_skew": lambda v: v == 0,
                   "device": lambda v: v == "cpu"},
        )
        assert set(out) == {0.05, 1.9}
        assert out[0.05].median == 10.0
        assert out[1.9].median == 20.0

    def test_no_fixed_predicates(self):
        out = feature_slice(ROWS, "device", fixed={})
        assert out["cpu"].n == 3

    def test_empty_slice(self):
        out = feature_slice(
            ROWS, "req_neigh", fixed={"req_skew": lambda v: v == 42}
        )
        assert out == {}


class TestBottleneckCensus:
    def test_per_device_percentages(self):
        census = bottleneck_census(ROWS)
        assert census["cpu"]["memory_bandwidth"] == pytest.approx(200 / 3)
        assert census["cpu"]["low_ilp"] == pytest.approx(100 / 3)
        assert census["gpu"] == {"memory_latency": 100.0}

    def test_group_by_other_key(self):
        census = bottleneck_census(ROWS, by="bottleneck")
        assert set(census) == {
            "memory_bandwidth", "low_ilp", "memory_latency"
        }

    def test_dataset_is_memory_bound_overall(self):
        """Integration: the simulator reproduces the paper's conclusion
        that SpMV remains memory-bound for most of the dataset."""
        from repro.core.dataset import Dataset, sweep
        from repro.core.feature_space import build_dataset_specs
        from repro.devices import TESTBEDS

        ds = Dataset(build_dataset_specs("tiny")[:30], max_nnz=30_000,
                     name="census")
        table = sweep(ds, [TESTBEDS["AMD-EPYC-64"]])
        census = bottleneck_census(table)["AMD-EPYC-64"]
        assert census.get("memory_bandwidth", 0.0) > 50.0


class TestOptimalRanges:
    def test_top_quartile_range(self):
        out = optimal_ranges(ROWS, "req_neigh", top_fraction=0.25)
        assert out["n"] >= 1
        assert out["min"] <= out["median"] <= out["max"]

    def test_empty_rows(self):
        assert optimal_ranges(SweepTable.from_rows([]), "x") is None

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            optimal_ranges(ROWS, "req_neigh", top_fraction=0.0)
