"""End-to-end pipeline integration: generator -> dataset -> sweep ->
analysis -> persistence -> prediction, on a micro dataset.

This is the library's smoke path: everything a bench does, in miniature.
"""

import numpy as np
import pytest

from repro.analysis import (
    bottleneck_census,
    box_stats,
    boxplot_panel,
    format_table,
    format_wins,
)
from repro.core.dataset import Dataset, sweep
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.io import read_rows, write_rows
from repro.ml import FormatSelector


@pytest.fixture(scope="module")
def micro_table():
    specs = [
        MatrixSpec.from_footprint(6, 10, seed=1),
        MatrixSpec.from_footprint(12, 50, skew_coeff=100, seed=2),
        MatrixSpec.from_footprint(40, 20, cross_row_sim=0.9,
                                  avg_num_neigh=1.6, seed=3),
        MatrixSpec.from_footprint(96, 5, cross_row_sim=0.05,
                                  avg_num_neigh=0.05, seed=4),
        MatrixSpec.from_footprint(300, 50, seed=5),
        MatrixSpec.from_footprint(600, 100, skew_coeff=1000, seed=6),
    ]
    ds = Dataset(specs, max_nnz=40_000, name="micro")
    devices = [TESTBEDS[d] for d in
               ("AMD-EPYC-24", "Tesla-A100", "Alveo-U280")]
    return sweep(ds, devices, best_only=True), ds


class TestPipeline:
    def test_row_schema_complete(self, micro_table):
        table, _ = micro_table
        required = {
            "matrix", "device", "format", "gflops", "watts",
            "gflops_per_watt", "bottleneck", "mem_footprint_mb",
            "avg_nnz_per_row", "skew_coeff", "cross_row_similarity",
            "avg_num_neighbours", "req_footprint_mb",
        }
        for r in table.rows:
            assert required <= set(r)

    def test_every_device_ran_something(self, micro_table):
        table, _ = micro_table
        devices = {r["device"] for r in table.rows}
        assert {"AMD-EPYC-24", "Tesla-A100"} <= devices

    def test_formats_belong_to_device(self, micro_table):
        table, _ = micro_table
        for r in table.rows:
            assert r["format"] in TESTBEDS[r["device"]].formats

    def test_analysis_layers_compose(self, micro_table):
        table, _ = micro_table
        cpu = table.where(device="AMD-EPYC-24")
        cpu_rows = cpu.rows
        wins = format_wins(cpu)
        assert abs(sum(wins.values()) - 100.0) < 1e-9
        census = bottleneck_census(table)
        assert all(
            abs(sum(f.values()) - 100.0) < 1e-9 for f in census.values()
        )
        panel = boxplot_panel(
            {"cpu": box_stats([r["gflops"] for r in cpu_rows])}
        )
        assert "med=" in panel
        text = format_table(
            ["device", "gflops"],
            [[r["device"], r["gflops"]] for r in table.rows[:3]],
        )
        assert "device" in text

    def test_csv_roundtrip_preserves_measurements(self, micro_table,
                                                  tmp_path):
        table, _ = micro_table
        path = tmp_path / "sweep.csv"
        write_rows(path, table.rows)
        back = read_rows(path)
        assert len(back) == len(table.rows)
        for a, b in zip(table.rows, back):
            assert a["device"] == b["device"]
            assert a["gflops"] == pytest.approx(b["gflops"], rel=1e-9)

    def test_selector_trains_on_sweep_schema(self, micro_table):
        _, ds = micro_table
        dev = TESTBEDS["AMD-EPYC-24"]
        full = sweep(ds, [dev], best_only=False)
        sel = FormatSelector(list(dev.formats)).fit(full.rows)
        choice = sel.select(full.rows[0])
        assert choice in dev.formats

    def test_determinism_across_sweeps(self, micro_table):
        table, ds = micro_table
        again = sweep(
            ds, [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-A100"],
                 TESTBEDS["Alveo-U280"]],
            best_only=True,
        )
        a = sorted(
            (r["matrix"], r["device"], round(r["gflops"], 9))
            for r in table.rows
        )
        b = sorted(
            (r["matrix"], r["device"], round(r["gflops"], 9))
            for r in again.rows
        )
        assert a == b
