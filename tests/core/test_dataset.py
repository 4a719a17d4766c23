"""Dataset container and sweep integration."""

import pytest

from repro.core.dataset import Dataset, SweepTable, sweep
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS


@pytest.fixture(scope="module")
def small_dataset():
    specs = [
        MatrixSpec.from_footprint(4.0, 10, seed=1),
        MatrixSpec.from_footprint(8.0, 20, skew_coeff=100, seed=2),
        MatrixSpec.from_footprint(6.0, 5, cross_row_sim=0.9, seed=3),
    ]
    return Dataset(specs, max_nnz=40_000, name="unit")


class TestDataset:
    def test_len(self, small_dataset):
        assert len(small_dataset) == 3

    def test_instances_iterates_all(self, small_dataset):
        assert len(list(small_dataset.instances())) == 3

    def test_names_carry_index(self, small_dataset):
        assert small_dataset.instance(2).name == "unit[2]"


class TestSweep:
    def test_best_only_rows(self, small_dataset):
        table = sweep(
            small_dataset,
            [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-A100"]],
        )
        assert len(table) == 6  # 3 matrices x 2 devices
        for r in table.rows:
            assert r["gflops"] > 0
            assert r["format"] in (
                TESTBEDS[r["device"]].formats
            )

    def test_all_formats_rows(self, small_dataset):
        dev = TESTBEDS["Tesla-A100"]
        table = sweep(small_dataset, [dev], best_only=False)
        # one row per (matrix, surviving format)
        assert len(table) >= 3 * 2
        assert all(r["device"] == dev.name for r in table.rows)

    def test_progress_callback(self, small_dataset):
        """One tick per scoring pass: 3 specs are one pass, 40 specs
        in-process are three."""
        wide = Dataset(
            [MatrixSpec(n_rows=100, n_cols=100, avg_nnz_per_row=3.0,
                        seed=seed) for seed in range(40)],
            max_nnz=40_000, name="passes",
        )
        for dataset, ticks in [(small_dataset, [(3, 3)]),
                               (wide, [(13, 40), (26, 40), (40, 40)])]:
            seen = []
            sweep(
                dataset, [TESTBEDS["INTEL-XEON"]],
                progress=lambda i, n: seen.append((i, n)),
            )
            assert seen == ticks

    def test_rows_carry_features(self, small_dataset):
        table = sweep(small_dataset, [TESTBEDS["INTEL-XEON"]])
        r = table.rows[0]
        for key in ("mem_footprint_mb", "avg_nnz_per_row", "skew_coeff",
                    "cross_row_similarity", "avg_num_neighbours",
                    "req_footprint_mb"):
            assert key in r


class TestSweepTableShim:
    """The table's dict-row compatibility surface, as sweeps use it."""

    def test_where_and_column(self):
        t = SweepTable.from_rows(
            [{"device": "a", "gflops": 1.0},
             {"device": "b", "gflops": 2.0},
             {"device": "a", "gflops": 3.0}]
        )
        a = t.where(device="a")
        assert len(a) == 2
        assert list(a.column("gflops")) == [1.0, 3.0]

    def test_filter(self):
        t = SweepTable.from_rows([{"v": i} for i in range(10)])
        assert len(t.filter(lambda r: r["v"] % 2 == 0)) == 5

    def test_sweep_returns_table(self, small_dataset):
        table = sweep(small_dataset, [TESTBEDS["INTEL-XEON"]])
        assert isinstance(table, SweepTable)
        assert table.rows == table.to_rows()
        assert table.unique("device") == ["INTEL-XEON"]
        assert table.unique("precision") == ["fp64"]
