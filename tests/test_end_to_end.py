"""Golden end-to-end regression: sweep -> fit -> evaluate.

The whole chain — dataset materialisation, grid scoring, selector
training, batched evaluation — must produce *identical* results across
every execution engine: serial vs parallel sweeps, grid scoring vs the
scalar sweep oracle, analytic vs materialised format stats, batched vs
scalar selector evaluation.  Any drift in any layer shows up here as a
field-level diff of the SelectionReport (and of the raw measurement
rows, checked first for a sharper failure signal).
"""

import functools

import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.experiments import ExperimentSpec, run_experiment
from repro.ml import FormatSelector, KNeighborsRegressor

from tests.oracles.selector import scalar_evaluate
from tests.oracles.stats import materialised_format_stats
from tests.oracles.sweep import instance_sweep, scalar_sweep

N_SPECS = 8
MAX_NNZ = 20_000
DEVICE = "INTEL-XEON"


def _dataset():
    return Dataset(
        build_dataset_specs("tiny")[:N_SPECS], max_nnz=MAX_NNZ,
        name="golden",
    )


def _chain(jobs=1, scalar=False, materialised=False, eval_batch=True,
           cache_dir=None):
    """One full sweep -> fit -> evaluate pass; returns (rows, report)."""
    dataset = _dataset()
    if materialised:
        # Sweeps never materialise instances: score the instance oracle
        # with every format converted for real (serial runs only).
        assert jobs == 1
        instances = list(dataset.instances())
        for inst in instances:
            inst.format_stats = functools.partial(
                materialised_format_stats, inst
            )
        table = instance_sweep(dataset, [TESTBEDS[DEVICE]],
                               best_only=False, seed=0,
                               instances=instances)
    elif scalar:
        table = scalar_sweep(dataset, [TESTBEDS[DEVICE]], best_only=False,
                             seed=0)
    else:
        table = sweep(
            dataset, [TESTBEDS[DEVICE]], best_only=False, seed=0,
            jobs=jobs, cache_dir=cache_dir,
        )
    rows = table.rows
    names = sorted({r["matrix"] for r in rows})
    train = [r for r in rows if r["matrix"] in names[: N_SPECS // 2]]
    test = [r for r in rows if r["matrix"] in names[N_SPECS // 2:]]
    selector = FormatSelector(
        list(TESTBEDS[DEVICE].formats),
        model_factory=lambda: KNeighborsRegressor(
            n_neighbors=3, weights="distance"
        ),
    ).fit(train)
    if not eval_batch:
        return rows, scalar_evaluate(selector, test)
    return rows, selector.evaluate(test)


@pytest.fixture(scope="module")
def golden():
    """The reference chain: serial, batched, analytic stats."""
    return _chain()


class TestGoldenChain:
    def test_reference_report_is_complete_and_sane(self, golden):
        _, report = golden
        assert set(report) == {
            "top1_accuracy", "mean_retained", "worst_retained",
            "n_matrices",
        }
        assert report["n_matrices"] == N_SPECS // 2
        assert 0.0 <= report["top1_accuracy"] <= 1.0
        assert 0.0 < report["worst_retained"] \
            <= report["mean_retained"] <= 1.0

    def test_rerun_is_bit_identical(self, golden):
        rows, report = _chain()
        assert rows == golden[0]
        assert report == golden[1]

    def test_parallel_sweep_matches_serial(self, golden, tmp_path):
        rows, report = _chain(jobs=2, cache_dir=str(tmp_path / "cache"))
        assert rows == golden[0]
        assert report == golden[1]

    def test_scalar_grid_matches_batched(self, golden):
        rows, report = _chain(scalar=True)
        assert rows == golden[0]
        assert report == golden[1]

    def test_materialised_stats_match_analytic(self, golden):
        rows, report = _chain(materialised=True)
        assert rows == golden[0]
        assert report == golden[1]

    def test_scalar_evaluate_matches_batched(self, golden):
        rows, report = _chain(eval_batch=False)
        assert rows == golden[0]
        assert report == golden[1]


class TestGoldenExperiment:
    """The experiment driver inherits the chain's engine-independence."""

    def test_experiment_json_identical_across_engines(self, tmp_path):
        spec = ExperimentSpec(
            scale="tiny", devices=(DEVICE,), limit=N_SPECS,
            max_nnz=MAX_NNZ, n_splits=2, model="knn",
        )
        reference = run_experiment(spec).to_json()
        assert run_experiment(spec, jobs=2).to_json() == reference
        cache = str(tmp_path / "cache")
        assert run_experiment(spec, cache_dir=cache).to_json() == reference
        assert run_experiment(spec, cache_dir=cache).to_json() == reference


class TestColumnarAgreement:
    """The table redesign's golden pin: every columnar fast path equals
    the dict-row seed behaviour bit for bit, and the full chain survives
    an NPZ round trip byte-identically."""

    @pytest.fixture(scope="class")
    def table(self):
        return sweep(
            _dataset(), [TESTBEDS[DEVICE]], best_only=False, seed=0,
        )

    def _reports(self, train, test, eval_batch=True):
        selector = FormatSelector(
            list(TESTBEDS[DEVICE].formats),
            model_factory=lambda: KNeighborsRegressor(
                n_neighbors=3, weights="distance"
            ),
        ).fit(train)
        if not eval_batch:
            return scalar_evaluate(selector, test, detail=True)
        return selector.evaluate(test, detail=True)

    @pytest.mark.parametrize("eval_batch", [True, False])
    def test_columnar_selector_equals_dict_row_path(self, table,
                                                    eval_batch):
        names = sorted({r["matrix"] for r in table.rows})
        half = names[: N_SPECS // 2]
        train_t = table.where_in("matrix", half)
        test_t = table.where_in("matrix", names[N_SPECS // 2:])
        columnar = self._reports(train_t, test_t, eval_batch)
        reference = self._reports(
            train_t.to_rows(), test_t.to_rows(), eval_batch
        )
        assert columnar == reference

    def test_npz_roundtrip_is_lossless(self, table, tmp_path):
        path = tmp_path / "sweep.npz"
        table.to_npz(path)
        from repro.core.table import SweepTable

        back = SweepTable.from_npz(path)
        assert back == table
        assert back.to_rows() == table.to_rows()

    def test_experiment_from_saved_table_is_byte_identical(
        self, tmp_path
    ):
        spec = ExperimentSpec(
            scale="tiny", devices=(DEVICE,), limit=N_SPECS,
            max_nnz=MAX_NNZ, n_splits=2, model="knn",
        )
        reference = run_experiment(spec).to_json()
        dataset = Dataset(
            build_dataset_specs("tiny")[:N_SPECS], max_nnz=MAX_NNZ,
            name="tiny",
        )
        saved = sweep(dataset, [TESTBEDS[DEVICE]], best_only=False,
                      seed=0)
        path = tmp_path / "sweep.npz"
        saved.to_npz(path)
        from repro.core.table import SweepTable

        loaded = run_experiment(
            spec, table=SweepTable.from_npz(path)
        )
        assert loaded.to_json() == reference
