"""Experiment runner: end-to-end runs on tiny slices of the testbed."""

import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment

SMOKE = dict(scale="tiny", limit=8, max_nnz=20_000, model="knn")


@pytest.fixture(scope="module")
def kfold_result():
    spec = ExperimentSpec(
        devices=("INTEL-XEON",), n_splits=3, **SMOKE
    )
    return run_experiment(spec)


class TestKFoldRun:
    def test_fold_bookkeeping(self, kfold_result):
        res = kfold_result
        assert res.n_instances == 8
        assert len(res.folds) == 3
        assert all(f.device == "INTEL-XEON" for f in res.folds)
        assert [f.fold for f in res.folds] == ["fold0", "fold1", "fold2"]
        # Held-out counts partition the instances.
        assert sum(f.n_test for f in res.folds) == 8
        for f in res.folds:
            assert f.n_train + f.n_test == 8
            assert f.scored
            assert len(f.choices) == f.report["n_matrices"] == f.n_test

    def test_report_fields_bounded(self, kfold_result):
        for f in kfold_result.scored_folds():
            assert 0.0 <= f.report["top1_accuracy"] <= 1.0
            assert 0.0 < f.report["worst_retained"] \
                <= f.report["mean_retained"] <= 1.0

    def test_summary_aggregates_folds(self, kfold_result):
        summary = kfold_result.summary()
        assert set(summary) == {"INTEL-XEON", "overall"}
        assert summary["INTEL-XEON"]["n_folds"] == 3
        assert summary["INTEL-XEON"]["n_matrices"] == 8
        assert summary["overall"] == summary["INTEL-XEON"]

    def test_confusion_counts_match_choices(self, kfold_result):
        confusion = kfold_result.confusion()
        total = sum(n for row in confusion.values() for n in row.values())
        assert total == 8
        diagonal = sum(
            confusion.get(fmt, {}).get(fmt, 0) for fmt in confusion
        )
        overall = kfold_result.summary()["overall"]
        assert diagonal == round(overall["top1_accuracy"] * 8)

    def test_win_rates_sum_to_100(self, kfold_result):
        rates = kfold_result.win_rates()
        assert sum(r["oracle_pct"] for r in rates.values()) == \
            pytest.approx(100.0)
        assert sum(r["selected_pct"] for r in rates.values()) == \
            pytest.approx(100.0)

    def test_json_and_csv_exports(self, kfold_result):
        payload = json.loads(kfold_result.to_json())
        assert payload["schema_version"] == 1
        assert payload["spec"]["devices"] == ["INTEL-XEON"]
        assert len(payload["folds"]) == 3
        rows = kfold_result.to_rows()
        assert len(rows) == 3
        assert all("top1_accuracy" in r for r in rows)

    def test_render_mentions_every_fold(self, kfold_result):
        text = kfold_result.render()
        for f in kfold_result.folds:
            assert f.fold in text
        assert "Summary" in text


class TestDeterminism:
    def test_same_seed_byte_identical_json(self):
        spec = ExperimentSpec(devices=("INTEL-XEON",), n_splits=2, **SMOKE)
        a = run_experiment(spec).to_json()
        b = run_experiment(spec).to_json()
        assert a == b

    def test_engine_knobs_do_not_change_results(self, tmp_path):
        spec = ExperimentSpec(devices=("INTEL-XEON",), n_splits=2, **SMOKE)
        reference = run_experiment(spec).to_json()
        assert run_experiment(spec, jobs=2).to_json() == reference
        cache = str(tmp_path / "cache")
        assert run_experiment(spec, cache_dir=cache).to_json() == reference
        # warm cache
        assert run_experiment(spec, cache_dir=cache).to_json() == reference

    def test_seed_changes_results(self):
        base = dict(devices=("INTEL-XEON",), n_splits=2, **SMOKE)
        a = run_experiment(ExperimentSpec(seed=0, **base))
        b = run_experiment(ExperimentSpec(seed=1, **base))
        assert a.to_json() != b.to_json()
        # ...but only through folds/noise, never the bookkeeping.
        assert len(a.folds) == len(b.folds)

    def test_precision_slices_differ(self):
        base = dict(devices=("INTEL-XEON",), n_splits=2, **SMOKE)
        fp64 = run_experiment(ExperimentSpec(**base))
        fp32 = run_experiment(ExperimentSpec(precision="fp32", **base))
        assert fp64.to_json() != fp32.to_json()
        assert json.loads(fp32.to_json())["spec"]["precision"] == "fp32"


class TestLodoRun:
    def test_transfer_and_skipped_folds(self):
        spec = ExperimentSpec(
            devices=("INTEL-XEON", "AMD-EPYC-24", "Alveo-U280"),
            protocol="lodo", **SMOKE,
        )
        res = run_experiment(spec)
        assert [f.fold for f in res.folds] == list(spec.device_names)
        by_dev = {f.device: f for f in res.folds}
        # CPU folds transfer (CPUs share most Table-II formats)...
        assert by_dev["INTEL-XEON"].scored
        assert by_dev["AMD-EPYC-24"].scored
        # ...but nothing lists the FPGA's VSL, so its fold is skipped
        # with an actionable note instead of a crash.
        fpga = by_dev["Alveo-U280"]
        assert not fpga.scored
        assert "candidate formats" in fpga.note
        assert fpga.to_dict()["report"] is None

    def test_device_with_too_few_matrices_skipped_gracefully(self):
        """Capacity skips can shrink one device below the fold count
        after the sweep already ran; that device records a skipped fold
        instead of discarding the whole run."""
        from repro.devices import TESTBEDS
        from repro.experiments.runner import _kfold_folds

        spec = ExperimentSpec(devices=("INTEL-XEON",), n_splits=3,
                              model="knn")
        rows = [
            {
                "matrix": f"m{i}", "device": "INTEL-XEON",
                "format": "Naive-CSR", "gflops": 10.0 + i,
                "mem_footprint_mb": 4.0, "avg_nnz_per_row": 10.0,
                "skew_coeff": 1.0, "cross_row_similarity": 0.5,
                "avg_num_neighbours": 1.0,
            }
            for i in range(2)  # two matrices < three folds
        ]
        folds = _kfold_folds(spec, rows, [TESTBEDS["INTEL-XEON"]])
        assert len(folds) == 1
        assert not folds[0].scored
        assert "lower --folds" in folds[0].note

    def test_folds_exceeding_dataset_rejected_before_sweep(self):
        # No --limit, so the spec can't pre-reject; the runner must
        # still refuse before sweeping (instant, or this test would
        # sweep the full tiny dataset).
        spec = ExperimentSpec(
            devices=("INTEL-XEON",), n_splits=999, scale="tiny",
            model="knn",
        )
        with pytest.raises(ValueError, match="lower --folds"):
            run_experiment(spec)

    def test_too_few_matrices_is_actionable(self):
        # Statically doomed limit/fold combinations fail at spec
        # construction, before any sweep work.
        with pytest.raises(ValueError, match="lower --folds"):
            ExperimentSpec(
                devices=("INTEL-XEON",), n_splits=5, scale="tiny",
                limit=3, max_nnz=20_000, model="knn",
            )
