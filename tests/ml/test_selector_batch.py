"""Batched selector scoring must be bit-identical to the scalar oracle.

The experiment runner evaluates whole held-out folds with one
``model.predict`` per format; these tests pin that path to the
per-instance scalar calls, and ``evaluate`` to the per-instance loop
in ``tests/oracles/selector.py``, for every model family the
experiments use.
"""

import numpy as np
import pytest

from repro.ml import (
    FormatSelector, KNeighborsRegressor, RandomForestRegressor,
    RidgeRegression,
)

from tests.oracles.selector import scalar_evaluate


def _rows(n=60, seed=0, fmt_names=("Fast", "Bal", "Rare")):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        feats = {
            "matrix": f"m{i}",
            "mem_footprint_mb": float(rng.uniform(4, 512)),
            "avg_nnz_per_row": float(rng.uniform(5, 100)),
            "skew_coeff": float(rng.choice([1.0, 50.0, 5000.0])),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        for j, fmt in enumerate(fmt_names):
            rows.append({
                **feats, "format": fmt,
                "gflops": float(rng.uniform(5, 120)) + 10.0 * j,
            })
    return rows


MODEL_FACTORIES = {
    "forest": lambda: RandomForestRegressor(n_estimators=10, random_state=0),
    "knn": lambda: KNeighborsRegressor(n_neighbors=3, weights="distance"),
    "linear": lambda: RidgeRegression(alpha=0.5),
}


@pytest.mark.parametrize("model", sorted(MODEL_FACTORIES))
class TestBatchAgreement:
    def _fitted(self, model):
        return FormatSelector(
            ["Fast", "Bal", "Rare"],
            model_factory=MODEL_FACTORIES[model],
        ).fit(_rows(seed=1))

    def test_predict_gflops_batch_matches_scalar(self, model):
        sel = self._fitted(model)
        held_out = _rows(n=25, seed=2)
        feats = [r for r in held_out if r["format"] == "Fast"]
        batch = sel.predict_gflops_batch(feats)
        assert set(batch) == set(sel.formats)
        for i, f in enumerate(feats):
            scalar = sel.predict_gflops(f)
            for fmt in sel.formats:
                assert batch[fmt][i] == scalar[fmt]

    def test_select_batch_matches_scalar(self, model):
        sel = self._fitted(model)
        feats = [r for r in _rows(n=25, seed=3) if r["format"] == "Fast"]
        assert sel.select_batch(feats) == [sel.select(f) for f in feats]

    def test_evaluate_batch_matches_scalar(self, model):
        sel = self._fitted(model)
        held_out = _rows(n=30, seed=4)
        fast = sel.evaluate(held_out)
        oracle = scalar_evaluate(sel, held_out)
        assert fast == oracle

    def test_evaluate_detail_choices(self, model):
        sel = self._fitted(model)
        report = sel.evaluate(_rows(n=10, seed=5), detail=True)
        choices = report["choices"]
        assert len(choices) == report["n_matrices"] == 10
        for c in choices:
            assert set(c) == {"instance", "oracle", "chosen", "retained"}
            assert 0.0 <= c["retained"] <= 1.0
        # Aggregates recompute from the detail rows.
        acc = sum(c["oracle"] == c["chosen"] for c in choices) / len(choices)
        assert acc == report["top1_accuracy"]


class TestBatchEdgeCases:
    def test_feature_matrix_matches_vector_rows(self):
        sel = FormatSelector(["A"])
        feats = [r for r in _rows(n=8, seed=6) if r["format"] == "Fast"]
        X = sel._matrix(feats)
        for i, f in enumerate(feats):
            np.testing.assert_array_equal(X[i], sel._vector(f))

    def test_empty_matrix_shape(self):
        assert FormatSelector(["A"])._matrix([]).shape == (0, 5)

    def test_unfitted_batch_raises(self):
        with pytest.raises(RuntimeError):
            FormatSelector(["A"]).predict_gflops_batch([])
        with pytest.raises(RuntimeError):
            FormatSelector(["A"]).select_batch([])

    def test_fitted_empty_batch(self):
        sel = FormatSelector(
            ["Fast", "Bal", "Rare"],
            model_factory=MODEL_FACTORIES["knn"],
        ).fit(_rows(n=10, seed=7))
        assert sel.select_batch([]) == []

    def test_tie_break_matches_scalar_first_format(self):
        # A constant model ties every format; both paths must pick the
        # first fitted format.
        class Const:
            def fit(self, X, y):
                return self

            def predict(self, X):
                return np.zeros(len(np.atleast_2d(X)))

        sel = FormatSelector(
            ["B-second", "A-first"], model_factory=Const
        ).fit(_rows(n=6, seed=8, fmt_names=("B-second", "A-first")))
        feats = [r for r in _rows(n=6, seed=9) if r["format"] == "Fast"]
        assert sel.select(feats[0]) == "B-second"
        assert sel.select_batch(feats) == ["B-second"] * len(feats)
