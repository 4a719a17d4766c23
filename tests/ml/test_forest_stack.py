"""The stacked router against the per-tree routing it replaced.

``ForestStack`` routes every (format, tree, sample) lane of a selector
at once; the oracles in ``tests/oracles/routing.py`` route one tree and
one format at a time.  Every prediction must match them byte for byte
(``tobytes()``), at every batch size, for awkward feature values, after
an artifact round trip and after a refit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor, FormatSelector, KNeighborsRegressor,
    RandomForestRegressor, RidgeRegression,
)
from repro.ml.forest import LANE_BUDGET
from repro.ml.selector import MINIMAL_FEATURES
from tests.oracles.routing import (
    forest_predict, selector_predict_gflops_batch, tree_predict,
    walk_predict,
)

FORMATS = ["Fast", "Bal", "Rare"]
N_TREES = 10

# Finite draws plus the values that steer routing off the beaten path:
# NaN and +inf go right at every split, -inf goes left, and huge
# magnitudes land beyond every threshold.
AWKWARD = [float("nan"), float("inf"), float("-inf"), 1e300, -1e300,
           0.0, -0.0, 5e-324]
feature_values = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False), st.sampled_from(AWKWARD)
)


def _rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        feats = {
            "matrix": f"m{seed}-{i}",
            "mem_footprint_mb": float(rng.uniform(4, 512)),
            "avg_nnz_per_row": float(rng.uniform(5, 100)),
            "skew_coeff": float(rng.choice([1.0, 50.0, 5000.0])),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        for j, fmt in enumerate(FORMATS):
            rows.append({
                **feats, "format": fmt,
                "gflops": float(rng.uniform(5, 120)) + 10.0 * j,
            })
    return rows


def _forest_selector(seed=1, n=60):
    return FormatSelector(
        FORMATS,
        model_factory=lambda: RandomForestRegressor(
            n_estimators=N_TREES, random_state=0
        ),
    ).fit(_rows(n, seed))


@pytest.fixture(scope="module")
def selector():
    return _forest_selector()


def _queries(n, seed=7):
    rng = np.random.default_rng(seed)
    return [
        {k: float(v) for k, v in zip(MINIMAL_FEATURES, row)}
        for row in rng.uniform(0, 5000, size=(n, len(MINIMAL_FEATURES)))
    ]


def assert_same_bytes(got: dict, want: dict):
    assert list(got) == list(want)
    for fmt in want:
        assert got[fmt].dtype == want[fmt].dtype == np.float64
        assert got[fmt].tobytes() == want[fmt].tobytes(), fmt


# -- batch sizes -------------------------------------------------------
ROWS_PER_BLOCK = LANE_BUDGET // (len(FORMATS) * N_TREES)


@pytest.mark.parametrize(
    "n", [0, 1, 2, 64, 65, ROWS_PER_BLOCK + 1, 2 * ROWS_PER_BLOCK + 3]
)
def test_selector_matches_per_format_routing(selector, n):
    feats = _queries(n)
    got = selector.predict_gflops_batch(feats)
    assert_same_bytes(got, selector_predict_gflops_batch(selector, feats))
    assert selector.select_batch(feats) == [
        selector.select(f) for f in feats
    ]


def test_stack_is_used_for_equal_forests(selector):
    selector.predict_gflops_batch(_queries(1))
    assert selector._stack is not None
    assert selector._stack.n_forests == len(FORMATS)
    assert selector._stack.n_trees == N_TREES


# -- awkward feature values ------------------------------------------
@given(
    values=st.lists(
        st.lists(feature_values, min_size=len(MINIMAL_FEATURES),
                 max_size=len(MINIMAL_FEATURES)),
        min_size=1, max_size=70,
    )
)
@settings(max_examples=40, deadline=None)
def test_awkward_features_match_oracle(selector, values):
    feats = [dict(zip(MINIMAL_FEATURES, row)) for row in values]
    assert_same_bytes(
        selector.predict_gflops_batch(feats),
        selector_predict_gflops_batch(selector, feats),
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    n_train=st.integers(2, 80),
    d=st.integers(1, 4),
    max_depth=st.integers(1, 9),
    n_estimators=st.integers(1, 6),
    queries=st.lists(st.lists(feature_values, min_size=4, max_size=4),
                     max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_trees_and_forests_match_oracles(
    seed, n_train, d, max_depth, n_estimators, queries
):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n_train, d)), 1)
    y = rng.normal(size=n_train)
    forest = RandomForestRegressor(
        n_estimators=n_estimators, max_depth=max_depth,
        min_samples_leaf=1, random_state=seed % 1000,
    ).fit(X, y)
    # Rows sitting exactly on split thresholds must go left, as in the
    # node walk.
    thresholds = np.concatenate([
        t.to_arrays()["threshold"][t.to_arrays()["feature"] >= 0]
        for t in forest.trees_
    ])
    Q = np.vstack([
        np.array(queries, dtype=np.float64).reshape(-1, 4)[:, :d],
        X,
        np.repeat(thresholds[:, None], d, axis=1),
    ])
    assert forest.predict(Q).tobytes() == forest_predict(forest, Q).tobytes()
    for tree in forest.trees_:
        want = walk_predict(tree, Q)
        assert tree_predict(tree, Q).tobytes() == want.tobytes()
        assert tree.predict(Q).tobytes() == want.tobytes()


def test_negative_zero_leaves():
    """A bare tree returns a loaded -0.0 leaf untouched, while a forest's
    running sum starts at +0.0 and so turns it into +0.0."""
    tree = DecisionTreeRegressor(max_depth=2).fit(
        np.arange(8.0)[:, None], np.arange(8.0)
    )
    arrays = tree.to_arrays()
    first_leaf = arrays["value"] == arrays["value"].min()  # row 0's leaf
    arrays["value"][first_leaf] = -0.0
    loaded = DecisionTreeRegressor.from_arrays(arrays)
    X = np.array([[0.0], [7.0]])
    assert loaded.predict(X).tobytes() == walk_predict(loaded, X).tobytes()
    assert np.signbit(loaded.predict(X)[0])

    state = {"n_trees": np.int64(2)}
    for t in range(2):
        for field, arr in arrays.items():
            state[f"tree/{t}/{field}"] = arr
    forest = RandomForestRegressor.from_state(state)
    got = forest.predict(X)
    assert got.tobytes() == forest_predict(forest, X).tobytes()
    assert not np.signbit(got[0])


# -- artifacts and refits --------------------------------------------
def test_reloaded_selector_matches_oracle(selector, tmp_path):
    path = tmp_path / "sel.npz"
    selector.to_npz(path)
    loaded = FormatSelector.from_npz(path)
    feats = _queries(65, seed=3)
    got = loaded.predict_gflops_batch(feats)
    assert_same_bytes(got, selector_predict_gflops_batch(loaded, feats))
    assert_same_bytes(got, selector.predict_gflops_batch(feats))


@pytest.mark.parametrize("table", [False, True])
def test_refit_rebuilds_the_stack(table):
    from repro.core.table import SweepTable

    def fit(sel, seed):
        rows = _rows(40, seed)
        return sel.fit(SweepTable.from_rows(rows) if table else rows)

    feats = _queries(64, seed=5)
    refitted = fit(_forest_selector(seed=1), 2)
    before = refitted.predict_gflops_batch(feats)
    fit(refitted, 9)
    fresh = fit(_forest_selector(seed=4), 9)
    got = refitted.predict_gflops_batch(feats)
    assert_same_bytes(got, fresh.predict_gflops_batch(feats))
    assert_same_bytes(got, selector_predict_gflops_batch(refitted, feats))
    assert any(
        before[f].tobytes() != got[f].tobytes() for f in FORMATS
    )


# -- selectors the stack does not cover --------------------------------
@pytest.mark.parametrize("family", ["knn", "ridge", "mixed-forests"])
def test_other_models_predict_per_format(family):
    sizes = itertools.cycle([3, 5])
    factory = {
        "knn": lambda: KNeighborsRegressor(n_neighbors=3),
        "ridge": lambda: RidgeRegression(alpha=0.5),
        "mixed-forests": lambda: RandomForestRegressor(
            n_estimators=next(sizes), random_state=0
        ),
    }[family]
    sel = FormatSelector(FORMATS, model_factory=factory).fit(_rows(40, 1))
    feats = _queries(65)
    got = sel.predict_gflops_batch(feats)
    assert sel._stack is None
    want = {
        fmt: np.asarray(model.predict(sel._matrix(feats)), dtype=np.float64)
        for fmt, model in sel._models.items()
    }
    assert_same_bytes(got, want)
    assert_same_bytes(got, selector_predict_gflops_batch(sel, feats))
