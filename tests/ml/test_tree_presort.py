"""Presorted split search: bit-identical trees to the re-sorting search.

The production grower (argsort each feature once per fit, partition the
sorted orders per node) must reproduce the per-node re-sort of the
oracle in ``tests/oracles/tree.py`` exactly — same splits, same
thresholds, same leaf values — across stopping rules, tie-heavy
features and forest feature subsampling, and through a full fixed-seed
selector run.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

from tests.oracles.tree import ResortingForest, ResortingTree

# ``presort`` picks the grower under test: True is the production tree,
# False the re-sorting oracle.
TREES = {True: DecisionTreeRegressor, False: ResortingTree}


def _signature(node, out=None):
    """Flattened (feature, threshold, value, is_leaf) preorder walk."""
    if out is None:
        out = []
    out.append((node.feature, node.threshold, node.value, node.is_leaf))
    if not node.is_leaf:
        _signature(node.left, out)
        _signature(node.right, out)
    return out


def _data(n, d, seed, ties=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if ties:
        # Coarse quantisation forces equal feature values, exercising the
        # (value, original position) tie-break the partition must keep.
        X[:, 0] = np.round(X[:, 0], 1)
        X[:, -1] = np.round(X[:, -1])
    y = X @ rng.normal(size=d) + 0.25 * rng.normal(size=n)
    return X, y


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"max_depth": 3},
        {"max_depth": 25},
        {"min_samples_leaf": 12},
        {"min_impurity_decrease": 0.05},
        {"max_features": 2, "random_state": 7},
        {"max_features": 1, "random_state": 0, "max_depth": 6},
    ],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_presort_tree_identical(kwargs, seed):
    X, y = _data(400, 6, seed)
    fast = DecisionTreeRegressor(**kwargs).fit(X, y)
    ref = ResortingTree(**kwargs).fit(X, y)
    assert _signature(fast._root) == _signature(ref._root)
    np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
    assert fast.depth() == ref.depth()


def test_presort_constant_targets():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = np.ones(20)
    fast = DecisionTreeRegressor().fit(X, y)
    ref = ResortingTree().fit(X, y)
    assert _signature(fast._root) == _signature(ref._root)


def test_presort_single_sample_and_duplicate_rows():
    fast = DecisionTreeRegressor().fit([[1.0, 2.0]], [3.0])
    ref = ResortingTree().fit([[1.0, 2.0]], [3.0])
    assert _signature(fast._root) == _signature(ref._root)

    X = np.tile(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]), (5, 1))
    y = np.arange(15, dtype=float)
    fast = DecisionTreeRegressor(min_samples_leaf=1).fit(X, y)
    ref = ResortingTree(min_samples_leaf=1).fit(X, y)
    assert _signature(fast._root) == _signature(ref._root)


def test_presort_forest_identical():
    """Bagged trees draw the same bootstrap/feature randomness and grow
    identical forests under either split engine."""
    X, y = _data(250, 5, seed=11)
    fast = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y)
    ref = ResortingForest(n_estimators=8, random_state=3).fit(X, y)
    assert len(fast.trees_) == len(ref.trees_)
    for a, b in zip(fast.trees_, ref.trees_):
        assert _signature(a._root) == _signature(b._root)
    np.testing.assert_array_equal(fast.predict(X), ref.predict(X))


def test_presort_selector_run_identical(all_archetypes):
    """Fixed-seed end-to-end selector training picks identical formats."""
    from repro.devices import TESTBEDS
    from repro.ml.selector import FormatSelector
    from repro.perfmodel import MatrixInstance, simulate_grid

    instances = [
        MatrixInstance.from_matrix(m, name=k)
        for k, m in sorted(all_archetypes.items())
    ]
    dev = TESTBEDS["AMD-EPYC-24"]
    grid = simulate_grid(instances, [dev], seed=0)

    selectors = {}
    for presort, forest in ((True, RandomForestRegressor),
                            (False, ResortingForest)):
        sel = FormatSelector(
            list(dev.formats),
            model_factory=lambda cls=forest: cls(
                n_estimators=10, random_state=0
            ),
        ).fit(grid)
        selectors[presort] = sel
    feats = [inst.features.to_dict() for inst in instances]
    picks_fast = [selectors[True].select(f) for f in feats]
    picks_ref = [selectors[False].select(f) for f in feats]
    assert picks_fast == picks_ref
    for fmt, model in selectors[True]._models.items():
        ref_model = selectors[False]._models[fmt]
        for a, b in zip(model.trees_, ref_model.trees_):
            assert _signature(a._root) == _signature(b._root)


def _adjacent_pair_rounding_up():
    """Adjacent floats ``lo < hi`` whose midpoint rounds onto ``hi``."""
    lo = np.log1p(1e4)
    while (lo + np.nextafter(lo, np.inf)) / 2.0 != np.nextafter(lo, np.inf):
        lo = np.nextafter(lo, np.inf)
    return lo, np.nextafter(lo, np.inf)


@pytest.mark.parametrize("presort", [True, False])
def test_adjacent_float_split_leaves_no_empty_child(presort):
    lo, hi = _adjacent_pair_rounding_up()
    X = np.array([[lo]] * 4 + [[hi]] * 4)
    y = np.array([0.0] * 4 + [1.0] * 4)
    tree = TREES[presort](max_depth=1, min_samples_leaf=4).fit(X, y)
    assert not tree._root.is_leaf
    assert tree._root.threshold == lo
    values = tree.to_arrays()["value"]
    assert not np.isnan(values).any()
    # Each child holds exactly its own side of the split.
    np.testing.assert_array_equal(tree.predict(X), y)
    ref = TREES[not presort](max_depth=1, min_samples_leaf=4).fit(X, y)
    assert _signature(tree._root) == _signature(ref._root)
