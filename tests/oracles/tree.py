"""Reference tree grower: the per-node re-sorting split search.

Before ``DecisionTreeRegressor`` argsorted each feature once per fit and
partitioned those orders down the recursion, every node copied its rows
and re-sorted each candidate feature.  This is that grower, unchanged,
so the presorted one can be compared with it node for node:

* :class:`ResortingTree` — a ``DecisionTreeRegressor`` grown by
  :func:`_best_split` over copied row subsets;
* :class:`ResortingForest` — a ``RandomForestRegressor`` that makes the
  production forest's bootstrap and seed draws but grows
  :class:`ResortingTree` s.

Both predict through the production stacked router, so a selector built
on :class:`ResortingForest` scores like a production one.
"""

import numpy as np

from repro.ml import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node, _threshold


def _best_split(X, y, min_leaf):
    """Best (sse, feature, threshold) over all features, or None.

    For each feature, candidates split between consecutive distinct
    sorted values (:func:`~repro.ml.tree._threshold`); split SSE is
    computed from prefix sums.
    """
    n, d = X.shape
    total = y.sum()
    total_sq = (y**2).sum()
    best = None  # (sse, feature, threshold)
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys**2)
        # split after position i (left = first i+1 points)
        k = np.arange(1, n)  # left sizes
        valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        left_sum = csum[:-1]
        left_sq = csum_sq[:-1]
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse = (
            left_sq - left_sum**2 / k
            + right_sq - right_sum**2 / (n - k)
        )
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        if np.isfinite(sse[i]) and (best is None or sse[i] < best[0]):
            best = (float(sse[i]), j,
                    _threshold(float(xs[i]), float(xs[i + 1])))
    return best


class ResortingTree(DecisionTreeRegressor):
    """A regression tree grown by re-sorting every node's rows."""

    def fit(self, X, y) -> "ResortingTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("bad training shapes")
        self.n_features_ = X.shape[1]
        self._flat = None
        self._stack = None
        rng = np.random.default_rng(self.random_state)
        self._root = self._grow(X, y, depth=0, rng=rng)
        return self

    def _grow(self, X, y, depth, rng) -> _Node:
        node = _Node(value=float(y.mean()))
        n = len(y)
        if (
            depth >= self.max_depth
            or n < 2 * self.min_samples_leaf
            or np.all(y == y[0])
        ):
            return node
        feats = self._choose_features(X.shape[1], rng)
        found = _best_split(X[:, feats], y, self.min_samples_leaf)
        if found is None:
            return node
        sse, j_local, thr = found
        parent_sse = float(((y - y.mean()) ** 2).sum())
        if parent_sse - sse < self.min_impurity_decrease * max(n, 1):
            return node
        j = int(feats[j_local])
        mask = X[:, j] <= thr
        node.feature = j
        node.threshold = thr
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node


class ResortingForest(RandomForestRegressor):
    """A bagged forest of :class:`ResortingTree` s, drawing the same
    bootstrap rows and tree seeds as ``RandomForestRegressor.fit``."""

    def fit(self, X, y) -> "ResortingForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("bad training shapes")
        rng = np.random.default_rng(self.random_state)
        d = X.shape[1]
        m = self.max_features or max(1, int(np.ceil(np.sqrt(d))))
        self.trees_ = []
        self._stack = None
        for _ in range(self.n_estimators):
            idx = rng.integers(0, len(y), size=len(y))
            tree = ResortingTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=m,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        return self
