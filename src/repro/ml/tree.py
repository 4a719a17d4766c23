"""CART regression tree (variance-reduction splits), vectorised.

The split search evaluates every candidate threshold of a feature in one
NumPy pass (prefix sums of sorted targets).  Each feature is argsorted
once per ``fit`` and the per-feature sorted orders are *partitioned*
down the recursion — an O(n) subset per node instead of an O(n log n)
re-sort, while producing bit-identical trees to the re-sorting search
(the oracle in ``tests/oracles/tree.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DecisionTreeRegressor"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _threshold(lo: float, hi: float) -> float:
    """Split threshold between consecutive distinct sorted values.

    The midpoint, unless it rounds onto ``hi`` (``lo`` and ``hi`` are
    adjacent floats, or their sum overflows): then ``X <= threshold``
    would send every row left and leave an empty right child, whose
    mean is NaN.  ``lo`` separates the same rows.
    """
    mid = (lo + hi) / 2.0
    return mid if mid < hi else lo


def _best_split_presorted(X, y, idx, sorted_idx, feats, min_leaf):
    """Best (sse, local feature index, threshold) of a node, or None.

    ``idx`` holds the node's rows in original order (for the totals);
    ``sorted_idx[:, f]`` holds the same rows sorted by feature ``f``.
    Candidates split between consecutive distinct sorted values
    (:func:`_threshold`); split SSE is computed from prefix sums.
    Because stable argsorts and order-preserving partitions both sort by
    (value, original position), the per-feature orders — and hence every
    prefix sum, tie-break and threshold — match a per-node re-sorting
    search bit for bit.
    """
    n = len(idx)
    y_node = y[idx]
    total = y_node.sum()
    total_sq = (y_node**2).sum()
    best = None  # (sse, local feature index, threshold)
    k = np.arange(1, n)  # left sizes
    for j_local, j in enumerate(feats):
        order = sorted_idx[:, j]
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys**2)
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
            best = (float(sse[i]), j_local,
                    _threshold(float(xs[i]), float(xs[i + 1])))
    return best


class DecisionTreeRegressor:
    """Regression tree with depth / leaf-size / impurity stopping rules."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 3,
        min_impurity_decrease: float = 0.0,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_Node] = None
        self._flat: Optional[dict] = None
        self._stack = None
        self.n_features_: int = 0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("bad training shapes")
        self.n_features_ = X.shape[1]
        self._flat = None
        self._stack = None
        rng = np.random.default_rng(self.random_state)
        # One stable argsort per feature for the whole fit; nodes
        # partition these orders instead of re-sorting their subsets.
        sorted_idx = np.argsort(X, axis=0, kind="stable")
        self._root = self._grow_presorted(
            X, y, np.arange(len(y), dtype=np.int64), sorted_idx,
            depth=0, rng=rng,
        )
        return self

    def _choose_features(self, d, rng) -> np.ndarray:
        """Candidate features for one split (forest subsampling)."""
        if self.max_features and self.max_features < d:
            return rng.choice(d, size=self.max_features, replace=False)
        return np.arange(d)

    def _grow_presorted(self, X, y, idx, sorted_idx, depth, rng) -> _Node:
        """Grow a node over row-index views of the full training arrays.

        ``idx`` is the node's rows in original order; ``sorted_idx`` its
        (n_node, d) per-feature sorted orders.  Every statistic is computed
        over exactly the arrays a copying grower would build, in the same
        order, so the grown tree is identical bit for bit.
        """
        y_node = y[idx]
        node = _Node(value=float(y_node.mean()))
        n = len(idx)
        if (
            depth >= self.max_depth
            or n < 2 * self.min_samples_leaf
            or np.all(y_node == y_node[0])
        ):
            return node
        feats = self._choose_features(X.shape[1], rng)
        found = _best_split_presorted(
            X, y, idx, sorted_idx, feats, self.min_samples_leaf
        )
        if found is None:
            return node
        sse, j_local, thr = found
        parent_sse = float(((y_node - y_node.mean()) ** 2).sum())
        if parent_sse - sse < self.min_impurity_decrease * max(n, 1):
            return node
        j = int(feats[j_local])
        go_left = X[idx, j] <= thr
        idx_left, idx_right = idx[go_left], idx[~go_left]
        # Partition every feature's sorted order by left membership —
        # order-preserving, so children stay sorted without re-sorting.
        is_left = np.zeros(len(y), dtype=bool)
        is_left[idx_left] = True
        mask2d = is_left[sorted_idx]
        d = sorted_idx.shape[1]
        left_sorted = (
            sorted_idx.T[mask2d.T].reshape(d, len(idx_left)).T
        )
        right_sorted = (
            sorted_idx.T[~mask2d.T].reshape(d, len(idx_right)).T
        )
        node.feature = j
        node.threshold = thr
        node.left = self._grow_presorted(
            X, y, idx_left, left_sorted, depth + 1, rng
        )
        node.right = self._grow_presorted(
            X, y, idx_right, right_sorted, depth + 1, rng
        )
        return node

    def predict(self, X) -> np.ndarray:
        """Leaf values of the rows of ``X``, routed by the stacked
        router (:class:`~repro.ml.forest.ForestStack`) over this tree's
        flattened node arrays: at most ``depth`` vectorised steps per
        block of rows, so every row gets the same leaf at any batch
        size."""
        if self._root is None:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("bad predict shape")
        if self._stack is None:
            from .forest import ForestStack

            self._stack = ForestStack([[self]])
        return self._stack.leaves(X)[0]

    # -- flattened node arrays (stacked routing + serialisation) -------
    def _flat_arrays(self) -> dict:
        """The flattened node arrays, built once per fit (shared, not
        copied: callers must not modify them)."""
        if self._root is None:
            raise RuntimeError("model not fitted")
        if self._flat is None:
            self._flat = self._flatten()
        return self._flat

    def _flatten(self) -> dict:
        """Preorder node arrays: ``feature`` (-1 marks a leaf),
        ``threshold``, ``left``/``right`` child indices, ``value``."""
        feats: list = []
        thr: list = []
        left: list = []
        right: list = []
        value: list = []

        def walk(node: _Node) -> int:
            i = len(feats)
            feats.append(node.feature if not node.is_leaf else -1)
            thr.append(node.threshold)
            left.append(-1)
            right.append(-1)
            value.append(node.value)
            if not node.is_leaf:
                left[i] = walk(node.left)
                right[i] = walk(node.right)
            return i

        walk(self._root)
        return {
            "feature": np.array(feats, dtype=np.int64),
            "threshold": np.array(thr, dtype=np.float64),
            "left": np.array(left, dtype=np.int64),
            "right": np.array(right, dtype=np.int64),
            "value": np.array(value, dtype=np.float64),
        }

    def to_arrays(self) -> dict:
        """Fitted state as plain arrays (``feature``/``threshold``/
        ``left``/``right``/``value`` + ``n_features``), the inverse of
        :meth:`from_arrays`; thresholds and leaf values round-trip
        exactly, so a reloaded tree predicts bit-identically."""
        out = {k: v.copy() for k, v in self._flat_arrays().items()}
        out["n_features"] = np.int64(self.n_features_)
        return out

    @classmethod
    def from_arrays(cls, arrays: dict) -> "DecisionTreeRegressor":
        """Rebuild a fitted tree from :meth:`to_arrays` output."""
        feature = np.asarray(arrays["feature"], dtype=np.int64)
        threshold = np.asarray(arrays["threshold"], dtype=np.float64)
        left = np.asarray(arrays["left"], dtype=np.int64)
        right = np.asarray(arrays["right"], dtype=np.int64)
        value = np.asarray(arrays["value"], dtype=np.float64)
        n = len(feature)
        if not n or any(
            len(a) != n for a in (threshold, left, right, value)
        ):
            raise ValueError("inconsistent tree arrays")

        def build(i: int) -> _Node:
            if not 0 <= i < n:
                raise ValueError(f"tree child index {i} out of range")
            node = _Node(
                feature=int(feature[i]), threshold=float(threshold[i]),
                value=float(value[i]),
            )
            if feature[i] >= 0:
                node.left = build(int(left[i]))
                node.right = build(int(right[i]))
            return node

        tree = cls()
        tree._root = build(0)
        tree.n_features_ = int(arrays["n_features"])
        tree._flat = {
            "feature": feature, "threshold": threshold,
            "left": left, "right": right, "value": value,
        }
        return tree

    def depth(self) -> int:
        """Realised depth of the fitted tree."""
        def _d(node):
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_d(node.left), _d(node.right))

        if self._root is None:
            raise RuntimeError("model not fitted")
        return _d(self._root)
