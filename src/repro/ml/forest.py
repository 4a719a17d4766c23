"""Random-forest regressor and the stacked tree router.

:class:`ForestStack` is the one routing loop of the ML substrate: it
concatenates the node arrays of every tree of one or more forests and
routes every (forest, tree, sample) lane level by level, so a whole
selector's worth of forests costs at most ``depth`` vectorised steps
per block of samples.  Single trees, forests and the selector's batch
paths all predict through it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .tree import DecisionTreeRegressor

__all__ = ["ForestStack", "RandomForestRegressor", "LANE_BUDGET"]

# Lanes routed per block.  Blocks amortise NumPy's per-call overhead
# over many lanes while keeping the lane arrays cache-sized, so a
# whole-fold evaluation costs no more per sample than a micro-batch.
LANE_BUDGET = 1 << 14


class ForestStack:
    """Every tree of equally sized forests, stacked into one node array.

    Nodes are renumbered breadth-first over all trees at once, with the
    two children of a split stored next to each other (left = right -
    1) and the tree roots first.  A leaf points at itself with a NaN
    threshold, which no comparison passes, so lanes that reached a leaf
    stay there and every lane can take exactly ``depth`` steps.  Each
    step compares ``x <= threshold`` as the node walk does, so NaN and
    +inf features go right, and every lane lands on the leaf the node
    walk would reach.
    """

    def __init__(
        self, forests: Sequence[Sequence[DecisionTreeRegressor]]
    ) -> None:
        sizes = {len(trees) for trees in forests}
        if len(sizes) != 1 or 0 in sizes:
            raise ValueError(
                "a stack needs one or more forests of one nonzero tree "
                f"count, got {sorted(sizes)}"
            )
        self.n_forests = len(forests)
        self.n_trees = sizes.pop()
        flats = [tree._flat_arrays() for trees in forests for tree in trees]
        offsets = np.cumsum([0] + [len(f["feature"]) for f in flats])
        feature = np.concatenate([f["feature"] for f in flats])
        left = np.concatenate(
            [f["left"] + o for f, o in zip(flats, offsets)]
        )
        right = np.concatenate(
            [f["right"] + o for f, o in zip(flats, offsets)]
        )
        level = offsets[:-1]
        order = [level]
        depth = 0
        while True:
            inner = level[feature[level] >= 0]
            if not len(inner):
                break
            level = np.stack([left[inner], right[inner]], axis=1).ravel()
            order.append(level)
            depth += 1
        order = np.concatenate(order)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        is_leaf = feature[order] < 0
        self.depth = depth
        self.feature = np.where(is_leaf, 0, feature[order])
        self.threshold = np.where(
            is_leaf, np.nan,
            np.concatenate([f["threshold"] for f in flats])[order],
        )
        self.right = np.arange(len(order))
        self.right[~is_leaf] = renumber[right[order[~is_leaf]]]
        self.value = np.concatenate([f["value"] for f in flats])[order]

    def _route(self, X: np.ndarray) -> Iterator[Tuple[slice, np.ndarray]]:
        """``(rows, leaf values)`` per block of samples; the values are
        ``(n_forests * n_trees, block rows)``, forest-major."""
        n, d = X.shape
        n_lanes = self.n_forests * self.n_trees
        per_block = max(1, LANE_BUDGET // n_lanes)
        feature, threshold, right = self.feature, self.threshold, self.right
        for start in range(0, n, per_block):
            rows = slice(start, min(start + per_block, n))
            block = X[rows].ravel()
            m = rows.stop - rows.start
            base = np.tile(np.arange(m) * d, n_lanes)
            node = np.repeat(np.arange(n_lanes), m)
            for _ in range(self.depth):
                x = block[base + feature[node]]
                node = right[node] - (x <= threshold[node])
            yield rows, self.value[node].reshape(n_lanes, m)

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row of ``X``:
        ``(n_forests * n_trees, n)``."""
        out = np.empty((self.n_forests * self.n_trees, len(X)))
        for rows, values in self._route(X):
            out[:, rows] = values
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf value per forest for every row: ``(n_forests, n)``.

        Trees are summed one at a time in tree order, starting from
        0.0, then divided by the tree count.  That order is the same
        for every batch size (a pairwise ``mean`` is not), so a
        prediction never depends on the batch it arrives in.
        """
        out = np.empty((self.n_forests, len(X)))
        for rows, values in self._route(X):
            values = values.reshape(self.n_forests, self.n_trees, -1)
            values[:, 0] += 0.0  # the running sum starts at 0.0
            np.add.accumulate(values, axis=1, out=values)
            np.divide(values[:, -1], self.n_trees, out=out[:, rows])
        return out


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees.

    Each tree is fitted on a bootstrap resample with ``max_features``
    candidate features per split (default: ceil(sqrt(d))).
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 12,
        min_samples_leaf: int = 3,
        max_features: Optional[int] = None,
        random_state: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.trees_ = []
        self._stack: Optional[ForestStack] = None

    def fit(self, X, y) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("bad training shapes")
        rng = np.random.default_rng(self.random_state)
        d = X.shape[1]
        m = self.max_features or max(1, int(np.ceil(np.sqrt(d))))
        self.trees_ = []
        self._stack = None
        for t in range(self.n_estimators):
            idx = rng.integers(0, len(y), size=len(y))
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=m,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.trees_[0].n_features_:
            raise ValueError(
                f"bad predict shape {X.shape}; expected "
                f"(n, {self.trees_[0].n_features_})"
            )
        if self._stack is None:
            self._stack = ForestStack([self.trees_])
        return self._stack.predict(X)[0]

    def to_state(self) -> dict:
        """Fitted state as a flat dict of arrays (one
        ``tree/<t>/<field>`` entry per node array), the inverse of
        :meth:`from_state`; a reloaded forest predicts bit-identically."""
        if not self.trees_:
            raise RuntimeError("model not fitted")
        state = {"n_trees": np.int64(len(self.trees_))}
        for t, tree in enumerate(self.trees_):
            for field, arr in tree.to_arrays().items():
                state[f"tree/{t}/{field}"] = arr
        return state

    @classmethod
    def from_state(cls, state: dict) -> "RandomForestRegressor":
        n_trees = int(state["n_trees"])
        model = cls(n_estimators=max(n_trees, 1))
        model.trees_ = [
            DecisionTreeRegressor.from_arrays({
                field: state[f"tree/{t}/{field}"]
                for field in ("feature", "threshold", "left", "right",
                              "value", "n_features")
            })
            for t in range(n_trees)
        ]
        model.n_estimators = n_trees
        return model
