"""Reference tree routing for :class:`repro.ml.forest.ForestStack`.

Before every tree of every format was stacked into one router, each
tree routed its own rows and each forest summed its trees one at a
time.  These are those paths, unchanged, so the stacked router can be
compared with them byte for byte and timed against them:

* :func:`walk_predict` — the node-object walk over index partitions;
* :func:`tree_predict` — the per-tree level-wise loop over the
  flattened node arrays, compacting the rows still at internal nodes;
* :func:`forest_predict` — the per-tree accumulation loop of
  ``RandomForestRegressor.predict``;
* :func:`selector_predict_gflops_batch` — per-format routing for a
  whole selector, one forest (or model) at a time.
"""

import numpy as np

from repro.ml import RandomForestRegressor


def walk_predict(tree, X) -> np.ndarray:
    """Node-object routing via index partitions."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X), dtype=np.float64)
    stack = [(tree._root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def tree_predict(tree, X) -> np.ndarray:
    """Level-wise routing of one tree over its flattened node arrays."""
    X = np.asarray(X, dtype=np.float64)
    flat = tree.to_arrays()
    feature, threshold = flat["feature"], flat["threshold"]
    left, right, value = flat["left"], flat["right"], flat["value"]
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        feat = feature[node]
        live = feat >= 0  # internal nodes; leaves store -1
        if not live.any():
            break
        rows = np.nonzero(live)[0]
        at = node[rows]
        go_left = X[rows, feat[rows]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])
    return value[node]


def forest_predict(forest, X) -> np.ndarray:
    """Sequential tree-order accumulation, then the mean."""
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(len(X), dtype=np.float64)
    for tree in forest.trees_:
        out += tree_predict(tree, X)
    out /= len(forest.trees_)
    return out


def selector_predict_gflops_batch(selector, features_seq) -> dict:
    """``FormatSelector.predict_gflops_batch`` with per-format routing."""
    X = selector._matrix(list(features_seq))
    return {
        fmt: forest_predict(model, X)
        if isinstance(model, RandomForestRegressor)
        else np.asarray(model.predict(X), dtype=np.float64)
        for fmt, model in selector._models.items()
    }
