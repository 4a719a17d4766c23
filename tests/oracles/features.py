"""Reference cross-row similarity: per-row hits summed with ``np.add.at``.

Production :func:`~repro.core.features.cross_row_similarity` sums each
row's neighbour hits with one weighted ``np.bincount``.  The hits are 0
or 1, so both sums are exact integers in float64 and the feature is the
same bit for bit; this is the unbuffered ``np.add.at`` form it had
before, as the comparand.
"""

import numpy as np

from repro.core.matrix import CSRMatrix


def cross_row_similarity(mat: CSRMatrix, distance: int = 1) -> float:
    """Average fraction of a row's nonzeros with a next-row neighbour."""
    if mat.nnz == 0 or mat.n_rows < 2:
        return 0.0
    lengths = mat.row_lengths
    rows = np.repeat(np.arange(mat.n_rows, dtype=np.int64), lengths)
    cols = mat.indices.astype(np.int64)
    stride = np.int64(mat.n_cols + 2 * distance + 2)
    keys = rows * stride + cols
    lo_q = (rows + 1) * stride + np.maximum(cols - distance, 0)
    hi_q = (rows + 1) * stride + np.minimum(cols + distance, mat.n_cols - 1)
    lo = np.searchsorted(keys, lo_q, side="left")
    hi = np.searchsorted(keys, hi_q, side="right")
    has_neighbour = (hi > lo).astype(np.float64)
    per_row_hits = np.zeros(mat.n_rows, dtype=np.float64)
    np.add.at(per_row_hits, rows, has_neighbour)
    eligible = (lengths > 0) & (
        np.arange(mat.n_rows) < mat.n_rows - 1
    )
    if not np.any(eligible):
        return 0.0
    frac = per_row_hits[eligible] / lengths[eligible]
    return float(frac.mean())
