"""Structural matrix features (Section III-A of the paper).

The paper selects one feature per SpMV bottleneck:

========================  ==============================  =====================
feature                   paper label                     bottleneck
========================  ==============================  =====================
``mem_footprint_mb``      f1  ``mem_footprint``           memory-bandwidth intensity
``avg_nnz_per_row``       f2  ``avg_nz_row``              low ILP
``skew_coeff``            f3  ``skew_coeff``              load imbalance
``cross_row_similarity``  f4.a ``cross_row_sim``          memory latency (temporal locality on x)
``avg_num_neighbours``    f4.b ``avg_num_neigh``          memory latency (spatial locality on x)
========================  ==============================  =====================

All extractors are fully vectorised; they never loop over rows in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List

import numpy as np

from .matrix import CSRMatrix

__all__ = [
    "Features",
    "extract_features",
    "skew_coefficient",
    "avg_num_neighbours",
    "cross_row_similarity",
    "scaled_bandwidth",
    "regularity_class",
    "FEATURE_NAMES",
]


@dataclass(frozen=True)
class Features:
    """The full feature vector of a sparse matrix.

    The first five fields are the paper's minimal feature set; the rest are
    auxiliary descriptors used by the extended-feature ablation and the
    performance model.
    """

    # --- the paper's minimal set -------------------------------------
    mem_footprint_mb: float
    avg_nnz_per_row: float
    skew_coeff: float
    cross_row_similarity: float
    avg_num_neighbours: float
    # --- auxiliary ----------------------------------------------------
    n_rows: int
    n_cols: int
    nnz: int
    density: float
    std_nnz_per_row: float
    max_nnz_per_row: int
    min_nnz_per_row: int
    empty_row_fraction: float
    bandwidth_scaled: float

    def minimal_vector(self) -> np.ndarray:
        """The paper's 5-feature vector, in Table-I order."""
        return np.array(
            [
                self.mem_footprint_mb,
                self.avg_nnz_per_row,
                self.skew_coeff,
                self.cross_row_similarity,
                self.avg_num_neighbours,
            ],
            dtype=np.float64,
        )

    def full_vector(self) -> np.ndarray:
        """All numeric features, for the extended-feature ablation."""
        return np.array(
            [getattr(self, f.name) for f in fields(self)], dtype=np.float64
        )

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


FEATURE_NAMES: List[str] = [f.name for f in fields(Features)]
MINIMAL_FEATURE_NAMES: List[str] = [
    "mem_footprint_mb",
    "avg_nnz_per_row",
    "skew_coeff",
    "cross_row_similarity",
    "avg_num_neighbours",
]


def skew_coefficient(row_lengths: np.ndarray) -> float:
    """``(max - avg) / avg`` of nonzeros per row (paper f3).

    A skew of 1 means the longest row is twice the average; balanced
    matrices sit at ~10 or below, unbalanced ones in the hundreds/thousands.
    """
    row_lengths = np.asarray(row_lengths)
    if len(row_lengths) == 0:
        return 0.0
    avg = row_lengths.mean()
    if avg == 0:
        return 0.0
    return float((row_lengths.max() - avg) / avg)


def avg_num_neighbours(mat: CSRMatrix, distance: int = 1) -> float:
    """Average same-row neighbour count within ``distance`` columns (f4.b).

    For ``distance=1`` each nonzero can have at most a left and a right
    neighbour, so the result lies in ``[0, 2]``.  Measures nonzero
    clustering, i.e. spatial locality on the ``x`` vector.
    """
    if mat.nnz == 0:
        return 0.0
    rows = np.repeat(np.arange(mat.n_rows, dtype=np.int64), mat.row_lengths)
    cols = mat.indices.astype(np.int64)
    if mat.nnz == 1:
        return 0.0
    col_diff = np.diff(cols)
    same_row = np.diff(rows) == 0
    # Adjacent pair within `distance` -> both endpoints gain one neighbour.
    close = same_row & (col_diff >= 1) & (col_diff <= distance)
    return float(2.0 * np.count_nonzero(close) / mat.nnz)


def cross_row_similarity(mat: CSRMatrix, distance: int = 1) -> float:
    """Average fraction of a row's nonzeros with a next-row neighbour (f4.a).

    A nonzero at ``(r, c)`` has a cross-row neighbour if row ``r+1`` stores
    any column in ``[c - distance, c + distance]``.  Per-row fractions are
    averaged over all rows that have nonzeros and a successor row, giving a
    value in ``[0, 1]``; it captures temporal locality on ``x``.
    """
    if mat.nnz == 0 or mat.n_rows < 2:
        return 0.0
    lengths = mat.row_lengths
    rows = np.repeat(np.arange(mat.n_rows, dtype=np.int64), lengths)
    cols = mat.indices.astype(np.int64)
    # Global sorted keys: row * stride + col is strictly increasing for
    # sorted CSR, letting us binary-search "does row r+1 contain a column in
    # [c-d, c+d]" for all nonzeros at once.
    stride = np.int64(mat.n_cols + 2 * distance + 2)
    keys = rows * stride + cols
    lo_q = (rows + 1) * stride + np.maximum(cols - distance, 0)
    hi_q = (rows + 1) * stride + np.minimum(cols + distance, mat.n_cols - 1)
    lo = np.searchsorted(keys, lo_q, side="left")
    hi = np.searchsorted(keys, hi_q, side="right")
    has_neighbour = (hi > lo).astype(np.float64)
    # Per-row fraction, then average across eligible rows (nonzero rows with
    # a successor row).
    per_row_hits = np.bincount(rows, weights=has_neighbour,
                               minlength=mat.n_rows)
    eligible = (lengths > 0) & (
        np.arange(mat.n_rows) < mat.n_rows - 1
    )
    if not np.any(eligible):
        return 0.0
    frac = per_row_hits[eligible] / lengths[eligible]
    return float(frac.mean())


def scaled_bandwidth(mat: CSRMatrix) -> float:
    """Average per-row column extent, scaled by the column count ([0, 1]).

    This is the generator's internal ``bw_scaled`` knob measured back from a
    matrix: ``mean over non-empty rows of (max_col - min_col + 1) / n_cols``.
    """
    if mat.nnz == 0 or mat.n_cols == 0:
        return 0.0
    lengths = mat.row_lengths
    nonempty = lengths > 0
    # First/last stored column per row: CSR keeps columns sorted in rows.
    starts = mat.indptr[:-1][nonempty]
    ends = mat.indptr[1:][nonempty] - 1
    extent = (
        mat.indices[ends].astype(np.float64)
        - mat.indices[starts].astype(np.float64)
        + 1.0
    )
    return float((extent / mat.n_cols).mean())


def extract_features(mat: CSRMatrix) -> Features:
    """Compute the complete :class:`Features` vector of ``mat``."""
    lengths = mat.row_lengths
    nnz = mat.nnz
    n_rows = mat.n_rows
    avg = nnz / n_rows if n_rows else 0.0
    return Features(
        mem_footprint_mb=mat.memory_mb(),
        avg_nnz_per_row=float(avg),
        skew_coeff=skew_coefficient(lengths),
        cross_row_similarity=cross_row_similarity(mat),
        avg_num_neighbours=avg_num_neighbours(mat),
        n_rows=n_rows,
        n_cols=mat.n_cols,
        nnz=nnz,
        density=mat.density,
        std_nnz_per_row=float(lengths.std()) if n_rows else 0.0,
        max_nnz_per_row=int(lengths.max()) if n_rows else 0,
        min_nnz_per_row=int(lengths.min()) if n_rows else 0,
        empty_row_fraction=(
            float(np.count_nonzero(lengths == 0) / n_rows) if n_rows else 0.0
        ),
        bandwidth_scaled=scaled_bandwidth(mat),
    )


# Thresholds splitting each regularity sub-feature range into three equal
# sub-ranges, as in Fig 6 / Table III ("S", "M", "L"; Small = irregular).
_SIM_EDGES = (1.0 / 3.0, 2.0 / 3.0)  # cross_row_similarity in [0, 1]
_NEIGH_EDGES = (2.0 / 3.0, 4.0 / 3.0)  # avg_num_neighbours in [0, 2]


def regularity_class(features: "Features") -> str:
    """Two-letter S/M/L label for (neighbours, similarity), as in Table III.

    The first letter classifies ``avg_num_neighbours``, the second
    ``cross_row_similarity``.  "S" (small) implies an irregular matrix.
    """

    def _cls(value: float, edges) -> str:
        if value < edges[0]:
            return "S"
        if value < edges[1]:
            return "M"
        return "L"

    return _cls(features.avg_num_neighbours, _NEIGH_EDGES) + _cls(
        features.cross_row_similarity, _SIM_EDGES
    )
