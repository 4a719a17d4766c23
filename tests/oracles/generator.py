"""Reference Listing-1 generator: the per-element sequential engine.

Before the ``rowwise`` engine batched every row's fresh placements into
one NumPy pass, it built each row element by element: duplicate runs of
the previous row, then place seeds one at a time inside the bandwidth
window and extend each into a run while a dice roll succeeds.  This is
that engine, unchanged, as the statistical comparand of the vectorised
one (the two draw randomness differently, so they agree on realised
features, not bit for bit):

* :func:`_rowwise_baseline_structure` — the structure pass,
  ``(indptr, indices)``;
* :func:`rowwise_baseline_generation` — the full matrix, with the
  signature of :func:`~repro.core.generator.artificial_matrix_generation`
  minus ``method``.

Parameter checks, the RNG and the row-length profile come from the
production ``_generation_prologue``, and the placement windows from
``_row_windows``, exactly as the engine used them.
"""

from typing import Optional

import numpy as np

from repro.core.generator import (
    _P_MAX, _generation_prologue, _row_windows,
)
from repro.core.matrix import CSRMatrix


def _rowwise_baseline_structure(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    rng: np.random.Generator,
):
    """The per-element sequential engine (structure pass)."""
    p_run = min(avg_num_neigh / 2.0, _P_MAX)
    start, width = _row_windows(n_rows, n_cols, lengths, bw_scaled, rng)

    all_cols = []
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    prev_cols = np.zeros(0, dtype=np.int64)
    for i in range(n_rows):
        length = int(lengths[i])
        if length == 0:
            prev_cols = np.zeros(0, dtype=np.int64)
            indptr[i + 1] = indptr[i]
            continue
        # Step 1: duplicate columns from the previous row (cross-row
        # similarity).  Whole runs of adjacent columns are copied together
        # so duplication preserves the neighbour clustering of the parent
        # row; each run survives with probability ``cross_row_sim``.
        cols = set()
        if len(prev_cols) and cross_row_sim > 0:
            boundaries = np.concatenate(
                ([True], np.diff(prev_cols) > 1)
            )
            run_ids = np.cumsum(boundaries) - 1
            n_runs = run_ids[-1] + 1
            keep = rng.random(n_runs) < cross_row_sim
            dup = prev_cols[keep[run_ids]][:length]
            cols.update(int(c) for c in dup)
        # Step 2: random placement in the bandwidth window, extending each
        # placement into a run of adjacent neighbours.
        lo, hi = int(start[i]), int(start[i] + width[i])
        guard = 0
        while len(cols) < length and guard < 20 * length + 50:
            c = int(rng.integers(lo, hi))
            cols.add(c)
            guard += 1
            # Neighbour clustering: keep extending right while the dice
            # roll succeeds.
            while (
                len(cols) < length
                and c + 1 < n_cols
                and rng.random() < p_run
            ):
                c += 1
                cols.add(c)
                guard += 1
        if len(cols) < length:  # extremely dense row: fill deterministically
            missing = length - len(cols)
            pool = np.setdiff1d(
                np.arange(n_cols, dtype=np.int64),
                np.fromiter(cols, dtype=np.int64, count=len(cols)),
                assume_unique=True,
            )
            cols.update(int(c) for c in pool[:missing])
        row_cols = np.sort(np.fromiter(cols, dtype=np.int64, count=len(cols)))
        all_cols.append(row_cols)
        indptr[i + 1] = indptr[i] + len(row_cols)
        prev_cols = row_cols

    indices = (
        np.concatenate(all_cols) if all_cols else np.zeros(0, dtype=np.int64)
    )
    return indptr, indices


def rowwise_baseline_generation(
    nr_rows: int,
    nr_cols: int,
    avg_nz_row: float,
    std_nz_row: Optional[float] = None,
    distribution: str = "normal",
    skew_coeff: float = 0.0,
    bw_scaled: float = 0.3,
    cross_row_sim: float = 0.5,
    avg_num_neigh: float = 1.0,
    seed: Optional[int] = None,
) -> CSRMatrix:
    """What ``artificial_matrix_generation(..., method="rowwise-baseline")``
    returned: the structure pass, then values drawn last."""
    rng, lengths = _generation_prologue(
        nr_rows, nr_cols, avg_nz_row, std_nz_row, distribution, skew_coeff,
        bw_scaled, cross_row_sim, avg_num_neigh, seed,
    )
    indptr, indices = _rowwise_baseline_structure(
        nr_rows, nr_cols, lengths, bw_scaled, cross_row_sim, avg_num_neigh,
        rng,
    )
    data = rng.uniform(0.1, 1.0, len(indices))
    return CSRMatrix(nr_rows, nr_cols, indptr, indices, data)
