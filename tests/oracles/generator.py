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

:func:`row_length_profile` is the row-length profile as it was before
the production one evaluated its exponential head only on the rows it
can reach and worked in place: ``exp`` over every row, out-of-place
clip/rescale/round, and residual candidates masked out of an
``arange``.  Production must equal it bit for bit — values, dtype and
the RNG state it leaves — so it is the comparand of every change to
that function.
"""

import math
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


def row_length_profile(
    n_rows: int,
    n_cols: int,
    avg_nz_row: float,
    std_nz_row: float,
    skew_coeff: float,
    rng: np.random.Generator,
    distribution: str = "normal",
) -> np.ndarray:
    """Per-row nonzero targets with the requested average and skew.

    The body of the matrix follows ``distribution`` around the (adjusted)
    mean; if ``skew_coeff`` exceeds what the body would naturally produce,
    an exponentially decaying head ``MAX * exp(-C * i / n_rows)`` is
    superimposed on the first rows (paper Section III-B) and the body mean
    is recomputed so the combined average stays on target.  The returned
    integer array sums exactly to ``round(avg_nz_row * n_rows)`` and its
    maximum is pinned to ``avg * (1 + skew)`` (both capped at ``n_cols``).
    """
    if n_rows <= 0:
        return np.zeros(0, dtype=np.int64)
    avg = float(avg_nz_row)
    if avg <= 0:
        return np.zeros(n_rows, dtype=np.int64)

    target_total = int(round(avg * n_rows))
    target_max = int(min(n_cols, max(1, round(avg * (1.0 + skew_coeff)))))

    if distribution == "normal":
        body = rng.normal(avg, std_nz_row, n_rows)
    elif distribution == "uniform":
        half = std_nz_row * math.sqrt(3.0)
        body = rng.uniform(avg - half, avg + half, n_rows)
    elif distribution == "gamma":
        # Gamma with matching mean/std; falls back to constant when std=0.
        if std_nz_row > 0:
            shape = (avg / std_nz_row) ** 2
            scale = std_nz_row**2 / avg
            body = rng.gamma(shape, scale, n_rows)
        else:
            body = np.full(n_rows, avg)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")

    body = np.clip(body, 0.0, float(n_cols))

    # Natural skew of the body; add the exponential head only when the
    # requested skew exceeds it.
    natural_max = avg + 3.0 * std_nz_row
    if target_max > natural_max:
        # C controls head sharpness: chosen so the head contributes ~10% of
        # the matrix mass (or less for extreme skews).
        head_mass_frac = 0.1
        c_const = max(
            (1.0 + skew_coeff) / head_mass_frac, 10.0
        )
        i = np.arange(n_rows, dtype=np.float64)
        head = target_max * np.exp(-c_const * i / n_rows)
        head[head < 0.5] = 0.0
        # Recompute body mean so combined average hits the target.
        head_mean = head.mean()
        body_scale_target = max(avg - head_mean, 0.0)
        if body.mean() > 0:
            body = body * (body_scale_target / body.mean())
        lengths = body + head
    else:
        lengths = body

    lengths = np.clip(np.round(lengths), 0, n_cols).astype(np.int64)

    # Pin the maximum so the realised skew matches the request.
    lengths[0] = max(lengths[0], target_max)
    lengths[0] = min(lengths[0], n_cols)

    # Exact-total adjustment: spread the residual one element at a time over
    # random rows, respecting [0, n_cols] bounds and the pinned maximum.
    diff = target_total - int(lengths.sum())
    if diff != 0 and n_rows > 1:
        step = 1 if diff > 0 else -1
        remaining = abs(diff)
        # Vectorised passes: at most a few, since each pass fixes up to
        # n_rows - 1 units.
        while remaining > 0:
            candidates = np.arange(1, n_rows)
            if step > 0:
                candidates = candidates[lengths[1:] < min(n_cols, target_max)]
            else:
                candidates = candidates[lengths[1:] > 0]
            if len(candidates) == 0:
                break
            take = min(remaining, len(candidates))
            chosen = rng.choice(candidates, size=take, replace=False)
            lengths[chosen] += step
            remaining -= take
    return lengths
