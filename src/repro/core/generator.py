"""Artificial sparse-matrix generator (Section III-B, Listing 1).

Two interchangeable engines produce matrices with prescribed features:

``rowwise``
    A faithful transcription of the paper's Listing-1 algorithm: rows are
    built sequentially, duplicating columns from the previous row with
    probability ``cross_row_sim``, placing the rest uniformly inside a
    bandwidth-confined window and extending each placement into a run of
    adjacent columns with probability derived from ``avg_num_neigh``.

``chain``
    A fully vectorised statistical equivalent.  Nonzeros are generated as
    rectangular *chains*: a seed at ``(r, c)`` spans a horizontal run of
    ``m ~ Geometric(1 - p)`` columns (``p = avg_num_neigh / 2``) persisting
    vertically for ``h`` rows, where per-row survival probabilities are
    tuned so the expected per-row nonzero count tracks the target row-length
    profile exactly.  Element-averaged same-row neighbours equal ``2p`` and
    the expected fraction of elements with a next-row neighbour equals the
    survival probability, i.e. ``cross_row_sim`` — the same statistics the
    sequential algorithm produces, at a fraction of the cost.

Both return :class:`~repro.core.matrix.CSRMatrix`.  The row-length profile
(normal body + exponentially decaying head for skew) is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .matrix import CSRMatrix, CSRStructBatch, INDEX_DTYPE, csr_from_coo

__all__ = [
    "MatrixSpec",
    "artificial_matrix_generation",
    "artificial_structure_generation",
    "generate_matrix",
    "row_length_profile",
    "structure_batch",
]

# Run-length / chain-height probabilities are clipped here to keep the
# geometric tails finite.
_P_MAX = 0.97


# ---------------------------------------------------------------------------
# Row-length profile
# ---------------------------------------------------------------------------
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
    is recomputed so the combined average stays on target.

    Row 0 is pinned to at least ``avg * (1 + skew)`` (capped at
    ``n_cols``), and the rounding residual is spread over rows
    ``1..n_rows-1`` within ``[0, min(n_cols, avg * (1 + skew))]``.  So
    the returned integer array sums exactly to ``round(avg_nz_row *
    n_rows)`` whenever those rows have the headroom for the residual;
    otherwise (one row, or every other row at its bound) it stops short.
    At most two profile-sized arrays are alive at once, besides those
    ``Generator.choice`` makes for a residual above 2% of the rows.
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

    np.clip(body, 0.0, float(n_cols), out=body)

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
        # Past row n * ln(2 * MAX) / C the head is below 0.5 and zeroed,
        # so exp runs on the first k rows only.  The mean stays over all
        # n_rows: pairwise summation of the prefix alone groups
        # differently and is not bit-identical.
        k = min(n_rows,
                int(n_rows * math.log(2.0 * target_max) / c_const) + 2)
        head = np.zeros(n_rows)
        top = head[:k]
        i = np.arange(k, dtype=np.float64)
        top[:] = target_max * np.exp(-c_const * i / n_rows)
        top[top < 0.5] = 0.0
        # Recompute body mean so combined average hits the target.
        head_mean = head.mean()
        body_scale_target = max(avg - head_mean, 0.0)
        body_mean = body.mean()
        if body_mean > 0:
            body *= body_scale_target / body_mean
        body[:k] += top
        del head, top

    np.clip(np.round(body, out=body), 0, n_cols, out=body)
    lengths = body.astype(np.int64)
    del body

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
            if step > 0:
                stuck = lengths[1:] >= min(n_cols, target_max)
            else:
                stuck = lengths[1:] <= 0
            n_stuck = int(np.count_nonzero(stuck))
            n_cand = n_rows - 1 - n_stuck
            if n_cand == 0:
                break
            take = min(remaining, n_cand)
            # Generator.choice draws by population size alone: positions
            # among the movable rows are the draw an array of them gets.
            # They map to rows through the smaller side of the mask.
            pos = rng.choice(n_cand, size=take, replace=False)
            if n_stuck <= n_cand:
                # Stuck rows with at most pos movable rows before them
                # precede the pos-th movable row.
                before = np.flatnonzero(stuck)
                before -= np.arange(n_stuck)
                rows = pos + np.searchsorted(before, pos, "right") + 1
            else:
                rows = np.flatnonzero(~stuck)[pos] + 1
            lengths[rows] += step
            remaining -= take
    return lengths


def _stochastic_round(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round each entry up with probability equal to its fractional part."""
    base = np.floor(x)
    frac = x - base
    return (base + (rng.random(len(x)) < frac)).astype(np.int64)


def _row_windows(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    rng: np.random.Generator,
):
    """Per-row placement window ``[start, start + width)`` of the target
    scaled bandwidth, always wide enough to hold the row.

    Overlong rows get a window of 4x their length so random placement does
    not collide away a large fraction of their nonzeros (collisions are
    deduplicated, which would silently erode the skew target).
    """
    width = np.maximum(
        4 * lengths, max(1, int(round(bw_scaled * n_cols)))
    )
    width = np.minimum(width, n_cols)
    start = (rng.random(n_rows) * (n_cols - width + 1)).astype(np.int64)
    return start, width


# ---------------------------------------------------------------------------
# Row-wise engine (paper Listing 1)
# ---------------------------------------------------------------------------
def _fresh_candidates(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    start: np.ndarray,
    width: np.ndarray,
    p_run: float,
    rng: np.random.Generator,
):
    """Pre-generate every row's fresh-placement candidates in one batch.

    For each row a budget of ``length + length // 4 + 6`` candidate
    columns (collision headroom over the quota) is materialised in
    *placement order*: uniformly drawn seeds inside the row's bandwidth
    window, each extended rightwards into a geometric run
    (``P(len = k) = p^(k-1) (1-p)``, the dice-roll extension of Listing 1).
    Returns ``(cand, offsets)`` where ``cand[offsets[i]:offsets[i+1]]`` are
    row ``i``'s candidates; budgets are exact, so the row loop only slices.
    """
    caps = np.where(lengths > 0, lengths + (lengths >> 2) + 6, 0)
    # One seed per candidate element: runs are >= 1, so each row's seeds
    # always cover its budget and trimming stops exactly at the cap.
    seed_off = np.concatenate(([0], np.cumsum(caps)))
    n_seeds = int(seed_off[-1])
    if n_seeds == 0:
        return np.zeros(0, dtype=np.int64), seed_off
    # One pass expands (start, width, cap) to per-seed values together.
    per_seed = np.repeat(np.stack((start, width, caps)), caps, axis=1)
    seeds = per_seed[0] + (rng.random(n_seeds) * per_seed[1]).astype(
        np.int64
    )
    if p_run > 0:
        runs = rng.geometric(1.0 - p_run, n_seeds).astype(np.int64)
    else:
        runs = np.ones(n_seeds, dtype=np.int64)
    # Trim each row's run sequence so its element count equals the budget.
    csum = np.concatenate(([0], np.cumsum(runs)))
    before = csum[:-1] - np.repeat(csum[seed_off[:-1]], caps)
    cap_of_seed = per_seed[2]
    keep = before < cap_of_seed
    trimmed = np.minimum(runs, cap_of_seed - before)[keep]
    n_elems = int(trimmed.sum())
    off_in_run = np.arange(n_elems, dtype=np.int64) - np.repeat(
        np.cumsum(trimmed) - trimmed, trimmed
    )
    cand = np.repeat(seeds[keep], trimmed) + off_in_run
    # Runs stop at the matrix edge; clamping (dedup removes repeats) keeps
    # per-row budgets exact.
    np.minimum(cand, n_cols - 1, out=cand)
    return cand, seed_off


def _rowwise_structure(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    rng: np.random.Generator,
):
    """Vectorised Listing-1 engine (structure pass: ``(indptr, indices)``).

    Rows are still built sequentially (cross-row run duplication is a true
    loop-carried dependency), but all per-element work is batched: fresh
    candidates for *every* row — window placement plus geometric
    neighbour-run extension — are materialised up-front in one vectorised
    pass (:func:`_fresh_candidates`), and the row loop reduces to run
    duplication from the previous row plus a dedup-and-trim.  Candidates
    carry their placement order, and rows are truncated to their quota at
    first occurrence, which reproduces the sequential algorithm's
    stop-at-quota semantics.
    """
    p_run = min(avg_num_neigh / 2.0, _P_MAX)
    start, width = _row_windows(n_rows, n_cols, lengths, bw_scaled, rng)
    total = int(lengths.sum())
    indptr = [0]
    if total == 0:
        return (
            np.zeros(n_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )

    cand_all, cand_off = _fresh_candidates(
        n_rows, n_cols, lengths, start, width, p_run, rng
    )
    # Uniform draws for the per-run keep decisions of the duplication step,
    # consumed through an inline cursor (refilled in bulk when exhausted).
    keep_buf = rng.random(total // 2 + 64)
    keep_pos = 0

    lengths_l = lengths.tolist()
    off_l = cand_off.tolist()
    start_l = start.tolist()
    width_l = width.tolist()
    empty = np.zeros(0, dtype=np.int64)
    np_sort, np_concat = np.sort, np.concatenate
    np_cnz = np.count_nonzero
    all_cols = []
    nnz = 0
    prev_cols = empty
    # Adjacent differences of the previous row, reused between the dedup
    # check that produced it and this row's run detection (valid whenever
    # the previous row came out of a collision-free merge).
    prev_diff = None
    q_sim = cross_row_sim
    for i in range(n_rows):
        length = lengths_l[i]
        if length == 0:
            prev_cols = empty
            prev_diff = None
            indptr.append(nnz)
            continue
        # Step 1: duplicate whole runs of adjacent columns from the
        # previous row; each run survives with probability ``cross_row_sim``
        # so duplication preserves the parent row's neighbour clustering.
        n_prev = len(prev_cols)
        if n_prev and q_sim > 0:
            gaps = (
                prev_diff > 1
                if prev_diff is not None
                else prev_cols[1:] - prev_cols[:-1] > 1
            )
            run_ids = np.empty(n_prev, dtype=np.int64)
            run_ids[0] = 0
            if n_prev > 1:
                np.cumsum(gaps, out=run_ids[1:])
            n_runs = int(run_ids[-1]) + 1
            if keep_pos + n_runs > len(keep_buf):
                keep_buf = rng.random(max(2 * len(keep_buf), 2 * n_runs))
                keep_pos = 0
            keep = keep_buf[keep_pos:keep_pos + n_runs] < q_sim
            keep_pos += n_runs
            cur = prev_cols[keep[run_ids]][:length]
        else:
            cur = empty
        # Step 2: top the row up to its quota from the pre-generated
        # placement stream.  Each round consumes exactly the number of
        # missing elements — the prefix-of-stream-until-quota semantics of
        # the sequential algorithm — so deduplication can never overshoot
        # and is a plain sort + adjacent-compare.
        need = length - len(cur)
        lo, hi = off_l[i], off_l[i + 1]
        extra_rounds = 0
        cur_diff = None
        while need > 0:
            if lo < hi:
                # Clamp to the row's own budget: spilling into the next
                # row's pool would consume seeds drawn for *its* window.
                cand = cand_all[lo:min(lo + need, hi)]
                lo += need
            elif extra_rounds < 8:
                # Budget exhausted (near-dense row in a tight window):
                # draw straight from the window, like the reference guard.
                extra_rounds += 1
                cand = start_l[i] + (
                    rng.random(2 * need) * width_l[i]
                ).astype(np.int64)
            else:
                break
            # ``cand`` is either a consumed-once view into the stream or a
            # fresh draw, so sorting in place is safe and avoids a copy.
            s = np_concat((cur, cand)) if len(cur) else cand
            s.sort()
            d = s[1:] - s[:-1]
            nu = np_cnz(d) + 1
            if nu != len(s):
                cur = s[np_concat(([True], d != 0))]
                cur_diff = None
            else:
                cur = s
                cur_diff = d
            need = length - nu
        if need > 0:  # extremely dense row: fill deterministically
            pool = np.setdiff1d(
                np.arange(n_cols, dtype=np.int64), cur, assume_unique=True
            )
            cur = np_sort(np_concat((cur, pool[:need])))
            cur_diff = None
        all_cols.append(cur)
        nnz += len(cur)
        indptr.append(nnz)
        prev_cols = cur
        prev_diff = cur_diff

    indices = (
        np.concatenate(all_cols) if all_cols else np.zeros(0, dtype=np.int64)
    )
    return np.asarray(indptr, dtype=np.int64), indices


def _generate_rowwise(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    rng: np.random.Generator,
) -> CSRMatrix:
    """Vectorised Listing-1 engine (full matrix: structure + values)."""
    indptr, indices = _rowwise_structure(
        n_rows, n_cols, lengths, bw_scaled, cross_row_sim, avg_num_neigh,
        rng,
    )
    # Values are drawn last, after the structure is complete, so the
    # structure pass consumes an identical RNG stream.
    data = rng.uniform(0.1, 1.0, len(indices))
    return CSRMatrix(n_rows, n_cols, indptr, indices, data)


# ---------------------------------------------------------------------------
# Chain engine (vectorised)
# ---------------------------------------------------------------------------
def _chain_coo(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    rng: np.random.Generator,
):
    p_run = min(max(avg_num_neigh / 2.0, 0.0), _P_MAX)
    q_sim = min(max(cross_row_sim, 0.0), _P_MAX)
    mean_run = 1.0 / (1.0 - p_run)

    # Target alive-seed count per row.
    seeds_target = lengths / mean_run
    # Per-row survival probability: base q, reduced where the row profile
    # shrinks faster than q (e.g. the exponential skew head) so expected
    # occupancy tracks the profile.
    s_cur = seeds_target[:-1]
    s_next = seeds_target[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s_cur > 0, s_next / np.maximum(s_cur, 1e-300), 0.0)
    q_row = np.minimum(q_sim, ratio)  # survival from row i to i+1
    q_row = np.clip(q_row, 0.0, _P_MAX)

    births = np.empty(n_rows, dtype=np.float64)
    births[0] = seeds_target[0]
    births[1:] = np.maximum(s_next - q_row * s_cur, 0.0)
    n_births = _stochastic_round(births, rng)
    total = int(n_births.sum())
    if total == 0:
        return None

    birth_row = np.repeat(np.arange(n_rows, dtype=np.int64), n_births)

    # Chain heights by inverse-transform over cumulative log-survival, which
    # honours the per-row survival schedule in one vectorised pass.
    log_q = np.concatenate(
        ([0.0], np.cumsum(np.log(np.maximum(q_row, 1e-300))))
    )
    # Height h: chain born at r is alive at rows r..r+h-1; survives step k
    # with prob prod(q_row[r..r+k-1]) = exp(log_q[r+k] - log_q[r]).
    u = rng.random(total)
    thresholds = log_q[birth_row] + np.log(np.maximum(u, 1e-300))
    # first k >= 1 with log_q[r + k] < threshold  (log_q non-increasing)
    ends = np.searchsorted(-log_q, -thresholds, side="left")
    heights = np.maximum(ends - birth_row, 1)
    heights = np.minimum(heights, n_rows - birth_row)

    # Horizontal run lengths.
    if p_run > 0:
        runs = rng.geometric(1.0 - p_run, total).astype(np.int64)
    else:
        runs = np.ones(total, dtype=np.int64)
    runs = np.minimum(runs, max(1, int(math.ceil(mean_run * 6))))

    # Start column inside the birth row's bandwidth window.
    start, width = _row_windows(n_rows, n_cols, lengths, bw_scaled, rng)
    w = width[birth_row]
    runs = np.minimum(runs, w)
    c0 = start[birth_row] + (rng.random(total) * (w - runs + 1)).astype(
        np.int64
    )

    # Materialise: each chain -> heights[k] * runs[k] elements.
    per_chain = heights * runs
    n_elems = int(per_chain.sum())
    chain_of_elem = np.repeat(np.arange(total, dtype=np.int64), per_chain)
    # Intra-chain element offsets 0..h*m-1 -> (row offset, col offset).
    elem_idx = np.arange(n_elems, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(per_chain)[:-1])), per_chain
    )
    m_of_elem = runs[chain_of_elem]
    row_off = elem_idx // m_of_elem
    col_off = elem_idx - row_off * m_of_elem
    rows = birth_row[chain_of_elem] + row_off
    cols = c0[chain_of_elem] + col_off
    return rows, cols


def _generate_chain(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    rng: np.random.Generator,
) -> CSRMatrix:
    """Chain engine (full matrix): COO chains -> values -> sorted dedup."""
    coo = _chain_coo(
        n_rows, n_cols, lengths, bw_scaled, cross_row_sim, avg_num_neigh,
        rng,
    )
    if coo is None:
        return CSRMatrix(
            n_rows,
            n_cols,
            np.zeros(n_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
    rows, cols = coo
    vals = rng.uniform(0.1, 1.0, len(rows))
    return csr_from_coo(n_rows, n_cols, rows, cols, vals, sum_duplicates=True)


def _chain_structure(
    n_rows: int,
    n_cols: int,
    lengths: np.ndarray,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    rng: np.random.Generator,
):
    """Chain engine (structure pass): COO chains -> key-sort dedup.

    Sorting the flattened ``row * n_cols + col`` keys and dropping adjacent
    duplicates produces exactly the sorted unique (row, col) set that
    :func:`~repro.core.matrix.csr_from_coo` emits, without carrying values
    through the lexsort — the fused agreement suite pins the equality.
    """
    coo = _chain_coo(
        n_rows, n_cols, lengths, bw_scaled, cross_row_sim, avg_num_neigh,
        rng,
    )
    if coo is None:
        return (
            np.zeros(n_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    rows, cols = coo
    keys = rows * np.int64(n_cols) + cols
    keys.sort()
    uniq = keys[np.concatenate(([True], np.diff(keys) != 0))]
    indices = uniq % n_cols
    counts = np.bincount(uniq // n_cols, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
_FULL_ENGINES = {
    "rowwise": _generate_rowwise,
    "chain": _generate_chain,
}
_STRUCTURE_ENGINES = {
    "rowwise": _rowwise_structure,
    "chain": _chain_structure,
}


def _generation_prologue(
    nr_rows: int,
    nr_cols: int,
    avg_nz_row: float,
    std_nz_row: Optional[float],
    distribution: str,
    skew_coeff: float,
    bw_scaled: float,
    cross_row_sim: float,
    avg_num_neigh: float,
    seed: Optional[int],
):
    """Shared parameter validation + RNG + row profile for both entries."""
    if nr_rows < 0 or nr_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if not 0.0 <= cross_row_sim <= 1.0:
        raise ValueError("cross_row_sim must be in [0, 1]")
    if not 0.0 <= avg_num_neigh <= 2.0:
        raise ValueError("avg_num_neigh must be in [0, 2]")
    if not 0.0 < bw_scaled <= 1.0:
        raise ValueError("bw_scaled must be in (0, 1]")
    if skew_coeff < 0:
        raise ValueError("skew_coeff must be non-negative")
    rng = np.random.default_rng(seed)
    if std_nz_row is None:
        std_nz_row = 0.1 * avg_nz_row
    lengths = row_length_profile(
        nr_rows, nr_cols, avg_nz_row, std_nz_row, skew_coeff, rng,
        distribution,
    )
    return rng, lengths


def artificial_matrix_generation(
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
    method: str = "chain",
) -> CSRMatrix:
    """Generate an artificial sparse matrix (paper Listing 1 signature).

    Parameters mirror the paper's generator: matrix dimensions, the per-row
    nonzero distribution (``avg_nz_row``, ``std_nz_row``, ``distribution``),
    the imbalance knob ``skew_coeff``, the scaled matrix bandwidth
    ``bw_scaled`` (fraction of ``nr_cols``), and the two regularity knobs
    ``cross_row_sim`` (temporal locality, [0, 1]) and ``avg_num_neigh``
    (spatial locality, [0, 2]).

    ``method`` selects the engine: ``"rowwise"`` (batched-NumPy Listing-1
    algorithm) or ``"chain"`` (vectorised statistical equivalent, the
    default — orders of magnitude faster for large matrices).
    """
    if method not in _FULL_ENGINES:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{sorted(_FULL_ENGINES)}"
        )
    rng, lengths = _generation_prologue(
        nr_rows, nr_cols, avg_nz_row, std_nz_row, distribution, skew_coeff,
        bw_scaled, cross_row_sim, avg_num_neigh, seed,
    )
    return _FULL_ENGINES[method](
        nr_rows, nr_cols, lengths, bw_scaled, cross_row_sim,
        avg_num_neigh, rng,
    )


def artificial_structure_generation(
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
    method: str = "chain",
):
    """Structure-only twin of :func:`artificial_matrix_generation`.

    Returns ``(indptr, indices)`` — exactly the structure arrays of the
    matrix the full generator would produce for the same parameters.  Every
    engine draws element values *last*, after the structure is final, so
    skipping the value draw consumes an identical RNG stream and the
    structure is bit-identical (the fused agreement suite enforces this).
    The fused cold path uses this entry to skip value allocation entirely.
    """
    if method not in _STRUCTURE_ENGINES:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{sorted(_STRUCTURE_ENGINES)}"
        )
    rng, lengths = _generation_prologue(
        nr_rows, nr_cols, avg_nz_row, std_nz_row, distribution, skew_coeff,
        bw_scaled, cross_row_sim, avg_num_neigh, seed,
    )
    return _STRUCTURE_ENGINES[method](
        nr_rows, nr_cols, lengths, bw_scaled, cross_row_sim,
        avg_num_neigh, rng,
    )


# CSR cost model used to translate footprint <-> row count (4-byte indices,
# 8-byte values: 12 bytes per nonzero + 4 bytes per row pointer).
_BYTES_PER_NNZ = 12.0
_BYTES_PER_ROW = 4.0


@dataclass(frozen=True)
class MatrixSpec:
    """Declarative description of an artificial matrix.

    A spec fixes the paper's feature coordinates; :meth:`build` materialises
    the matrix and :meth:`representative` returns a down-scaled spec whose
    measured structure statistics stand in for the full-size matrix (see
    ``docs/cold_path.md``, "Representatives").
    """

    n_rows: int
    n_cols: int
    avg_nnz_per_row: float
    skew_coeff: float = 0.0
    cross_row_sim: float = 0.5
    avg_num_neigh: float = 1.0
    bw_scaled: float = 0.3
    std_ratio: float = 0.1  # std_nz_row = std_ratio * avg
    distribution: str = "normal"
    seed: int = 0
    method: str = "chain"

    @property
    def nnz_estimate(self) -> int:
        return int(round(self.n_rows * self.avg_nnz_per_row))

    @property
    def mem_footprint_mb(self) -> float:
        """Declared CSR footprint of the *full-size* matrix in MiB."""
        bytes_ = (
            self.nnz_estimate * _BYTES_PER_NNZ
            + (self.n_rows + 1) * _BYTES_PER_ROW
        )
        return bytes_ / (1024.0 * 1024.0)

    @classmethod
    def from_footprint(
        cls,
        mem_footprint_mb: float,
        avg_nnz_per_row: float,
        square: bool = True,
        **kwargs,
    ) -> "MatrixSpec":
        """Derive row count from a target CSR footprint (paper f1)."""
        if mem_footprint_mb <= 0:
            raise ValueError("mem_footprint_mb must be positive")
        bytes_ = mem_footprint_mb * 1024.0 * 1024.0
        n_rows = max(
            1,
            int(
                round(
                    bytes_
                    / (_BYTES_PER_NNZ * avg_nnz_per_row + _BYTES_PER_ROW)
                )
            ),
        )
        n_cols = n_rows if square else kwargs.pop("n_cols", n_rows)
        return cls(
            n_rows=n_rows,
            n_cols=n_cols,
            avg_nnz_per_row=avg_nnz_per_row,
            **kwargs,
        )

    def representative(self, max_nnz: int = 200_000) -> "MatrixSpec":
        """Down-scaled spec that stands for this one inside its bounds.

        Only the row and column counts change; the row-length
        distribution, skew, regularity and scaled bandwidth are the
        declared ones.  Both counts are sized around the declared longest
        row, ``min(n_cols, round(avg * (1 + skew)))``, the row
        :func:`row_length_profile` pins, and neither exceeds the declared
        matrix:

        * rows shrink until the estimated nnz fits ``max_nnz``, but keep
          a floor of 256 (well-sampled statistics) and enough rows that
          ``avg * rows`` holds the longest row, so a representative may
          exceed ``max_nnz`` when its longest row does;
        * columns shrink with the rows, but keep the 4x-length placement
          window :func:`_row_windows` gives the longest row at full size
          and a window density of at most 2.5% (denser windows make
          random placements accidentally adjacent and inflate the
          measured locality of irregular matrices).

        See ``docs/cold_path.md`` ("Representatives") for what this rule
        costs and the dense-head specs it still misses.
        """
        if self.nnz_estimate <= max_nnz:
            return self
        avg = self.avg_nnz_per_row
        longest = min(self.n_cols, int(round(avg * (1.0 + self.skew_coeff))))
        new_rows = min(self.n_rows, max(
            256,
            int(math.ceil(longest / avg)),
            int(round(self.n_rows * max_nnz / self.nnz_estimate)),
        ))
        new_cols = min(self.n_cols, max(
            4 * longest,
            int(math.ceil(40.0 * avg / self.bw_scaled)),
            int(round(self.n_cols * new_rows / self.n_rows)),
        ))
        return replace(self, n_rows=new_rows, n_cols=new_cols)

    def build(self, max_nnz: Optional[int] = None) -> CSRMatrix:
        """Materialise the matrix (optionally via a down-scaled spec)."""
        spec = self if max_nnz is None else self.representative(max_nnz)
        return artificial_matrix_generation(
            spec.n_rows,
            spec.n_cols,
            spec.avg_nnz_per_row,
            std_nz_row=spec.std_ratio * spec.avg_nnz_per_row,
            distribution=spec.distribution,
            skew_coeff=spec.skew_coeff,
            bw_scaled=spec.bw_scaled,
            cross_row_sim=spec.cross_row_sim,
            avg_num_neigh=spec.avg_num_neigh,
            seed=spec.seed,
            method=spec.method,
        )


def generate_matrix(spec: MatrixSpec, max_nnz: Optional[int] = None):
    """Convenience wrapper: ``spec.build(max_nnz)``."""
    return spec.build(max_nnz=max_nnz)


def structure_batch(specs, max_nnz: Optional[int] = None) -> CSRStructBatch:
    """Chunked structure generation for the fused cold path.

    Generates the representative CSR *structure* (``indptr``/``indices``)
    for every spec in ``specs`` — each down-scaled through
    :meth:`MatrixSpec.representative` exactly as :meth:`MatrixSpec.build`
    would — and stacks the results into one flat
    :class:`~repro.core.matrix.CSRStructBatch`.  Per-spec RNG streams are
    pinned by ``spec.seed``, so each chunk entry is bit-identical to the
    structure of the matrix the instance path materialises.
    """
    specs = list(specs)
    n = len(specs)
    n_rows = np.zeros(n, dtype=np.int64)
    n_cols = np.zeros(n, dtype=np.int64)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    nnz_offsets = np.zeros(n + 1, dtype=np.int64)
    lengths_parts = []
    indices_parts = []
    for k, spec in enumerate(specs):
        rep = spec if max_nnz is None else spec.representative(max_nnz)
        indptr, indices = artificial_structure_generation(
            rep.n_rows,
            rep.n_cols,
            rep.avg_nnz_per_row,
            std_nz_row=rep.std_ratio * rep.avg_nnz_per_row,
            distribution=rep.distribution,
            skew_coeff=rep.skew_coeff,
            bw_scaled=rep.bw_scaled,
            cross_row_sim=rep.cross_row_sim,
            avg_num_neigh=rep.avg_num_neigh,
            seed=rep.seed,
            method=rep.method,
        )
        n_rows[k] = rep.n_rows
        n_cols[k] = rep.n_cols
        row_offsets[k + 1] = row_offsets[k] + rep.n_rows
        nnz_offsets[k + 1] = nnz_offsets[k] + len(indices)
        lengths_parts.append(np.diff(indptr))
        indices_parts.append(indices.astype(INDEX_DTYPE, copy=False))
    return CSRStructBatch(
        n_rows=n_rows,
        n_cols=n_cols,
        row_lengths=(
            np.concatenate(lengths_parts)
            if lengths_parts else np.zeros(0, dtype=np.int64)
        ),
        row_offsets=row_offsets,
        indices=(
            np.concatenate(indices_parts)
            if indices_parts else np.zeros(0, dtype=INDEX_DTYPE)
        ),
        nnz_offsets=nnz_offsets,
    )
