"""Work partitioning and load-imbalance measurement.

Each storage format distributes SpMV work differently (Section II-B); the
imbalance penalty in the device model is *measured* on the actual per-row
nonzero counts rather than estimated from the skew feature.  Every
partitioner returns an :class:`ImbalanceStats` whose ``factor`` is the
ratio of the critical (slowest) worker's load to the mean load — the
multiplicative slowdown of a bulk-synchronous SpMV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImbalanceStats",
    "row_block_partition",
    "nnz_balanced_rows",
    "merge_path_imbalance",
    "warp_per_row",
    "nnz_split",
    "element_balanced",
    "sell_chunk_imbalance",
    "sell_chunk_widths",
    "lockstep_channel_imbalance",
    "imbalance_for_strategy",
    "PARTITION_STRATEGIES",
]


@dataclass(frozen=True)
class ImbalanceStats:
    """Load distribution over workers. ``factor = max / mean`` >= 1."""

    factor: float
    max_load: float
    mean_load: float
    n_workers: int

    @staticmethod
    def from_loads(loads: np.ndarray) -> "ImbalanceStats":
        loads = np.asarray(loads, dtype=np.float64)
        if len(loads) == 0 or loads.sum() == 0:
            return ImbalanceStats(1.0, 0.0, 0.0, max(len(loads), 1))
        mean = loads.mean()
        return ImbalanceStats(
            factor=float(max(loads.max() / mean, 1.0)),
            max_load=float(loads.max()),
            mean_load=float(mean),
            n_workers=len(loads),
        )


def _chunk_sums(
    values: np.ndarray, bounds: np.ndarray, csum: np.ndarray = None
) -> np.ndarray:
    """Sums of ``values`` between consecutive ``bounds`` indices.

    ``csum`` optionally supplies the precomputed ``[0, cumsum(values)]``
    prefix array — integer sums, so sharing it across partitioners is
    exact; the fused cold path computes it once per row profile.
    """
    if csum is None:
        csum = np.concatenate(([0], np.cumsum(values)))
    return csum[bounds[1:]] - csum[bounds[:-1]]


def row_block_partition(
    row_lengths: np.ndarray, n_workers: int, csum: np.ndarray = None
) -> ImbalanceStats:
    """Static contiguous row blocks of equal *row count* (Naive-CSR /
    OpenMP static scheduling).  Skewed matrices hurt: whoever owns the
    heavy rows owns the critical path."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    bounds = np.linspace(0, n_rows, n_workers + 1).astype(np.int64)
    return ImbalanceStats.from_loads(
        _chunk_sums(row_lengths, bounds, csum)
    )


def nnz_balanced_rows(
    row_lengths: np.ndarray, n_workers: int, csum: np.ndarray = None
) -> ImbalanceStats:
    """Contiguous row blocks of ~equal nonzeros, at row granularity
    (Balanced-CSR, inspector-executor libraries).  A single monster row
    still lower-bounds the critical path."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    if csum is None:
        csum = np.concatenate(([0], np.cumsum(row_lengths)))
    targets = np.linspace(0, csum[-1], n_workers + 1)
    bounds = np.searchsorted(csum, targets, side="left")
    bounds[0], bounds[-1] = 0, n_rows
    bounds = np.maximum.accumulate(bounds)
    return ImbalanceStats.from_loads(
        _chunk_sums(row_lengths, bounds, csum)
    )


def merge_path_imbalance(
    row_lengths: np.ndarray, n_workers: int
) -> ImbalanceStats:
    """Merge-path decomposition (Merge-CSR): rows + nonzeros are split into
    equal diagonals, rows may be split mid-row — imbalance is bounded by
    one work item by construction."""
    n_rows = len(row_lengths)
    nnz = int(row_lengths.sum())
    total = n_rows + nnz
    if total == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    per = total / n_workers
    loads = np.full(n_workers, per)
    # Granularity: diagonals are integers.
    loads[:-1] = np.diff(np.linspace(0, total, n_workers + 1).astype(np.int64))[
        : n_workers - 1
    ]
    return ImbalanceStats.from_loads(loads)


def nnz_split(row_lengths: np.ndarray, n_workers: int) -> ImbalanceStats:
    """Row-splitting nnz partition (CSR5 tiles): work is element-balanced
    up to one tile of granularity."""
    nnz = float(row_lengths.sum())
    if nnz == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    per = nnz / n_workers
    # Tile granularity of 512 elements (omega x sigma).
    granule = 512.0
    factor = (np.ceil(per / granule) * granule) / per if per > 0 else 1.0
    return ImbalanceStats(
        factor=float(min(max(factor, 1.0), 2.0)),
        max_load=per * factor,
        mean_load=per,
        n_workers=n_workers,
    )


def element_balanced(
    row_lengths: np.ndarray, n_workers: int
) -> ImbalanceStats:
    """Perfect element-level balance (COO atomics)."""
    nnz = float(row_lengths.sum())
    per = nnz / n_workers if n_workers else 0.0
    return ImbalanceStats(1.0, per, per, n_workers)


def warp_per_row(
    row_lengths: np.ndarray,
    n_workers: int,
    simd_width: int = 32,
    cycles: np.ndarray = None,
) -> ImbalanceStats:
    """GPU warp-per-row scheduling (cuSPARSE CSR flavour).

    Each row costs ``ceil(len / simd_width)`` warp-cycles; rows are dealt
    round-robin to warp slots, summed as a zero-padded ``(k, n_workers)``
    reshape.  The critical path is additionally lower-bounded by the
    single longest row (it cannot be split).  ``cycles`` optionally
    supplies the per-row warp-cycle counts precomputed for this profile —
    they do not depend on ``n_workers``.
    """
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    if cycles is None:
        lengths = np.asarray(row_lengths, dtype=np.int64)
        cycles = (lengths + simd_width - 1) // simd_width
    n_pad = (-n_rows) % n_workers
    if n_pad:
        cycles_padded = np.concatenate(
            [cycles, np.zeros(n_pad, dtype=np.int64)]
        )
    else:
        cycles_padded = cycles
    loads = cycles_padded.reshape(-1, n_workers).sum(axis=0).astype(
        np.float64
    )
    longest = float(cycles.max())
    mean = loads.mean() if loads.mean() > 0 else 1.0
    factor = max(loads.max(), longest) / mean
    return ImbalanceStats(
        factor=float(max(factor, 1.0)),
        max_load=float(max(loads.max(), longest)),
        mean_load=float(mean),
        n_workers=n_workers,
    )


def sell_chunk_widths(
    row_lengths: np.ndarray, C: int = 32, sigma: int = 1024
) -> np.ndarray:
    """Per-chunk widths of the sigma-sorted SELL-C-σ layout.

    This is the expensive half of :func:`sell_chunk_imbalance` — the
    per-window descending sort and the chunk-maximum reduction — and it
    does not depend on ``n_workers``, so callers scoring the same
    profile at several worker counts can compute it once.  The windows
    sort as one 2-D sort, the tail padded with -1 sentinels.  ``sigma``
    must be a multiple of ``C``, as with the defaults: windows then
    start on chunk boundaries, so every chunk lies in one
    descending-sorted window and its width is its first row, read off
    the ascending window sort at a stride of ``C``.
    """
    if sigma % C:
        raise ValueError(f"sigma ({sigma}) must be a multiple of C ({C})")
    n_rows = len(row_lengths)
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = np.asarray(row_lengths, dtype=np.int64)
    if lengths.max() >= 2**31:
        raise ValueError("row lengths must be below 2**31")
    # int32 sorts in the same order as int64, in half the bytes.
    n_windows = (n_rows + sigma - 1) // sigma
    padded = np.full(n_windows * sigma, -1, dtype=np.int32)
    padded[:n_rows] = lengths
    asc = np.sort(padded.reshape(n_windows, sigma), axis=1)
    n_chunks = (n_rows + C - 1) // C
    heads = asc[:, sigma - 1::-C].reshape(-1)[:n_chunks]
    return heads.astype(np.int64)


def sell_chunk_imbalance(
    row_lengths: np.ndarray,
    n_workers: int,
    C: int = 32,
    sigma: int = 1024,
    widths: np.ndarray = None,
) -> ImbalanceStats:
    """SELL-C-σ chunk loads: rows sorted within σ-windows, chunk cost is
    ``C * chunk_width``; chunks are dealt to workers in order.

    ``widths`` optionally supplies :func:`sell_chunk_widths` precomputed
    for this profile — the deal to workers is all that varies with
    ``n_workers``.  Like the widths, it requires ``sigma`` to be a
    multiple of ``C``.
    """
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    if widths is None:
        widths = sell_chunk_widths(row_lengths, C, sigma)
    n_chunks = len(widths)
    cost = widths * C
    # Chunks are dealt in snake order (0..w-1, w-1..0, ...), modelling the
    # guided scheduling real SELL kernels use: within a sorted sigma-window
    # costs descend monotonically, so plain contiguous or round-robin
    # assignment would systematically overload the first worker.
    phase = np.arange(n_chunks) % (2 * n_workers)
    slots = np.where(phase < n_workers, phase, 2 * n_workers - 1 - phase)
    loads = np.bincount(slots, weights=cost, minlength=n_workers)
    return ImbalanceStats.from_loads(loads)


def lockstep_channel_imbalance(
    row_lengths: np.ndarray, n_channels: int = 16
) -> ImbalanceStats:
    """VSL channel lockstep: rows are interleaved over HBM channel groups
    which advance in lockstep, so the critical channel paces all 16.  A
    skewed row concentrates its stream on one channel (Fig 5's ~4x FPGA
    drop).  The interleave sums as a zero-padded reshape."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_channels)
    lengths = np.asarray(row_lengths, dtype=np.int64)
    n_pad = (-n_rows) % n_channels
    if n_pad:
        lengths = np.concatenate([lengths, np.zeros(n_pad, dtype=np.int64)])
    loads = lengths.reshape(-1, n_channels).sum(axis=0)
    # Lockstep advances in bursts: per-burst padding amplifies the critical
    # channel; approximate with the channel max over the mean.
    return ImbalanceStats.from_loads(loads)


PARTITION_STRATEGIES = {
    "row_block": row_block_partition,
    "nnz_row": nnz_balanced_rows,
    "merge_path": merge_path_imbalance,
    "warp_row": warp_per_row,
    "nnz_split": nnz_split,
    "element": element_balanced,
    "sell_chunk": sell_chunk_imbalance,
    "lockstep_channel": lockstep_channel_imbalance,
}


def imbalance_for_strategy(
    strategy: str,
    row_lengths: np.ndarray,
    n_workers: int,
    simd_width: int = 32,
    csum: np.ndarray = None,
    sell_widths: np.ndarray = None,
    warp_cycles: np.ndarray = None,
) -> ImbalanceStats:
    """Dispatch to the named partitioner.

    Callers scoring one profile under several keys may pass its
    worker-independent precomputations: the integer prefix sum
    ``[0, cumsum(row_lengths)]`` (``csum``) for the contiguous-block
    partitioners, the SELL chunk widths (``sell_widths``) and the
    warp-cycle counts at ``simd_width`` (``warp_cycles``).  The result is
    the same with or without them.
    """
    if strategy == "warp_row":
        return warp_per_row(
            row_lengths, n_workers, simd_width, cycles=warp_cycles
        )
    if strategy == "sell_chunk":
        return sell_chunk_imbalance(
            row_lengths, n_workers, widths=sell_widths
        )
    if strategy in ("row_block", "nnz_row"):
        return PARTITION_STRATEGIES[strategy](
            row_lengths, n_workers, csum=csum
        )
    try:
        fn = PARTITION_STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown partition strategy {strategy!r}; available: "
            f"{sorted(PARTITION_STRATEGIES)}"
        ) from None
    return fn(row_lengths, n_workers)
