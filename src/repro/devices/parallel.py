"""Work partitioning and load-imbalance measurement.

Each storage format distributes SpMV work differently (Section II-B); the
imbalance penalty in the device model is *measured* on the actual per-row
nonzero counts rather than estimated from the skew feature.  Every
partitioner returns an :class:`ImbalanceStats` whose ``factor`` is the
ratio of the critical (slowest) worker's load to the mean load — the
multiplicative slowdown of a bulk-synchronous SpMV.

Every partitioner reads the profile through a :class:`RowProfile`, which
computes each worker-independent pass over the rows on first use: the
total, the prefix sum, the SELL chunk widths and the per-width warp
cycles.  It keeps the small ones and one full-length pass at a time.  A
caller scoring one profile under several (strategy, workers, width) keys
passes the same ``RowProfile`` to every call, in :func:`pass_order`, so
each full pass over the rows runs once per profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ImbalanceStats",
    "RowProfile",
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
    "pass_order",
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


class RowProfile:
    """A row-length profile and its worker-independent passes.

    ``lengths`` is the integer per-row nonzero count.  The total, the
    int64 prefix sum ``[0, cumsum(lengths)]``, the SELL chunk widths per
    layout and, per SIMD width, the warp-cycle counts with their maximum
    are each computed on first use.  All are integer passes, so sharing
    them across partitioner calls changes no bit of a result.  The total
    and the SELL widths are kept; of the full-length prefix sum and warp
    cycles, only the last one computed is, so callers visit their keys
    in :func:`pass_order`.
    """

    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self._sell: Dict[Tuple[int, int], np.ndarray] = {}
        self._warp: Optional[Tuple[int, np.ndarray, float]] = None

    def __len__(self) -> int:
        return len(self.lengths)

    def _drop_pass(self) -> None:
        """Drop the full-length pass held, before computing another."""
        self.__dict__.pop("csum", None)
        self._warp = None

    @cached_property
    def total(self) -> int:
        return int(self.lengths.sum())

    @cached_property
    def csum(self) -> np.ndarray:
        self._drop_pass()
        csum = np.empty(len(self.lengths) + 1, dtype=np.int64)
        csum[0] = 0
        np.cumsum(self.lengths, out=csum[1:])
        return csum

    def sell_widths(self, C: int = 32, sigma: int = 1024) -> np.ndarray:
        """:func:`sell_chunk_widths` of the profile."""
        if (C, sigma) not in self._sell:
            self._drop_pass()
            self._sell[C, sigma] = sell_chunk_widths(self.lengths, C, sigma)
        return self._sell[C, sigma]

    def warp_cycles(self, width: int) -> Tuple[np.ndarray, float]:
        """Per-row ``ceil(len / width)`` warp cycles and their maximum
        (a non-empty profile)."""
        if self._warp is None or self._warp[0] != width:
            self._drop_pass()
            cycles = np.asarray(self.lengths, dtype=np.int64) + (width - 1)
            cycles //= width
            self._warp = width, cycles, float(cycles.max())
        return self._warp[1:]


Profile = Union[RowProfile, np.ndarray]


def _as_profile(row_lengths: Profile) -> RowProfile:
    if isinstance(row_lengths, RowProfile):
        return row_lengths
    return RowProfile(row_lengths)


def _interleaved_sums(values: np.ndarray, n_slots: int) -> np.ndarray:
    """int64 sums of ``values[j::n_slots]`` for every slot ``j``: the
    full ``(k, n_slots)`` block summed, the remainder added into the
    first slots."""
    full = len(values) - len(values) % n_slots
    loads = values[:full].reshape(-1, n_slots).sum(axis=0, dtype=np.int64)
    loads[:len(values) - full] += values[full:]
    return loads


def row_block_partition(
    row_lengths: Profile, n_workers: int
) -> ImbalanceStats:
    """Static contiguous row blocks of equal *row count* (Naive-CSR /
    OpenMP static scheduling).  Skewed matrices hurt: whoever owns the
    heavy rows owns the critical path."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    csum = _as_profile(row_lengths).csum
    bounds = np.linspace(0, n_rows, n_workers + 1).astype(np.int64)
    return ImbalanceStats.from_loads(csum[bounds[1:]] - csum[bounds[:-1]])


def nnz_balanced_rows(
    row_lengths: Profile, n_workers: int
) -> ImbalanceStats:
    """Contiguous row blocks of ~equal nonzeros, at row granularity
    (Balanced-CSR, inspector-executor libraries).  A single monster row
    still lower-bounds the critical path.

    The block targets are searched as integers: the prefix sums are
    integers below 2**53, so the first sum ``>=`` a float target is the
    first ``>=`` its ceiling, without converting the prefix sum to
    float64 on every call."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    csum = _as_profile(row_lengths).csum
    targets = np.ceil(np.linspace(0, csum[-1], n_workers + 1))
    bounds = np.searchsorted(csum, targets.astype(np.int64), side="left")
    bounds[0], bounds[-1] = 0, n_rows
    bounds = np.maximum.accumulate(bounds)
    return ImbalanceStats.from_loads(csum[bounds[1:]] - csum[bounds[:-1]])


def merge_path_imbalance(
    row_lengths: Profile, n_workers: int
) -> ImbalanceStats:
    """Merge-path decomposition (Merge-CSR): rows + nonzeros are split into
    equal diagonals, rows may be split mid-row — imbalance is bounded by
    one work item by construction."""
    n_rows = len(row_lengths)
    nnz = _as_profile(row_lengths).total
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


def nnz_split(row_lengths: Profile, n_workers: int) -> ImbalanceStats:
    """Row-splitting nnz partition (CSR5 tiles): work is element-balanced
    up to one tile of granularity."""
    nnz = float(_as_profile(row_lengths).total)
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
    row_lengths: Profile, n_workers: int
) -> ImbalanceStats:
    """Perfect element-level balance (COO atomics)."""
    nnz = float(_as_profile(row_lengths).total)
    per = nnz / n_workers if n_workers else 0.0
    return ImbalanceStats(1.0, per, per, n_workers)


def warp_per_row(
    row_lengths: Profile,
    n_workers: int,
    simd_width: int = 32,
) -> ImbalanceStats:
    """GPU warp-per-row scheduling (cuSPARSE CSR flavour).

    Each row costs ``ceil(len / simd_width)`` warp-cycles; rows are dealt
    round-robin to warp slots.  The critical path is additionally
    lower-bounded by the single longest row (it cannot be split).
    """
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    cycles, longest = _as_profile(row_lengths).warp_cycles(simd_width)
    loads = _interleaved_sums(cycles, n_workers).astype(np.float64)
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
    sort in place as one 2-D sort of an int32 copy, the tail padded
    with -1 sentinels.  ``sigma`` must be a multiple of ``C``, as with
    the defaults: windows then start on chunk boundaries, so every
    chunk lies in one descending-sorted window and its width is its
    first row, read off the ascending window sort at a stride of ``C``.
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
    asc = padded.reshape(n_windows, sigma)
    asc.sort(axis=1)
    n_chunks = (n_rows + C - 1) // C
    heads = asc[:, sigma - 1::-C].reshape(-1)[:n_chunks]
    return heads.astype(np.int64)


def sell_chunk_imbalance(
    row_lengths: Profile,
    n_workers: int,
    C: int = 32,
    sigma: int = 1024,
) -> ImbalanceStats:
    """SELL-C-σ chunk loads: rows sorted within σ-windows, chunk cost is
    ``C * chunk_width``; chunks are dealt to workers in order.

    The chunk widths come from the profile's memo — the deal to workers
    is all that varies with ``n_workers``.  Like the widths, it requires
    ``sigma`` to be a multiple of ``C``.
    """
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    widths = _as_profile(row_lengths).sell_widths(C, sigma)
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
    row_lengths: Profile, n_channels: int = 16
) -> ImbalanceStats:
    """VSL channel lockstep: rows are interleaved over HBM channel groups
    which advance in lockstep, so the critical channel paces all 16.  A
    skewed row concentrates its stream on one channel (Fig 5's ~4x FPGA
    drop)."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_channels)
    lengths = np.asarray(_as_profile(row_lengths).lengths, dtype=np.int64)
    loads = _interleaved_sums(lengths, n_channels)
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


# Strategies by the full-length RowProfile pass they read, after the
# prefix-sum ones (rank 0, with those reading no full-length pass).
_PASS_RANK = {"warp_row": 1, "sell_chunk": 2}


def pass_order(key: Tuple[str, int, int]) -> Tuple[int, int]:
    """Sort key for one profile's ``(strategy, workers, width)`` keys
    that groups them by the full-length pass they read: the prefix sum,
    then the warp cycles width by width, then the SELL sort.  Visited in
    this order, a :class:`RowProfile`, which holds one such pass at a
    time, makes each pass once."""
    strategy, _, width = key
    return _PASS_RANK.get(strategy, 0), width


def imbalance_for_strategy(
    strategy: str,
    profile: Profile,
    n_workers: int,
    simd_width: int = 32,
) -> ImbalanceStats:
    """Dispatch to the named partitioner.

    ``profile`` is a :class:`RowProfile` or a plain row-length array
    (wrapped in a fresh one).  Callers scoring one profile under several
    keys pass the same ``RowProfile`` each time, so its passes are
    shared; the result is the same either way.
    """
    if strategy == "warp_row":
        return warp_per_row(profile, n_workers, simd_width)
    try:
        fn = PARTITION_STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown partition strategy {strategy!r}; available: "
            f"{sorted(PARTITION_STRATEGIES)}"
        ) from None
    return fn(profile, n_workers)
