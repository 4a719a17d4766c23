"""Matrix instances: a materialised matrix plus its declared full scale.

Full-size paper matrices reach 2 GB in CSR; materialising thousands of
those in pure Python is infeasible, so dataset entries carry a
*representative* matrix (structurally faithful, capped nnz) together with
the declared :class:`~repro.core.generator.MatrixSpec`.  Scale-free
statistics (locality, padding ratios, SIMD utilisation) are measured on
the representative; size-dependent quantities (footprint, row count, the
row-length profile used for imbalance) come from the declared spec.  The
profile is kept beside a :class:`~repro.devices.parallel.RowProfile`
memo, so every imbalance query of one instance (``simulate_spmv``, the
CLI ``simulate``/``validate`` tables) shares the profile's total, prefix
sum, SELL chunk widths and per-width warp cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.features import Features, extract_features
from ..core.generator import MatrixSpec, row_length_profile
from ..core.matrix import CSRMatrix
from ..devices.parallel import (
    ImbalanceStats, RowProfile, imbalance_for_strategy,
)
from ..formats.base import FormatError, FormatStats, get_format

__all__ = ["MatrixInstance", "row_length_histogram",
           "histogram_simd_utilisation"]


def row_length_histogram(
    profile: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, counts)`` of the positive row lengths, ascending.

    ``bincount`` is O(n_rows + max_len) against ``np.unique``'s
    O(n_rows log n_rows) sort and yields the same pairs; the sort stays
    as the fallback for profiles whose maximum row length would make the
    count array larger than the profile itself.
    """
    max_len = int(profile.max()) if len(profile) else 0
    if 0 < max_len <= max(4 * len(profile), 1024):
        counts = np.bincount(profile)
        vals = np.nonzero(counts)[0]
        if len(vals) and vals[0] == 0:
            vals = vals[1:]
        return vals, counts[vals]
    return np.unique(profile[profile > 0], return_counts=True)


def histogram_simd_utilisation(
    hist: Tuple[np.ndarray, np.ndarray], simd_width: int
) -> float:
    """Fraction of SIMD lanes doing useful work under row-vectorisation,
    from a :func:`row_length_histogram` (both sums are exact integers)."""
    vals, cnts = hist
    if simd_width <= 1 or len(vals) == 0:
        return 1.0
    issued = (np.ceil(vals / simd_width) * simd_width * cnts).sum()
    return float((vals * cnts).sum() / issued)

# Imbalance statistics converge long before this many rows; the cap bounds
# profile memory for multi-GB declared matrices.
MAX_PROFILE_ROWS = 2_000_000


@dataclass
class MatrixInstance:
    """A matrix to simulate: representative structure + declared scale."""

    matrix: CSRMatrix
    spec: Optional[MatrixSpec] = None
    name: str = ""

    def __post_init__(self):
        self._features: Optional[Features] = None
        self._profile: Optional[np.ndarray] = None
        self._row_memo: Optional[RowProfile] = None
        self._hist: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._format_stats: Dict[str, FormatStats] = {}
        self._format_fail: Dict[str, str] = {}
        self._simd_util: Dict[int, float] = {}
        self._imbalance: Dict[tuple, ImbalanceStats] = {}

    # -- declared scale -------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.spec.n_rows if self.spec else self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.spec.n_cols if self.spec else self.matrix.n_cols

    @property
    def nnz(self) -> int:
        if self.spec is None:
            return self.matrix.nnz
        # Preserve the representative's realised density rather than the
        # nominal average (generation is stochastic).
        return int(round(self.matrix.nnz * self.scale))

    @property
    def scale(self) -> float:
        """Declared rows over representative rows (>= 1)."""
        if self.spec is None:
            return 1.0
        return max(1.0, self.spec.n_rows / max(self.matrix.n_rows, 1))

    @property
    def mem_footprint_mb(self) -> float:
        """Declared CSR footprint (paper f1)."""
        return (self.nnz * 12.0 + (self.n_rows + 1) * 4.0) / (1024**2)

    # -- cached statistics ----------------------------------------------
    @property
    def features(self) -> Features:
        """Measured features, with the footprint at declared scale."""
        if self._features is None:
            measured = extract_features(self.matrix)
            self._features = replace(
                measured,
                mem_footprint_mb=self.mem_footprint_mb,
                n_rows=self.n_rows,
                n_cols=self.n_cols,
                nnz=self.nnz,
            )
        return self._features

    def row_profile(self) -> np.ndarray:
        """Row-length profile at declared scale (capped), for imbalance.

        For un-scaled instances this is simply the measured row lengths;
        for scaled ones the profile is regenerated from the spec at (up to)
        ``MAX_PROFILE_ROWS`` rows so heavy rows keep their true *fraction*
        of the total work.
        """
        if self._profile is None:
            if self.spec is None or self.scale <= 1.0:
                self._profile = self.matrix.row_lengths
            else:
                rows = min(self.spec.n_rows, MAX_PROFILE_ROWS)
                rng = np.random.default_rng(self.spec.seed)
                self._profile = row_length_profile(
                    rows,
                    self.spec.n_cols,
                    self.spec.avg_nnz_per_row,
                    self.spec.std_ratio * self.spec.avg_nnz_per_row,
                    self.spec.skew_coeff,
                    rng,
                    self.spec.distribution,
                )
        return self._profile

    def simd_utilisation(self, simd_width: int) -> float:
        """Memoised SIMD utilisation of the row profile at ``simd_width``.

        The profile can span millions of rows, and the simulator asks for
        the same handful of widths on every ``(device, format)`` call — the
        per-width cache drops that O(n_rows) recomputation from warm runs.
        """
        if simd_width not in self._simd_util:
            if self._hist is None:
                self._hist = row_length_histogram(self.row_profile())
            self._simd_util[simd_width] = histogram_simd_utilisation(
                self._hist, simd_width
            )
        return self._simd_util[simd_width]

    def imbalance(
        self, strategy: str, n_workers: int, simd_width: int = 32
    ) -> ImbalanceStats:
        """Memoised load-imbalance statistics of the named partitioner.

        Keyed on the full ``(strategy, n_workers, simd_width)`` triple; the
        profile itself is fixed per instance, so every sweep revisit of the
        same device/format pair becomes a dictionary hit.
        """
        key = (strategy, n_workers, simd_width)
        if key not in self._imbalance:
            if self._row_memo is None:
                self._row_memo = RowProfile(self.row_profile())
            self._imbalance[key] = imbalance_for_strategy(
                strategy, self._row_memo, n_workers, simd_width
            )
        return self._imbalance[key]

    def format_stats(self, format_name: str) -> FormatStats:
        """Score the format once and cache the structural statistics.

        The stats come straight from the CSR structure arrays via
        :meth:`~repro.formats.base.SparseFormat.stats_at_declared_scale`
        — the simulator never reads format payloads, so the full
        conversion (padded value/index allocation for ELL/SELL-C-σ/DIA/
        BCSR, scatter passes for the rest) is skipped entirely.  Raises
        :class:`FormatError` (replayed from cache) when the format
        refuses the matrix, with the message ``from_csr`` would raise.
        """
        if format_name in self._format_fail:
            raise FormatError(self._format_fail[format_name])
        if format_name not in self._format_stats:
            try:
                stats = get_format(format_name).stats_at_declared_scale(
                    self.matrix, self.nnz, self.n_cols
                )
            except FormatError as exc:
                self._format_fail[format_name] = str(exc)
                raise
            self._format_stats[format_name] = stats
        return self._format_stats[format_name]

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: MatrixSpec,
        max_nnz: int = 200_000,
        name: str = "",
    ) -> "MatrixInstance":
        """Build the representative matrix for ``spec`` and wrap it."""
        return cls(matrix=spec.build(max_nnz=max_nnz), spec=spec, name=name)

    @classmethod
    def from_matrix(
        cls, matrix: CSRMatrix, name: str = ""
    ) -> "MatrixInstance":
        """Wrap a fully materialised matrix (no scaling)."""
        return cls(matrix=matrix, spec=None, name=name)
