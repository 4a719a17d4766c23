"""ELLPACK and HYB formats — Section II-B.3.

ELL stores dense ``n_rows x max_row_len`` column/value arrays, padding every
shorter row — excellent SIMD behaviour for balanced matrices, catastrophic
padding for skewed ones.  HYB bounds the damage by storing the first ``k``
nonzeros per row in ELL and the overflow in COO (``k`` defaults to the
average row length, the heuristic the paper cites).
"""

from __future__ import annotations

import numpy as np

from ..core.matrix import CSRMatrix, CSRStructBatch, csr_from_coo
from .base import (
    INDEX_BYTES,
    VALUE_BYTES,
    FormatError,
    FormatStats,
    FormatStatsBatch,
    SparseFormat,
    register_format,
)
from .coo import COO

__all__ = ["ELL", "HYB"]

# Conversion aborts when padding would inflate storage beyond this factor
# over CSR — mirroring real libraries refusing pathological ELL conversions.
DEFAULT_MAX_BLOWUP = 32.0


def _ell_arrays(mat: CSRMatrix, width: int):
    """Dense (n_rows, width) column-index and value arrays with padding.

    Padded slots hold column 0 and value 0: gathers stay in-bounds and the
    padded products vanish in the reduction.
    """
    n_rows = mat.n_rows
    cols = np.zeros((n_rows, width), dtype=np.int32)
    vals = np.zeros((n_rows, width), dtype=np.float64)
    lengths = np.minimum(mat.row_lengths, width)
    # Scatter each row's first `width` elements into the dense arrays.
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    # Position within row: global index minus row start.
    starts = np.repeat(mat.indptr[:-1], lengths)
    offsets = np.arange(len(rows), dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths
    )
    src = starts + offsets
    cols[rows, offsets] = mat.indices[src]
    vals[rows, offsets] = mat.data[src]
    return cols, vals, lengths


@register_format
class ELL(SparseFormat):
    """ELLPACK: dense padded storage keyed by the longest row."""

    name = "ELL"
    category = "state-of-practice"
    device_classes = ("gpu",)
    # Every row costs the same padded width -> inherently balanced.
    partition_strategy = "element"

    def __init__(self, n_rows, n_cols, ell_cols, ell_vals, nnz):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.ell_cols = ell_cols
        self.ell_vals = ell_vals
        self._nnz = int(nnz)

    @classmethod
    def _padded_extent(cls, mat: CSRMatrix, max_blowup: float):
        """(width, stored slots) with the blowup gate applied; the batch
        stats format the same message with the same arithmetic."""
        width = int(mat.row_lengths.max()) if mat.n_rows else 0
        stored = mat.n_rows * width
        if mat.nnz and stored > max_blowup * mat.nnz:
            raise FormatError(
                f"ELL padding blowup {stored / max(mat.nnz, 1):.1f}x exceeds "
                f"limit {max_blowup}x (max row {width}, "
                f"avg {mat.nnz / max(mat.n_rows, 1):.1f})"
            )
        return width, stored

    @classmethod
    def from_csr(
        cls, mat: CSRMatrix, max_blowup: float = DEFAULT_MAX_BLOWUP
    ) -> "ELL":
        width, _ = cls._padded_extent(mat, max_blowup)
        cols, vals, _ = _ell_arrays(mat, width)
        return cls(mat.n_rows, mat.n_cols, cols, vals, mat.nnz)

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Vectorised padded-extent stats; refusal messages are formatted
        with the exact arithmetic of :meth:`_padded_extent`."""
        n = len(batch)
        nnz = batch.nnz
        width = np.zeros(n, dtype=np.int64)
        for i in range(n):
            seg = batch.lengths_of(i)
            if len(seg):
                width[i] = seg.max()
        stored = batch.n_rows * width
        fail = (nnz > 0) & (stored > DEFAULT_MAX_BLOWUP * nnz)
        out = FormatStatsBatch(
            stored_elements=stored,
            padding_elements=stored - nnz,
            memory_bytes=stored * (INDEX_BYTES + VALUE_BYTES),
            metadata_bytes=stored * INDEX_BYTES,
            balance_aware=np.ones(n, dtype=bool),
            simd_friendly=np.ones(n, dtype=bool),
            fail=fail,
        )
        for i in np.flatnonzero(fail):
            s, z, r = int(stored[i]), int(nnz[i]), int(batch.n_rows[i])
            out.fail_reason[int(i)] = (
                f"ELL padding blowup {s / max(z, 1):.1f}x exceeds "
                f"limit {DEFAULT_MAX_BLOWUP}x (max row {int(width[i])}, "
                f"avg {z / max(r, 1):.1f})"
            )
        return out

    def to_csr(self) -> CSRMatrix:
        mask = self.ell_vals != 0.0
        rows, slots = np.nonzero(mask)
        return csr_from_coo(
            self.n_rows, self.n_cols,
            rows, self.ell_cols[rows, slots], self.ell_vals[rows, slots],
            sum_duplicates=False,
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.ell_cols.size == 0:
            return np.zeros(self.n_rows)
        # One fused gather-multiply-reduce across the dense slot axis: the
        # exact data-parallel schedule ELL exists to enable.
        return (self.ell_vals * x[self.ell_cols]).sum(axis=1)

    def stats(self) -> FormatStats:
        stored = self.ell_vals.size
        meta = stored * INDEX_BYTES
        return FormatStats(
            stored_elements=stored,
            padding_elements=stored - self._nnz,
            memory_bytes=stored * (INDEX_BYTES + VALUE_BYTES),
            metadata_bytes=meta,
            balance_aware=True,  # every row costs the same (padded) work
            simd_friendly=True,
        )

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self._nnz


@register_format
class HYB(SparseFormat):
    """Hybrid ELL + COO split at ``k`` nonzeros per row (cuSPARSE-9.2 HYB)."""

    name = "HYB"
    category = "state-of-practice"
    device_classes = ("gpu",)
    partition_strategy = "element"

    def __init__(self, ell_part: ELL, coo_part: COO, k: int):
        self.ell_part = ell_part
        self.coo_part = coo_part
        self.k = int(k)
        if ell_part.shape != coo_part.shape:
            raise ValueError("ELL and COO parts must agree on shape")

    @classmethod
    def from_csr(cls, mat: CSRMatrix, k: int = None) -> "HYB":
        if k is None:
            # Paper heuristic: threshold at the average row length.
            k = max(1, int(round(mat.nnz / max(mat.n_rows, 1))))
        k = int(k)
        lengths = mat.row_lengths
        ell_len = np.minimum(lengths, k)
        ell_width = int(ell_len.max()) if mat.n_rows else 0
        cols, vals, _ = _ell_arrays(mat, ell_width)
        ell_nnz = int(ell_len.sum())
        ell_part = ELL(mat.n_rows, mat.n_cols, cols, vals, ell_nnz)

        # Overflow elements (position >= k within their row) go to COO.
        rows_all = np.repeat(
            np.arange(mat.n_rows, dtype=np.int64), lengths
        )
        pos = np.arange(mat.nnz, dtype=np.int64) - np.repeat(
            mat.indptr[:-1], lengths
        )
        over = pos >= k
        coo_part = COO(
            mat.n_rows, mat.n_cols,
            rows_all[over], mat.indices[over], mat.data[over],
        )
        return cls(ell_part, coo_part, k)

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Vectorised split-threshold stats over the chunk (never refuses)."""
        n = len(batch)
        nnz = batch.nnz
        k = np.maximum(
            1, np.round(nnz / np.maximum(batch.n_rows, 1)).astype(np.int64)
        )
        ell_width = np.zeros(n, dtype=np.int64)
        ell_nnz = np.zeros(n, dtype=np.int64)
        for i in range(n):
            seg = batch.lengths_of(i)
            if len(seg):
                clipped = np.minimum(seg, k[i])
                ell_width[i] = clipped.max()
                ell_nnz[i] = clipped.sum()
        ell_stored = batch.n_rows * ell_width
        coo_nnz = nnz - ell_nnz
        ell_meta = ell_stored * INDEX_BYTES
        coo_meta = 2 * coo_nnz * INDEX_BYTES
        return FormatStatsBatch(
            stored_elements=ell_stored + coo_nnz,
            padding_elements=ell_stored - ell_nnz,
            memory_bytes=(
                ell_stored * (INDEX_BYTES + VALUE_BYTES)
                + coo_meta + coo_nnz * VALUE_BYTES
            ),
            metadata_bytes=ell_meta + coo_meta,
            balance_aware=np.ones(n, dtype=bool),
            simd_friendly=np.ones(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    def to_csr(self) -> CSRMatrix:
        a = self.ell_part.to_csr()
        b = self.coo_part.to_csr()
        rows = np.concatenate(
            [
                np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_lengths),
                np.repeat(np.arange(b.n_rows, dtype=np.int64), b.row_lengths),
            ]
        )
        cols = np.concatenate([a.indices, b.indices])
        vals = np.concatenate([a.data, b.data])
        return csr_from_coo(
            a.n_rows, a.n_cols, rows, cols, vals, sum_duplicates=False
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self.ell_part.spmv(x) + self.coo_part.spmv(x)

    def stats(self) -> FormatStats:
        e = self.ell_part.stats()
        c = self.coo_part.stats()
        return FormatStats(
            stored_elements=e.stored_elements + c.stored_elements,
            padding_elements=e.padding_elements,
            memory_bytes=e.memory_bytes + c.memory_bytes,
            metadata_bytes=e.metadata_bytes + c.metadata_bytes,
            balance_aware=True,
            simd_friendly=True,
        )

    @property
    def shape(self):
        return self.ell_part.shape

    @property
    def nnz(self) -> int:
        return self.ell_part.nnz + self.coo_part.nnz
