"""DIA (diagonal) format — classic structure-specific storage.

Stores every populated diagonal as a dense stripe.  Superb for banded
matrices (column metadata is one offset per diagonal), unusable when the
nonzeros scatter across many diagonals — the conversion guard mirrors that.
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

__all__ = ["DIA"]


@register_format
class DIA(SparseFormat):
    """Diagonal storage: ``(n_diags, n_rows)`` value stripes + offsets."""

    name = "DIA"
    category = "state-of-practice"
    device_classes = ("cpu",)
    partition_strategy = "element"
    DEFAULT_MAX_BLOWUP = 16.0

    def __init__(self, n_rows, n_cols, offsets, diags, nnz):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.offsets = offsets  # diagonal offsets (col - row)
        self.diags = diags      # (n_diags, n_rows) values, row-indexed
        self._nnz = int(nnz)

    @classmethod
    def _populated_diagonals(cls, mat: CSRMatrix, max_blowup: float):
        """(rows, offs, uniq offsets) with the blowup gate applied; the
        batch stats apply the same threshold with the same message.
        Requires ``mat.nnz > 0``."""
        rows = np.repeat(
            np.arange(mat.n_rows, dtype=np.int64), mat.row_lengths
        )
        offs = mat.indices.astype(np.int64) - rows
        uniq = np.unique(offs)
        stored = len(uniq) * mat.n_rows
        if stored > max_blowup * mat.nnz:
            raise FormatError(
                f"DIA needs {len(uniq)} diagonals "
                f"({stored / mat.nnz:.1f}x blowup > {max_blowup}x)"
            )
        return rows, offs, uniq

    @classmethod
    def from_csr(
        cls, mat: CSRMatrix, max_blowup: float = DEFAULT_MAX_BLOWUP
    ) -> "DIA":
        if mat.nnz == 0:
            return cls(
                mat.n_rows, mat.n_cols,
                np.zeros(0, dtype=np.int64),
                np.zeros((0, mat.n_rows)), 0,
            )
        rows, offs, uniq = cls._populated_diagonals(mat, max_blowup)
        diag_idx = np.searchsorted(uniq, offs)
        diags = np.zeros((len(uniq), mat.n_rows), dtype=np.float64)
        diags[diag_idx, rows] = mat.data
        return cls(mat.n_rows, mat.n_cols, uniq, diags, mat.nnz)

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Per-matrix diagonal counts straight from the structure arrays
        (one ``np.unique`` each, no :class:`CSRMatrix` materialisation)."""
        n = len(batch)
        nnz = batch.nnz
        out = FormatStatsBatch.empty(n)
        out.balance_aware[:] = True
        out.simd_friendly[:] = True
        for i in range(n):
            z = int(nnz[i])
            if z == 0:
                continue
            n_rows = int(batch.n_rows[i])
            rows = np.repeat(
                np.arange(n_rows, dtype=np.int64), batch.lengths_of(i)
            )
            offs = batch.indices_of(i).astype(np.int64) - rows
            n_uniq = len(np.unique(offs))
            stored = n_uniq * n_rows
            if stored > cls.DEFAULT_MAX_BLOWUP * z:
                out.fail[i] = True
                out.fail_reason[i] = (
                    f"DIA needs {n_uniq} diagonals "
                    f"({stored / z:.1f}x blowup > "
                    f"{cls.DEFAULT_MAX_BLOWUP}x)"
                )
                continue
            out.stored_elements[i] = stored
            out.padding_elements[i] = stored - z
            out.memory_bytes[i] = stored * VALUE_BYTES + n_uniq * INDEX_BYTES
            out.metadata_bytes[i] = n_uniq * INDEX_BYTES
        return out

    def to_csr(self) -> CSRMatrix:
        d, rows = np.nonzero(self.diags != 0.0)
        cols = rows + self.offsets[d]
        valid = (cols >= 0) & (cols < self.n_cols)
        return csr_from_coo(
            self.n_rows, self.n_cols,
            rows[valid], cols[valid], self.diags[d[valid], rows[valid]],
            sum_duplicates=False,
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.zeros(self.n_rows, dtype=np.float64)
        rows = np.arange(self.n_rows, dtype=np.int64)
        for d, off in enumerate(self.offsets):
            cols = rows + off
            valid = (cols >= 0) & (cols < self.n_cols)
            y[valid] += self.diags[d, valid] * x[cols[valid]]
        return y

    def stats(self) -> FormatStats:
        stored = self.diags.size
        meta = len(self.offsets) * INDEX_BYTES
        return FormatStats(
            stored_elements=stored,
            padding_elements=stored - self._nnz,
            memory_bytes=stored * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=True,
            simd_friendly=True,
        )

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self._nnz
