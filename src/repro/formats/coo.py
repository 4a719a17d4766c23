"""Coordinate format (COO) — Section II-B.1.

Three ``nnz``-length arrays (row, column, value).  Trivially load-balanced
(work can be split anywhere) but carries the heaviest metadata: 8 index
bytes per nonzero versus CSR's amortised ~4.
"""

from __future__ import annotations

import numpy as np

from ..core.matrix import CSRMatrix, CSRStructBatch, csr_from_coo
from .base import (
    INDEX_BYTES,
    VALUE_BYTES,
    FormatStats,
    FormatStatsBatch,
    SparseFormat,
    register_format,
)

__all__ = ["COO"]


@register_format
class COO(SparseFormat):
    """COO: ``(row_idx, col_idx, value)`` triplets sorted by row."""

    name = "COO"
    category = "state-of-practice"
    device_classes = ("cpu", "gpu")
    partition_strategy = "element"

    def __init__(self, n_rows, n_cols, rows, cols, vals):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = np.ascontiguousarray(rows, dtype=np.int32)
        self.cols = np.ascontiguousarray(cols, dtype=np.int32)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("COO arrays must have equal length")

    @classmethod
    def from_csr(cls, mat: CSRMatrix) -> "COO":
        rows = np.repeat(
            np.arange(mat.n_rows, dtype=np.int32),
            mat.row_lengths,
        )
        return cls(mat.n_rows, mat.n_cols, rows, mat.indices, mat.data)

    def to_csr(self) -> CSRMatrix:
        return csr_from_coo(
            self.n_rows, self.n_cols, self.rows, self.cols, self.vals,
            sum_duplicates=False,
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # Scatter-add of per-element products: bincount performs the whole
        # atomic-accumulation pattern in one vectorised pass.
        if self.nnz == 0:
            return np.zeros(self.n_rows)
        return np.bincount(
            self.rows, weights=self.vals * x[self.cols],
            minlength=self.n_rows,
        )

    def stats(self) -> FormatStats:
        meta = 2 * self.nnz * INDEX_BYTES
        return FormatStats(
            stored_elements=self.nnz,
            padding_elements=0,
            memory_bytes=meta + self.nnz * VALUE_BYTES,
            metadata_bytes=meta,
            balance_aware=True,   # elements can be split evenly anywhere
            simd_friendly=False,  # scattered row writes
        )

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Pure column math: triplet storage for the chunk (never refuses)."""
        n = len(batch)
        nnz = batch.nnz
        meta = 2 * nnz * INDEX_BYTES
        return FormatStatsBatch(
            stored_elements=nnz,
            padding_elements=np.zeros(n, dtype=np.int64),
            memory_bytes=meta + nnz * VALUE_BYTES,
            metadata_bytes=meta,
            balance_aware=np.ones(n, dtype=bool),
            simd_friendly=np.zeros(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return len(self.vals)
