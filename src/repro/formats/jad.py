"""JAD (jagged diagonal) format — the classic vector-machine layout the
paper's related work cites alongside DIA ("diagonal (DIA, JAD) ... formats
representing specific structures", Section VI).

Rows are permuted by descending length; the k-th nonzero of every row long
enough forms "jagged diagonal" k, stored contiguously.  Every jagged
diagonal is a unit-stride vector operation over all still-active rows —
maximal vector length without any padding, at the cost of a row
permutation and per-diagonal pointers.
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

__all__ = ["JAD"]


@register_format
class JAD(SparseFormat):
    """Jagged diagonal storage with row permutation."""

    name = "JAD"
    category = "state-of-practice"
    device_classes = ("cpu",)
    partition_strategy = "nnz_row"

    def __init__(self, n_rows, n_cols, jd_ptr, cols, vals, row_perm, nnz):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.jd_ptr = jd_ptr      # start offset of each jagged diagonal
        self.cols = cols          # column indices, diagonal-major
        self.vals = vals          # values, diagonal-major
        self.row_perm = row_perm  # permuted position -> original row
        self._nnz = int(nnz)

    @classmethod
    def from_csr(cls, mat: CSRMatrix) -> "JAD":
        lengths = mat.row_lengths
        # Permute rows by descending length (stable for determinism).
        row_perm = np.argsort(-lengths, kind="stable").astype(np.int64)
        perm_lengths = lengths[row_perm]
        n_diag = int(perm_lengths[0]) if mat.n_rows and mat.nnz else 0

        # Diagonal k holds the k-th element of every row with length > k;
        # active[k] = #rows with length > k, computed with one binary
        # search per diagonal over the ascending length profile.
        if n_diag:
            ascending = perm_lengths[::-1]
            active = mat.n_rows - np.searchsorted(
                ascending, np.arange(n_diag), side="right"
            )
        else:
            active = np.zeros(0, dtype=np.int64)
        jd_ptr = np.concatenate(([0], np.cumsum(active))).astype(np.int64)

        cols = np.zeros(mat.nnz, dtype=np.int32)
        vals = np.zeros(mat.nnz, dtype=np.float64)
        # Element j of permuted row p lands at jd_ptr[j] + p (rows with
        # length > j occupy the first positions of diagonal j because the
        # permutation sorts by descending length).
        reps = perm_lengths
        p_of_elem = np.repeat(np.arange(mat.n_rows, dtype=np.int64), reps)
        j_of_elem = np.arange(mat.nnz, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)[:-1])), reps
        )
        src = np.repeat(mat.indptr[:-1][row_perm], reps) + j_of_elem
        dst = jd_ptr[j_of_elem] + p_of_elem
        cols[dst] = mat.indices[src]
        vals[dst] = mat.data[src]
        return cls(
            mat.n_rows, mat.n_cols, jd_ptr, cols, vals, row_perm, mat.nnz
        )

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Vectorised jagged-diagonal stats over the chunk (never refuses)."""
        n = len(batch)
        nnz = batch.nnz
        n_diag = np.zeros(n, dtype=np.int64)
        for i in range(n):
            seg = batch.lengths_of(i)
            if len(seg) and nnz[i]:
                n_diag[i] = seg.max()
        meta = (nnz + n_diag + 1 + batch.n_rows) * INDEX_BYTES
        return FormatStatsBatch(
            stored_elements=nnz,
            padding_elements=np.zeros(n, dtype=np.int64),
            memory_bytes=nnz * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=np.ones(n, dtype=bool),
            simd_friendly=np.ones(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    def to_csr(self) -> CSRMatrix:
        if self._nnz == 0:
            return csr_from_coo(self.n_rows, self.n_cols, [], [], [])
        rows_out, cols_out, vals_out = [], [], []
        for k in range(len(self.jd_ptr) - 1):
            lo, hi = int(self.jd_ptr[k]), int(self.jd_ptr[k + 1])
            p = np.arange(hi - lo, dtype=np.int64)
            rows_out.append(self.row_perm[p])
            cols_out.append(self.cols[lo:hi])
            vals_out.append(self.vals[lo:hi])
        return csr_from_coo(
            self.n_rows, self.n_cols,
            np.concatenate(rows_out), np.concatenate(cols_out),
            np.concatenate(vals_out), sum_duplicates=False,
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y_perm = np.zeros(self.n_rows, dtype=np.float64)
        # One unit-stride AXPY-style gather per jagged diagonal: the
        # vector-machine schedule JAD exists for.
        for k in range(len(self.jd_ptr) - 1):
            lo, hi = int(self.jd_ptr[k]), int(self.jd_ptr[k + 1])
            y_perm[: hi - lo] += self.vals[lo:hi] * x[self.cols[lo:hi]]
        y = np.zeros(self.n_rows, dtype=np.float64)
        y[self.row_perm] = y_perm
        return y

    def stats(self) -> FormatStats:
        meta = (
            self._nnz * INDEX_BYTES
            + len(self.jd_ptr) * INDEX_BYTES
            + self.n_rows * INDEX_BYTES  # permutation
        )
        return FormatStats(
            stored_elements=self._nnz,
            padding_elements=0,
            memory_bytes=self._nnz * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=True,   # diagonals shrink smoothly with length
            simd_friendly=True,
        )

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self._nnz
