"""SELL-C-sigma — Kreutzer et al. [27], Section II-B.5.

Rows are sorted by length within windows of ``sigma`` rows, then grouped
into chunks of ``C`` rows; each chunk is padded only to its *own* longest
row.  ``C`` matches the hardware vector width, ``sigma`` trades sorting
scope (padding reduction) against x-access locality.
"""

from __future__ import annotations

import numpy as np

from ..core.matrix import CSRMatrix, CSRStructBatch, csr_from_coo
from ..devices.parallel import sell_chunk_widths
from .base import (
    INDEX_BYTES,
    VALUE_BYTES,
    FormatStats,
    FormatStatsBatch,
    SparseFormat,
    register_format,
)

__all__ = ["SELLCSigma"]


@register_format
class SELLCSigma(SparseFormat):
    """SELL-C-σ: sorted, chunked ELLPACK with per-chunk padding."""

    name = "SELL-C-s"
    category = "research"
    device_classes = ("cpu",)
    partition_strategy = "sell_chunk"

    DEFAULT_C = 32
    DEFAULT_SIGMA = 1024

    def __init__(
        self, n_rows, n_cols, chunk_ptr, chunk_width, cols, vals,
        row_perm, nnz, C,
    ):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.chunk_ptr = chunk_ptr        # element offset of each chunk
        self.chunk_width = chunk_width    # padded width per chunk
        self.cols = cols                  # chunk-major, column-major in chunk
        self.vals = vals
        self.row_perm = row_perm          # permuted row -> original row
        self._nnz = int(nnz)
        self.C = int(C)

    @classmethod
    def from_csr(
        cls, mat: CSRMatrix, C: int = None, sigma: int = None
    ) -> "SELLCSigma":
        C = cls.DEFAULT_C if C is None else int(C)
        sigma = cls.DEFAULT_SIGMA if sigma is None else int(sigma)
        if C < 1 or sigma < 1:
            raise ValueError("C and sigma must be >= 1")
        n_rows = mat.n_rows
        lengths = mat.row_lengths

        # Sort rows by descending length inside each sigma-window: all the
        # full windows in one 2-D stable argsort, the tail window (if any)
        # separately — identical permutation to a per-window loop.
        row_perm = np.arange(n_rows, dtype=np.int64)
        full = (n_rows // sigma) * sigma
        if full:
            order = np.argsort(
                -lengths[:full].reshape(-1, sigma), axis=1, kind="stable"
            )
            row_perm[:full] = (
                np.arange(0, full, sigma, dtype=np.int64)[:, None] + order
            ).reshape(-1)
        if full < n_rows:
            order = np.argsort(-lengths[full:], kind="stable")
            row_perm[full:] = full + order
        perm_lengths = lengths[row_perm]

        n_chunks = (n_rows + C - 1) // C
        pad_rows = n_chunks * C - n_rows
        if pad_rows:
            perm_lengths = np.concatenate(
                [perm_lengths, np.zeros(pad_rows, dtype=np.int64)]
            )
        chunk_width = perm_lengths.reshape(n_chunks, C).max(axis=1)
        chunk_ptr = np.concatenate(
            ([0], np.cumsum(chunk_width * C))
        ).astype(np.int64)

        total = int(chunk_ptr[-1])
        cols = np.zeros(total, dtype=np.int32)
        vals = np.zeros(total, dtype=np.float64)

        # Scatter: element j of permuted row r (chunk q, lane l) lands at
        # chunk_ptr[q] + j * C + l (column-major within the chunk -> unit
        # stride across SIMD lanes).
        src_rows = row_perm  # permuted position p holds original row
        reps = lengths[src_rows]
        p_of_elem = np.repeat(np.arange(n_rows, dtype=np.int64), reps)
        j_of_elem = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)[:-1])), reps
        )
        src = np.repeat(mat.indptr[:-1][src_rows], reps) + j_of_elem
        q = p_of_elem // C
        lane = p_of_elem - q * C
        dst = chunk_ptr[q] + j_of_elem * C + lane
        cols[dst] = mat.indices[src]
        vals[dst] = mat.data[src]
        return cls(
            mat.n_rows, mat.n_cols, chunk_ptr, chunk_width, cols, vals,
            row_perm, mat.nnz, C,
        )

    def to_csr(self) -> CSRMatrix:
        # One pass over the flat slot arrays: slot s of chunk q holds depth
        # j = (s - chunk_ptr[q]) // C, lane (s - chunk_ptr[q]) % C, i.e.
        # permuted row q*C + lane.  Ascending s reproduces the chunk-major,
        # depth-then-lane emission order of the per-chunk loop exactly.
        C = self.C
        s = np.nonzero(self.vals != 0.0)[0]
        if len(s) == 0:
            return csr_from_coo(self.n_rows, self.n_cols, [], [], [])
        q = np.searchsorted(self.chunk_ptr, s, side="right") - 1
        lane = (s - self.chunk_ptr[q]) % C
        p = q * C + lane
        valid = p < self.n_rows
        return csr_from_coo(
            self.n_rows, self.n_cols,
            self.row_perm[p[valid]],
            self.cols[s[valid]],
            self.vals[s[valid]],
            sum_duplicates=False,
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        widths = np.asarray(self.chunk_width, dtype=np.int64)
        y_perm = np.zeros(len(widths) * self.C, dtype=np.float64)
        C = self.C
        # Chunks grouped by padded width: every group is a dense
        # (n_chunks, width, C) tile stack reduced along the width axis in
        # one fused gather-multiply-reduce — the SIMD schedule SELL-C-σ
        # targets, without a Python loop over chunks.  The per-chunk
        # reduction order (depth-major over each contiguous (width, C)
        # tile) is unchanged, so results match the chunk-at-a-time loop.
        for width in np.unique(widths):
            if width == 0:
                continue
            sel = np.nonzero(widths == width)[0]
            slots = (
                self.chunk_ptr[sel][:, None]
                + np.arange(width * C, dtype=np.int64)[None, :]
            )
            tile_vals = self.vals[slots].reshape(len(sel), width, C)
            tile_cols = self.cols[slots].reshape(len(sel), width, C)
            lanes = (
                sel[:, None] * C + np.arange(C, dtype=np.int64)[None, :]
            )
            y_perm[lanes.reshape(-1)] = (
                (tile_vals * x[tile_cols]).sum(axis=1).reshape(-1)
            )
        y = np.zeros(self.n_rows, dtype=np.float64)
        y[self.row_perm] = y_perm[: self.n_rows]
        return y

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Window-sorted padding stats per matrix, straight from the
        stacked row-length segments (never refuses).  The chunk widths of
        the default layout come from
        :func:`~repro.devices.parallel.sell_chunk_widths`, the routine the
        imbalance model sorts with."""
        C, sigma = cls.DEFAULT_C, cls.DEFAULT_SIGMA
        n = len(batch)
        nnz = batch.nnz
        stored = np.zeros(n, dtype=np.int64)
        n_chunks = np.zeros(n, dtype=np.int64)
        for i in range(n):
            widths = sell_chunk_widths(batch.lengths_of(i), C, sigma)
            n_chunks[i] = len(widths)
            stored[i] = int(widths.sum()) * C
        meta = (
            stored * INDEX_BYTES
            + (n_chunks + 1) * INDEX_BYTES
            + n_chunks * INDEX_BYTES
            + batch.n_rows * INDEX_BYTES
        )
        return FormatStatsBatch(
            stored_elements=stored,
            padding_elements=stored - nnz,
            memory_bytes=stored * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=np.zeros(n, dtype=bool),
            simd_friendly=np.ones(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    def stats(self) -> FormatStats:
        stored = int(self.chunk_ptr[-1])
        meta = (
            stored * INDEX_BYTES
            + (len(self.chunk_width) + 1) * INDEX_BYTES  # chunk pointers
            + len(self.chunk_width) * INDEX_BYTES        # widths
            + self.n_rows * INDEX_BYTES                  # row permutation
        )
        return FormatStats(
            stored_elements=stored,
            padding_elements=stored - self._nnz,
            memory_bytes=stored * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=False,
            simd_friendly=True,
        )

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self._nnz
