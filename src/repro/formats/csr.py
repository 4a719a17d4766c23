"""CSR variants — Section II-B.2 and the CSR flavours of Table II.

``NaiveCSR`` is the plain row-parallel kernel; ``VectorizedCSR`` models the
SIMD-within-row variant ("Vec-CSR"); ``BalancedCSR`` adds nonzero-balanced
row partitioning ("Bal-CSR", the IBM POWER9 entry).  All three share CSR
storage — they differ in kernel schedule, which is what the device model
consumes (``balance_aware`` / ``simd_friendly`` flags and the partitioner
attached to each).
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

__all__ = ["NaiveCSR", "VectorizedCSR", "BalancedCSR"]


class _CSRBase(SparseFormat):
    """Shared CSR storage and conversion plumbing."""

    partition_strategy = "row_block"  # consumed by devices.parallel
    # Kernel-schedule flags reported by `stats`; CSR storage itself is
    # identical across the family, so subclasses only override these.
    STATS_FLAGS = {"balance_aware": False, "simd_friendly": False}

    def __init__(self, mat: CSRMatrix):
        self.mat = mat

    @classmethod
    def from_csr(cls, mat: CSRMatrix):
        return cls(mat)

    def to_csr(self) -> CSRMatrix:
        return self.mat

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self.mat.spmv(x)

    @classmethod
    def _csr_stats(cls, n_rows: int, nnz: int) -> FormatStats:
        meta = nnz * INDEX_BYTES + (n_rows + 1) * INDEX_BYTES
        return FormatStats(
            stored_elements=nnz,
            padding_elements=0,
            memory_bytes=meta + nnz * VALUE_BYTES,
            metadata_bytes=meta,
            **cls.STATS_FLAGS,
        )

    def stats(self) -> FormatStats:
        return self._csr_stats(self.mat.n_rows, self.mat.nnz)

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Vectorised `_csr_stats` over the whole chunk (never refuses)."""
        nnz = batch.nnz
        meta = (nnz + batch.n_rows + 1) * INDEX_BYTES
        n = len(batch)
        return FormatStatsBatch(
            stored_elements=nnz,
            padding_elements=np.zeros(n, dtype=np.int64),
            memory_bytes=meta + nnz * VALUE_BYTES,
            metadata_bytes=meta,
            balance_aware=np.full(
                n, cls.STATS_FLAGS["balance_aware"], dtype=bool
            ),
            simd_friendly=np.full(
                n, cls.STATS_FLAGS["simd_friendly"], dtype=bool
            ),
            fail=np.zeros(n, dtype=bool),
        )

    @property
    def shape(self):
        return self.mat.shape

    @property
    def nnz(self) -> int:
        return self.mat.nnz


@register_format
class NaiveCSR(_CSRBase):
    """Standard row-parallel CSR SpMV ("Naive-CSR" in Fig 7)."""

    name = "Naive-CSR"
    category = "state-of-practice"
    device_classes = ("cpu", "gpu")
    partition_strategy = "row_block"
    STATS_FLAGS = {"balance_aware": False, "simd_friendly": False}


@register_format
class VectorizedCSR(_CSRBase):
    """CSR with vectorised within-row accumulation ("Vec-CSR" in Fig 7).

    Same storage as CSR; the kernel processes each row's nonzeros with SIMD
    lanes, improving ILP for long rows but doing nothing for imbalance.
    """

    name = "Vectorized-CSR"
    category = "state-of-practice"
    device_classes = ("cpu",)
    partition_strategy = "row_block"
    STATS_FLAGS = {"balance_aware": False, "simd_friendly": True}

    def spmv(self, x: np.ndarray) -> np.ndarray:
        # NumPy's segmented evaluation *is* the vectorised schedule.
        return self.mat.spmv(x)


@register_format
class BalancedCSR(_CSRBase):
    """CSR with nonzero-balanced row blocks ("Bal-CSR" in Fig 7).

    Rows are grouped so that every worker receives an (approximately) equal
    number of nonzeros — row-resolution balancing, i.e. a long row still
    belongs to a single worker.
    """

    name = "Balanced-CSR"
    category = "state-of-practice"
    device_classes = ("cpu",)
    partition_strategy = "nnz_row"
    STATS_FLAGS = {"balance_aware": True, "simd_friendly": False}

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self.mat.spmv(x)

    def row_partition(self, n_workers: int) -> np.ndarray:
        """Row boundaries assigning ~equal nonzeros per worker.

        Returns ``n_workers + 1`` row offsets.  Used both by the kernel
        schedule and by the device model's imbalance measurement.
        """
        nnz = self.mat.nnz
        targets = np.linspace(0, nnz, n_workers + 1)
        bounds = np.searchsorted(self.mat.indptr, targets, side="left")
        bounds[0], bounds[-1] = 0, self.mat.n_rows
        return np.maximum.accumulate(bounds).astype(np.int64)
