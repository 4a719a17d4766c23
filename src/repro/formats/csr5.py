"""CSR5 — Liu & Vinter [20], Section II-B.5.

CSR5 re-tiles the nonzero stream into fixed-size 2-D tiles (omega lanes x
sigma depth) and performs a segmented sum with per-tile descriptors, making
the work distribution independent of row boundaries — the load-imbalance
cure for GPUs.  We store the exact tile descriptor metadata (bit flags,
per-tile row offsets) and execute the segmented-sum schedule tile-free but
nnz-partitioned, which is the same arithmetic in vectorised NumPy.
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

__all__ = ["CSR5"]


@register_format
class CSR5(SparseFormat):
    """CSR5: tiled, nnz-balanced segmented-sum SpMV."""

    name = "CSR5"
    category = "research"
    device_classes = ("cpu", "gpu")
    partition_strategy = "nnz_split"

    OMEGA = 32   # tile lanes (GPU warp width in the paper's GPU targets)
    SIGMA = 16   # tile depth

    def __init__(self, mat: CSRMatrix, tile_ptr, tile_desc_bits):
        self.mat = mat
        self.tile_ptr = tile_ptr            # first row touched by each tile
        self.tile_desc_bits = tile_desc_bits  # descriptor payload (bytes)

    @classmethod
    def from_csr(cls, mat: CSRMatrix) -> "CSR5":
        tile_nnz = cls.OMEGA * cls.SIGMA
        n_tiles = (mat.nnz + tile_nnz - 1) // tile_nnz
        # tile_ptr[t]: row containing the first nonzero of tile t.
        starts = np.arange(n_tiles, dtype=np.int64) * tile_nnz
        tile_ptr = (
            np.searchsorted(mat.indptr, starts, side="right") - 1
            if n_tiles
            else np.zeros(0, dtype=np.int64)
        )
        # Descriptor: one bit flag per nonzero slot marking row starts, plus
        # y_offset/seg_offset words per tile lane (as in the CSR5 paper).
        desc_bits = n_tiles * (tile_nnz + 2 * cls.OMEGA * 32)
        return cls(mat, tile_ptr.astype(np.int64), int(desc_bits))

    @classmethod
    def stats_from_csr_batch(
        cls, batch: CSRStructBatch, matrices=None
    ) -> FormatStatsBatch:
        """Pure column math: tile-descriptor stats for the whole chunk."""
        n = len(batch)
        nnz = batch.nnz
        tile_nnz = cls.OMEGA * cls.SIGMA
        n_tiles = (nnz + tile_nnz - 1) // tile_nnz
        desc_bits = n_tiles * (tile_nnz + 2 * cls.OMEGA * 32)
        csr_meta = (nnz + batch.n_rows + 1) * INDEX_BYTES
        desc_bytes = (desc_bits + 7) // 8 + n_tiles * INDEX_BYTES
        return FormatStatsBatch(
            stored_elements=nnz,
            padding_elements=np.zeros(n, dtype=np.int64),
            memory_bytes=nnz * VALUE_BYTES + csr_meta + desc_bytes,
            metadata_bytes=csr_meta + desc_bytes,
            balance_aware=np.ones(n, dtype=bool),
            simd_friendly=np.ones(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    def to_csr(self) -> CSRMatrix:
        return self.mat

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mat = self.mat
        if mat.nnz == 0:
            return np.zeros(mat.n_rows)
        # Segmented sum over the flat nonzero stream: identical arithmetic
        # to the per-tile partial sums + carry propagation of CSR5.
        products = mat.data * x[mat.indices]
        csum = np.concatenate(([0.0], np.cumsum(products)))
        return csum[mat.indptr[1:]] - csum[mat.indptr[:-1]]

    def stats(self) -> FormatStats:
        nnz = self.mat.nnz
        csr_meta = nnz * INDEX_BYTES + (self.mat.n_rows + 1) * INDEX_BYTES
        desc_bytes = (self.tile_desc_bits + 7) // 8 + len(
            self.tile_ptr
        ) * INDEX_BYTES
        return FormatStats(
            stored_elements=nnz,
            padding_elements=0,
            memory_bytes=nnz * VALUE_BYTES + csr_meta + desc_bytes,
            metadata_bytes=csr_meta + desc_bytes,
            balance_aware=True,   # tiles split rows; work is nnz-balanced
            simd_friendly=True,   # fixed omega x sigma tiles
        )

    @property
    def shape(self):
        return self.mat.shape

    @property
    def nnz(self) -> int:
        return self.mat.nnz
