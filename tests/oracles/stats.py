"""Reference format stats: full conversions and scalar closed forms.

Before every built-in format computed its structural statistics in
closed form from the CSR arrays, ``MatrixInstance.format_stats`` could
run with ``stats_engine = "materialise"``: convert the representative
with ``from_csr`` (padded payloads and all) and reduce the result.
:func:`materialised_format_stats` is that engine, unchanged, with its own
copy of the declared-density rule, so the analytic path can be compared
with it cell for cell and timed against it
(``benchmarks/bench_cold_sweep.py``).

Before ``SparseFormat.stats_from_csr`` became a batch of one, nine
format families also wrote their closed form a second time, one matrix
per call, beside the vectorised ``stats_from_csr_batch``.
:func:`scalar_stats` holds those nine forms, unchanged, so every batch
entry can be compared with an independent derivation; BCSR, SparseX and
VSL keep their scalar form in ``src/`` (it is their batch fallback).
"""

import numpy as np

from repro.formats.base import (
    INDEX_BYTES, VALUE_BYTES, FormatError, FormatStats, get_format,
)
from repro.formats.coo import COO
from repro.formats.csr import _CSRBase
from repro.formats.csr5 import CSR5
from repro.formats.dia import DIA
from repro.formats.ell import DEFAULT_MAX_BLOWUP, ELL, HYB
from repro.formats.jad import JAD
from repro.formats.merge import MergeCSR
from repro.formats.sellcs import SELLCSigma

from tests.oracles.sweep import derived


def materialised_format_stats(instance, format_name: str) -> FormatStats:
    """``format_name``'s stats for ``instance`` through a full
    conversion; raises the ``FormatError`` ``from_csr`` raises.

    A rectangular representative dilutes per-column populations, so a
    density-corrected format (one with ``stats_at_density``) rescales
    to the declared per-channel density when the declared and
    representative column densities differ by more than 5%.
    """
    cls = get_format(format_name)
    fmt = cls.from_csr(instance.matrix)
    if hasattr(cls, "stats_at_density"):
        declared = derived(instance)
        rep_density = instance.matrix.nnz / max(instance.matrix.n_cols, 1)
        dec_density = declared.nnz / max(declared.n_cols, 1)
        if rep_density > 0 and abs(dec_density / rep_density - 1.0) > 0.05:
            return fmt.stats_at_density(dec_density / cls.N_CHANNELS)
    return fmt.stats()


# -- the nine scalar closed forms, ``(cls, mat) -> FormatStats`` ---------
def _coo(cls, mat) -> FormatStats:
    meta = 2 * mat.nnz * INDEX_BYTES
    return FormatStats(
        stored_elements=mat.nnz,
        padding_elements=0,
        memory_bytes=meta + mat.nnz * VALUE_BYTES,
        metadata_bytes=meta,
        balance_aware=True,
        simd_friendly=False,
    )


def _csr(cls, mat) -> FormatStats:
    meta = mat.nnz * INDEX_BYTES + (mat.n_rows + 1) * INDEX_BYTES
    return FormatStats(
        stored_elements=mat.nnz,
        padding_elements=0,
        memory_bytes=meta + mat.nnz * VALUE_BYTES,
        metadata_bytes=meta,
        **cls.STATS_FLAGS,
    )


def _csr5(cls, mat) -> FormatStats:
    """CSR storage plus per-tile descriptor maths."""
    tile_nnz = cls.OMEGA * cls.SIGMA
    n_tiles = (mat.nnz + tile_nnz - 1) // tile_nnz
    desc_bits = n_tiles * (tile_nnz + 2 * cls.OMEGA * 32)
    csr_meta = mat.nnz * INDEX_BYTES + (mat.n_rows + 1) * INDEX_BYTES
    desc_bytes = (desc_bits + 7) // 8 + n_tiles * INDEX_BYTES
    return FormatStats(
        stored_elements=mat.nnz,
        padding_elements=0,
        memory_bytes=mat.nnz * VALUE_BYTES + csr_meta + desc_bytes,
        metadata_bytes=csr_meta + desc_bytes,
        balance_aware=True,
        simd_friendly=True,
    )


def _dia(cls, mat, max_blowup=DIA.DEFAULT_MAX_BLOWUP) -> FormatStats:
    """Stats from the populated-diagonal count alone."""
    if mat.nnz == 0:
        return FormatStats(
            stored_elements=0, padding_elements=0,
            memory_bytes=0, metadata_bytes=0,
            balance_aware=True, simd_friendly=True,
        )
    rows = np.repeat(np.arange(mat.n_rows, dtype=np.int64), mat.row_lengths)
    uniq = np.unique(mat.indices.astype(np.int64) - rows)
    stored = len(uniq) * mat.n_rows
    if stored > max_blowup * mat.nnz:
        raise FormatError(
            f"DIA needs {len(uniq)} diagonals "
            f"({stored / mat.nnz:.1f}x blowup > {max_blowup}x)"
        )
    meta = len(uniq) * INDEX_BYTES
    return FormatStats(
        stored_elements=stored,
        padding_elements=stored - mat.nnz,
        memory_bytes=stored * VALUE_BYTES + meta,
        metadata_bytes=meta,
        balance_aware=True,
        simd_friendly=True,
    )


def _ell(cls, mat, max_blowup=DEFAULT_MAX_BLOWUP) -> FormatStats:
    """stored = n_rows x max row length, no arrays."""
    width = int(mat.row_lengths.max()) if mat.n_rows else 0
    stored = mat.n_rows * width
    if mat.nnz and stored > max_blowup * mat.nnz:
        raise FormatError(
            f"ELL padding blowup {stored / max(mat.nnz, 1):.1f}x exceeds "
            f"limit {max_blowup}x (max row {width}, "
            f"avg {mat.nnz / max(mat.n_rows, 1):.1f})"
        )
    meta = stored * INDEX_BYTES
    return FormatStats(
        stored_elements=stored,
        padding_elements=stored - mat.nnz,
        memory_bytes=stored * (INDEX_BYTES + VALUE_BYTES),
        metadata_bytes=meta,
        balance_aware=True,
        simd_friendly=True,
    )


def _hyb(cls, mat, k=None) -> FormatStats:
    """ELL-part + COO-part stats at the split threshold."""
    if k is None:
        k = max(1, int(round(mat.nnz / max(mat.n_rows, 1))))
    k = int(k)
    ell_len = np.minimum(mat.row_lengths, k)
    ell_width = int(ell_len.max()) if mat.n_rows else 0
    ell_nnz = int(ell_len.sum())
    ell_stored = mat.n_rows * ell_width
    coo_nnz = mat.nnz - ell_nnz
    ell_meta = ell_stored * INDEX_BYTES
    coo_meta = 2 * coo_nnz * INDEX_BYTES
    return FormatStats(
        stored_elements=ell_stored + coo_nnz,
        padding_elements=ell_stored - ell_nnz,
        memory_bytes=(
            ell_stored * (INDEX_BYTES + VALUE_BYTES)
            + coo_meta + coo_nnz * VALUE_BYTES
        ),
        metadata_bytes=ell_meta + coo_meta,
        balance_aware=True,
        simd_friendly=True,
    )


def _jad(cls, mat) -> FormatStats:
    """The jagged-diagonal count is the longest row; storage is nnz with
    no padding."""
    n_diag = int(mat.row_lengths.max()) if mat.n_rows and mat.nnz else 0
    meta = (
        mat.nnz * INDEX_BYTES
        + (n_diag + 1) * INDEX_BYTES
        + mat.n_rows * INDEX_BYTES  # permutation
    )
    return FormatStats(
        stored_elements=mat.nnz,
        padding_elements=0,
        memory_bytes=mat.nnz * VALUE_BYTES + meta,
        metadata_bytes=meta,
        balance_aware=True,
        simd_friendly=True,
    )


def _merge(cls, mat) -> FormatStats:
    """Plain CSR storage; the merge-path split adds nothing stored."""
    meta = mat.nnz * INDEX_BYTES + (mat.n_rows + 1) * INDEX_BYTES
    return FormatStats(
        stored_elements=mat.nnz,
        padding_elements=0,
        memory_bytes=mat.nnz * VALUE_BYTES + meta,
        metadata_bytes=meta,
        balance_aware=True,
        simd_friendly=False,
    )


def _sell_chunk_widths(lengths, C, sigma):
    """Per-chunk padded widths after a descending sort per window."""
    n_rows = len(lengths)
    n_chunks = (n_rows + C - 1) // C
    if n_chunks == 0:
        return np.zeros(0, dtype=np.int64)
    perm_lengths = np.zeros(n_chunks * C, dtype=np.int64)
    full = (n_rows // sigma) * sigma
    if full:
        perm_lengths[:full] = -np.sort(
            -lengths[:full].reshape(-1, sigma), axis=1
        ).reshape(-1)
    if full < n_rows:
        perm_lengths[full:n_rows] = -np.sort(-lengths[full:])
    return perm_lengths.reshape(n_chunks, C).max(axis=1)


def _sell(cls, mat, C=None, sigma=None) -> FormatStats:
    """Stats from the window-sorted row-length profile."""
    C = cls.DEFAULT_C if C is None else int(C)
    sigma = cls.DEFAULT_SIGMA if sigma is None else int(sigma)
    widths = _sell_chunk_widths(mat.row_lengths, C, sigma)
    n_chunks = len(widths)
    stored = int(widths.sum()) * C
    meta = (
        stored * INDEX_BYTES
        + (n_chunks + 1) * INDEX_BYTES  # chunk pointers
        + n_chunks * INDEX_BYTES        # widths
        + mat.n_rows * INDEX_BYTES      # row permutation
    )
    return FormatStats(
        stored_elements=stored,
        padding_elements=stored - mat.nnz,
        memory_bytes=stored * VALUE_BYTES + meta,
        metadata_bytes=meta,
        balance_aware=False,
        simd_friendly=True,
    )


# The class that held each form; vendor subclasses inherit theirs.
SCALAR_FORMS = {
    COO: _coo, _CSRBase: _csr, CSR5: _csr5, DIA: _dia, ELL: _ell,
    HYB: _hyb, JAD: _jad, MergeCSR: _merge, SELLCSigma: _sell,
}


def scalar_stats(cls, mat) -> FormatStats:
    """``cls``'s scalar closed form on ``mat``: the moved form of the
    nearest class in its MRO that held one, else the format's own
    ``stats_from_csr`` (BCSR, SparseX, VSL).  Raises the refusal the
    scalar form raised."""
    for klass in cls.__mro__:
        if klass in SCALAR_FORMS:
            return SCALAR_FORMS[klass](cls, mat)
    return cls.stats_from_csr(mat)
