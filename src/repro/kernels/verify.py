"""Correctness harness: every format kernel against scipy and each other."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.matrix import CSRMatrix
from ..formats.base import FORMAT_REGISTRY, FormatError
from .spmv import make_x

__all__ = ["verify_format", "verify_all_formats", "VerifyResult"]

RTOL = 1e-9
ATOL = 1e-11


class VerifyResult(dict):
    """Mapping format name -> 'ok' | 'refused: …' | 'FAILED: …'."""

    @property
    def all_ok(self) -> bool:
        return all(v == "ok" or v.startswith("refused") for v in self.values())


def verify_format(
    mat: CSRMatrix, format_name: str, x: Optional[np.ndarray] = None
) -> str:
    """Check one format's SpMV and CSR round-trip against the reference."""
    if x is None:
        x = make_x(mat.n_cols)
    reference = mat.to_scipy() @ x
    cls = FORMAT_REGISTRY[format_name]
    try:
        fmt = cls.from_csr(mat)
    except FormatError as exc:
        return f"refused: {exc}"
    y = fmt.spmv(x)
    if not np.allclose(y, reference, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(y - reference)))
        return f"FAILED: spmv deviates (max abs err {worst:.3e})"
    if not _same_entries(fmt.to_csr(), mat):
        return "FAILED: CSR round-trip deviates"
    return "ok"


def _same_entries(back: CSRMatrix, mat: CSRMatrix) -> bool:
    """``np.allclose(back, mat)`` without dense copies: the rule
    ``|back - mat| <= ATOL + RTOL * |mat|`` checked where the difference
    stores an entry (elsewhere both sides agree exactly)."""
    if back.shape != mat.shape:
        return False
    ref = mat.to_scipy()
    diff = (back.to_scipy() - ref).tocoo()
    if not diff.nnz:
        return True
    bound = ATOL + RTOL * np.abs(np.asarray(ref[diff.row, diff.col]))
    return bool(np.all(np.abs(diff.data) <= bound.ravel()))


def verify_all_formats(
    mat: CSRMatrix, names: Optional[Sequence[str]] = None
) -> VerifyResult:
    """Run :func:`verify_format` for all (or the given) registered formats."""
    x = make_x(mat.n_cols)
    out = VerifyResult()
    for name in names if names is not None else sorted(FORMAT_REGISTRY):
        out[name] = verify_format(mat, name, x)
    return out
