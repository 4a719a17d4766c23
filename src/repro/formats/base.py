"""Storage-format abstraction.

Every format in Section II-B is implemented as a :class:`SparseFormat`
subclass: conversion from CSR, a correct (NumPy-vectorised) SpMV kernel,
exact memory accounting, and the structural statistics the performance
model consumes (padding ratio, metadata volume, work partitioning quality).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

import numpy as np

from ..core.matrix import CSRMatrix, CSRStructBatch

__all__ = [
    "SparseFormat",
    "FormatStats",
    "FormatStatsBatch",
    "FormatError",
    "CapacityError",
    "register_format",
    "get_format",
    "available_formats",
    "FORMAT_REGISTRY",
]

INDEX_BYTES = 4
VALUE_BYTES = 8

# Relative gap between a representative's column density and its declared
# matrix's beyond which density-corrected formats rescale their stats.
DENSITY_TOLERANCE = 0.05


class FormatError(ValueError):
    """A matrix cannot be represented in this format (e.g. padding blowup)."""


class CapacityError(FormatError):
    """The converted matrix exceeds a hard storage capacity (paper: VSL
    matrices overflowing the Alveo-U280 HBM channels)."""


@dataclass(frozen=True)
class FormatStats:
    """Structural statistics of a converted matrix.

    Attributes
    ----------
    stored_elements:
        Total value slots stored, including padding.
    padding_elements:
        Explicit zero slots added by the format.
    memory_bytes:
        Exact storage size (values + all metadata).
    metadata_bytes:
        Bytes spent on anything that is not a value (indices, pointers,
        descriptors).
    balance_aware:
        Whether the format's work distribution equalises nonzeros rather
        than rows (drives the imbalance penalty in the device model).
    simd_friendly:
        Whether the layout exposes contiguous per-row/per-chunk vector work.
    """

    stored_elements: int
    padding_elements: int
    memory_bytes: int
    metadata_bytes: int
    balance_aware: bool = False
    simd_friendly: bool = False

    @property
    def padding_ratio(self) -> float:
        """Padding slots as a fraction of *useful* nonzeros."""
        useful = self.stored_elements - self.padding_elements
        return self.padding_elements / useful if useful else 0.0


@dataclass
class FormatStatsBatch:
    """Columnar :class:`FormatStats` for a chunk of matrices.

    One entry per matrix of a :class:`~repro.core.matrix.CSRStructBatch`.
    Refusals are carried in-band: ``fail[i]`` marks matrices the format
    rejected and ``fail_reason[i]`` holds the exact :class:`FormatError`
    message ``from_csr`` would have raised — scoring replays both, so
    skip reasons name the conversion's own refusal.
    """

    stored_elements: np.ndarray
    padding_elements: np.ndarray
    memory_bytes: np.ndarray
    metadata_bytes: np.ndarray
    balance_aware: np.ndarray
    simd_friendly: np.ndarray
    fail: np.ndarray
    fail_reason: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.stored_elements = np.asarray(
            self.stored_elements, dtype=np.int64
        )
        self.padding_elements = np.asarray(
            self.padding_elements, dtype=np.int64
        )
        self.memory_bytes = np.asarray(self.memory_bytes, dtype=np.int64)
        self.metadata_bytes = np.asarray(self.metadata_bytes, dtype=np.int64)
        self.balance_aware = np.asarray(self.balance_aware, dtype=bool)
        self.simd_friendly = np.asarray(self.simd_friendly, dtype=bool)
        self.fail = np.asarray(self.fail, dtype=bool)

    def __len__(self) -> int:
        return len(self.stored_elements)

    @classmethod
    def empty(cls, n: int) -> "FormatStatsBatch":
        """All-zero batch of size ``n`` (filled entry by entry)."""
        return cls(
            stored_elements=np.zeros(n, dtype=np.int64),
            padding_elements=np.zeros(n, dtype=np.int64),
            memory_bytes=np.zeros(n, dtype=np.int64),
            metadata_bytes=np.zeros(n, dtype=np.int64),
            balance_aware=np.zeros(n, dtype=bool),
            simd_friendly=np.zeros(n, dtype=bool),
            fail=np.zeros(n, dtype=bool),
        )

    def put(self, i: int, st: FormatStats) -> None:
        """Store one scalar result at position ``i``."""
        self.stored_elements[i] = st.stored_elements
        self.padding_elements[i] = st.padding_elements
        self.memory_bytes[i] = st.memory_bytes
        self.metadata_bytes[i] = st.metadata_bytes
        self.balance_aware[i] = st.balance_aware
        self.simd_friendly[i] = st.simd_friendly

    def stats(self, i: int) -> FormatStats:
        """Scalar view of entry ``i``; replays the stored refusal."""
        if self.fail[i]:
            raise FormatError(self.fail_reason[i])
        return FormatStats(
            stored_elements=int(self.stored_elements[i]),
            padding_elements=int(self.padding_elements[i]),
            memory_bytes=int(self.memory_bytes[i]),
            metadata_bytes=int(self.metadata_bytes[i]),
            balance_aware=bool(self.balance_aware[i]),
            simd_friendly=bool(self.simd_friendly[i]),
        )


class SparseFormat(abc.ABC):
    """Abstract sparse storage format.

    Subclasses set ``name`` (registry key), ``category`` ("state-of-practice"
    or "research" — the paper's two groups) and ``device_classes`` (which of
    cpu/gpu/fpga the format is used on in Table II).
    """

    name: str = "abstract"
    category: str = "state-of-practice"
    device_classes = ("cpu", "gpu")

    @classmethod
    @abc.abstractmethod
    def from_csr(cls, mat: CSRMatrix) -> "SparseFormat":
        """Convert from CSR.  Raises :class:`FormatError` when infeasible."""

    @abc.abstractmethod
    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR (used by round-trip verification)."""

    @abc.abstractmethod
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Compute ``y = A @ x``."""

    @abc.abstractmethod
    def stats(self) -> FormatStats:
        """Structural statistics for the performance model."""

    @classmethod
    def stats_from_csr(cls, mat: CSRMatrix) -> FormatStats:
        """Analytic statistics: what ``from_csr(mat).stats()`` would return,
        without materialising the format.

        Scoring never touches a format's payload arrays, so built-in
        formats compute their stats in closed form over the CSR structure
        arrays — including the exact :class:`FormatError`/
        :class:`CapacityError` rejections ``from_csr`` would raise, with
        identical messages.  Each closed form is written once: a format
        with a vectorised :meth:`stats_from_csr_batch` answers here with a
        batch of one, while BCSR, SparseX and VSL override this scalar
        form, which the batch default loops over.  A format with neither
        (a third-party subclass) is converted and reduced.
        """
        batch_form = cls.stats_from_csr_batch.__func__
        if batch_form is not SparseFormat.stats_from_csr_batch.__func__:
            return cls.stats_from_csr_batch(
                CSRStructBatch.from_matrices([mat]), matrices=[mat]
            ).stats(0)
        return cls.from_csr(mat).stats()

    @classmethod
    def stats_from_csr_batch(
        cls,
        batch: CSRStructBatch,
        matrices=None,
    ) -> FormatStatsBatch:
        """Batched analytic statistics for a whole structure chunk.

        The scoring source calls this once per format per chunk.  Hot
        formats override it with vectorised column math over the stacked
        structure arrays; this default is the per-matrix fallback — it
        scores each matrix through :meth:`stats_from_csr` and folds
        refusals into the batch's ``fail``/``fail_reason`` fields, so
        fallback formats produce the same columns (and the same error
        messages) as their scalar form, just one matrix at a time.

        ``matrices`` optionally supplies pre-materialised per-chunk
        :class:`CSRMatrix` views (the scoring source shares one set across
        every fallback format); otherwise each is built from the batch.
        """
        n = len(batch)
        out = FormatStatsBatch.empty(n)
        for i in range(n):
            mat = matrices[i] if matrices is not None else batch.matrix(i)
            try:
                out.put(i, cls.stats_from_csr(mat))
            except FormatError as exc:
                out.fail[i] = True
                out.fail_reason[i] = str(exc)
        return out

    @classmethod
    def stats_at_density_from_csr(
        cls, mat: CSRMatrix, cell_density: float
    ) -> FormatStats:
        """Analytic counterpart of the ``stats_at_density`` correction hook
        (density-rescaled statistics for scaled rectangular representatives).

        Formats exposing ``stats_at_density`` override this; the default
        materialises and delegates, so third-party hooks keep working.
        """
        fmt = cls.from_csr(mat)
        if hasattr(fmt, "stats_at_density"):
            return fmt.stats_at_density(cell_density)
        return fmt.stats()

    @classmethod
    def stats_at_declared_scale(
        cls, mat: CSRMatrix, nnz: int, n_cols: int
    ) -> FormatStats:
        """Analytic statistics of the representative ``mat`` standing in
        for a declared matrix of ``nnz`` nonzeros over ``n_cols`` columns.

        Rectangular representatives dilute per-column populations, which
        overstates the padding of column-density-sensitive formats (those
        exposing ``stats_at_density``).  When the declared column density
        differs from the representative's by more than
        ``DENSITY_TOLERANCE``, those formats score at the declared
        per-channel cell density; every other case is
        :meth:`stats_from_csr`.  The scoring source and
        ``MatrixInstance.format_stats`` both decide through here.
        """
        if hasattr(cls, "stats_at_density"):
            rep_density = mat.nnz / max(mat.n_cols, 1)
            dec_density = nnz / max(n_cols, 1)
            if rep_density > 0 and (
                abs(dec_density / rep_density - 1.0) > DENSITY_TOLERANCE
            ):
                return cls.stats_at_density_from_csr(
                    mat, dec_density / cls.N_CHANNELS
                )
        return cls.stats_from_csr(mat)

    # Convenience -------------------------------------------------------
    @property
    @abc.abstractmethod
    def shape(self):
        """(n_rows, n_cols)."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Useful (non-padding) nonzeros."""

    def memory_bytes(self) -> int:
        return self.stats().memory_bytes

    def memory_mb(self) -> float:
        return self.memory_bytes() / (1024.0 * 1024.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        r, c = self.shape
        return f"<{type(self).__name__} {r}x{c} nnz={self.nnz}>"


FORMAT_REGISTRY: Dict[str, Type[SparseFormat]] = {}


def register_format(cls: Type[SparseFormat]) -> Type[SparseFormat]:
    """Class decorator adding a format to the global registry."""
    if cls.name in FORMAT_REGISTRY:
        raise ValueError(f"duplicate format name {cls.name!r}")
    FORMAT_REGISTRY[cls.name] = cls
    return cls


def get_format(name: str) -> Type[SparseFormat]:
    """Look up a format class by registry name."""
    try:
        return FORMAT_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown format {name!r}; available: "
            f"{sorted(FORMAT_REGISTRY)}"
        ) from None


def available_formats(
    device_class: Optional[str] = None, category: Optional[str] = None
) -> List[str]:
    """Registry names, optionally filtered by device class / category."""
    names = []
    for name, cls in sorted(FORMAT_REGISTRY.items()):
        if device_class is not None and device_class not in cls.device_classes:
            continue
        if category is not None and cls.category != category:
            continue
        names.append(name)
    return names
