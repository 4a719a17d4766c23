"""Matrix instances: a materialised matrix plus its declared full scale.

Full-size paper matrices reach 2 GB in CSR; materialising thousands of
those in pure Python is infeasible, so dataset entries carry a
*representative* matrix (structurally faithful, capped nnz) together with
the declared :class:`~repro.core.generator.MatrixSpec`.  Every derived
value is read from a one-entry
:class:`~repro.perfmodel.fused.FusedSpecSource` over the instance, the
source every grid is scored from: scale-free statistics are measured on
the representative, size-dependent ones come from the declared spec.
What scoring derives stays on the instance across calls — its
:class:`~repro.perfmodel.fused.ScoringRecord` and its declared-scale
:class:`~repro.devices.parallel.RowProfile` — so one-off callers
(``simulate_spmv``, the CLI ``simulate``/``validate`` tables) generate a
scaled instance's profile once however many devices score it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.features import Features
from ..core.generator import MatrixSpec
from ..core.matrix import CSRMatrix
from ..devices.parallel import RowProfile
from ..formats.base import FormatStats, get_format
from .fused import FusedSpecSource, ScoringRecord

__all__ = ["MatrixInstance"]


@dataclass
class MatrixInstance:
    """A matrix to simulate: representative structure + declared scale."""

    matrix: CSRMatrix
    spec: Optional[MatrixSpec] = None
    name: str = ""

    def __post_init__(self):
        self.record = ScoringRecord()
        self.profile: Optional[RowProfile] = None

    def _source(self) -> FusedSpecSource:
        return FusedSpecSource.of_instances([self])

    # -- declared scale -------------------------------------------------
    @property
    def n_rows(self) -> int:
        return int(self._source().n_rows[0])

    @property
    def n_cols(self) -> int:
        return int(self._source().n_cols[0])

    @property
    def nnz(self) -> int:
        """Declared nonzeros, at the representative's realised density."""
        return int(self._source().nnz[0])

    @property
    def scale(self) -> float:
        """Declared rows over representative rows (>= 1)."""
        return float(self._source().scale[0])

    # -- derived statistics ---------------------------------------------
    @property
    def features(self) -> Features:
        """Measured features, with the footprint at declared scale."""
        return self._source().features(0)

    def row_profile(self) -> np.ndarray:
        """Row-length profile at declared scale (capped), for imbalance:
        the measured row lengths of an unscaled instance, regenerated
        from the spec for a scaled one."""
        return self._source().profile(0).lengths

    def format_stats(self, format_name: str) -> FormatStats:
        """The format's structural statistics at declared scale, straight
        from the CSR structure arrays
        (:meth:`~repro.formats.base.SparseFormat.stats_at_declared_scale`,
        which scoring decides through too): the simulator never reads
        format payloads.  Raises the :class:`FormatError` ``from_csr``
        would raise when the format refuses the matrix."""
        source = self._source()
        return get_format(format_name).stats_at_declared_scale(
            self.matrix, int(source.nnz[0]), int(source.n_cols[0])
        )

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: MatrixSpec,
        max_nnz: int = 200_000,
        name: str = "",
    ) -> "MatrixInstance":
        """Build the representative matrix for ``spec`` and wrap it."""
        return cls(matrix=spec.build(max_nnz=max_nnz), spec=spec, name=name)

    @classmethod
    def from_matrix(
        cls, matrix: CSRMatrix, name: str = ""
    ) -> "MatrixInstance":
        """Wrap a fully materialised matrix (no scaling)."""
        return cls(matrix=matrix, spec=None, name=name)
