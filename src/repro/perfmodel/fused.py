"""Fused sweeps: spec chunks scored without instances.

Every sweep chunk feeds the vectorised grid scorer
(:func:`repro.perfmodel.batch._score_grid`) straight from a chunk of
:class:`~repro.core.generator.MatrixSpec`:

1. :func:`~repro.core.generator.structure_batch` emits the chunk's raw
   CSR *structure* arrays (the value draw is the last RNG use of every
   generation engine, so skipping it leaves the structure bit-identical
   to the matrix :meth:`MatrixSpec.build` materialises);
2. :meth:`~repro.formats.base.SparseFormat.stats_from_csr_batch` turns
   the stacked structure into per-format stat columns — vectorised
   overrides for the closed-form formats, scalar fallback (on zero-data
   matrices) for the rest;
3. SIMD utilisation and imbalance factors come from the declared-scale
   row-length profile: the row-length histogram
   (:func:`~repro.perfmodel.instance.row_length_histogram`) and the
   partitioner dispatcher
   (:func:`~repro.devices.parallel.imbalance_for_strategy`), handed one
   :class:`~repro.devices.parallel.RowProfile` per spec so the total,
   prefix sum, SELL chunk widths and per-width warp cycles are computed
   once per profile and shared by every (strategy, workers, width) key.
   The scorer takes each spec's memos in turn and then releases it, so
   a pass holds one declared-scale profile at a time.

Everything the scorer reads about one spec is memoised in its
:class:`ScoringRecord` — the unit the instance cache persists.  A
source seeded with records derives only what they lack: a complete
record generates nothing, a missing SIMD/imbalance memo regenerates that
spec's profile, and a missing format or feature set regenerates that
spec's structure — in one :func:`structure_batch` wave for all the
specs that lack the same thing.  Every expression mirrors the
:class:`~repro.perfmodel.instance.MatrixInstance` computation
operation-for-operation, so sweeps are row-for-row bit-identical to
scoring materialised instances; ``tests/pipeline/test_fused_agreement.py``
locks that down against the instance oracle in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.features import Features, extract_features
from ..core.generator import MatrixSpec, row_length_profile, structure_batch
from ..core.matrix import CSRMatrix, CSRStructBatch
from ..devices.parallel import RowProfile, imbalance_for_strategy
from ..formats.base import FormatError, FormatStatsBatch, get_format
from .instance import (
    MAX_PROFILE_ROWS, histogram_simd_utilisation, row_length_histogram,
)
from .noise import component_hash

__all__ = ["FusedSpecSource", "ScoringRecord"]

# The per-format stat columns a record keeps, in order.
_STAT_FIELDS = ("stored_elements", "padding_elements", "memory_bytes",
                "metadata_bytes", "simd_friendly")

# A format's record entry: its stat column values, or its refusal.
FormatEntry = Union[Tuple[int, int, int, int, bool], str]


@dataclass
class ScoringRecord:
    """Everything scoring one spec reads, memoised.

    ``rows``/``nnz`` are the representative's dimensions (they fix the
    declared scale), ``features`` the measured features at declared
    scale, ``formats`` each format's stat column values
    (:data:`_STAT_FIELDS`) or its :class:`FormatError` message, and
    ``simd``/``imbalance`` the SIMD utilisation per width and the
    imbalance factor per ``(strategy, workers, width)``.  ``grown`` is
    set whenever a memo is added, so writers persist only records that
    changed.  Records carry no name: one record serves every dataset
    that holds the spec.
    """

    rows: Optional[int] = None
    nnz: Optional[int] = None
    features: Optional[Features] = None
    formats: Dict[str, FormatEntry] = field(default_factory=dict)
    simd: Dict[int, float] = field(default_factory=dict)
    imbalance: Dict[Tuple[str, int, int], float] = field(
        default_factory=dict
    )
    grown: bool = field(default=False, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready form (floats round-trip exactly through JSON)."""
        return {
            "rows": self.rows,
            "nnz": self.nnz,
            "features": (
                None if self.features is None else self.features.to_dict()
            ),
            "formats": {
                name: entry if isinstance(entry, str) else list(entry)
                for name, entry in self.formats.items()
            },
            "simd": {str(w): u for w, u in self.simd.items()},
            "imbalance": {
                f"{s}|{w}|{sw}": f
                for (s, w, sw), f in self.imbalance.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScoringRecord":
        """Inverse of :meth:`to_dict`; raises on a malformed record."""
        rec = cls(
            rows=None if d["rows"] is None else int(d["rows"]),
            nnz=None if d["nnz"] is None else int(d["nnz"]),
            features=(
                None if d["features"] is None
                else Features(**d["features"])
            ),
        )
        if (rec.features is None) != (rec.rows is None) or (
                (rec.rows is None) != (rec.nnz is None)):
            raise ValueError("record shape and features must come together")
        for name, entry in d["formats"].items():
            if isinstance(entry, str):
                rec.formats[name] = entry
            else:
                stored, padding, memory, meta, friendly = entry
                rec.formats[name] = (int(stored), int(padding), int(memory),
                                     int(meta), bool(friendly))
        rec.simd = {int(w): float(u) for w, u in d["simd"].items()}
        for key, factor in d["imbalance"].items():
            strategy, workers, width = key.rsplit("|", 2)
            rec.imbalance[(strategy, int(workers), int(width))] = float(
                factor
            )
        return rec


class FusedSpecSource:
    """Matrix-axis source for ``_score_grid`` built from specs alone.

    Implements the :class:`repro.perfmodel.batch._InstanceSource`
    protocol.  ``records`` (one :class:`ScoringRecord` or ``None`` per
    spec, e.g. from the instance cache) seed the memos and are extended
    in place; :attr:`records` holds the chunk's records afterwards.
    Structure is generated once, lazily and only for the specs whose
    records lack something structural; declared-scale profiles only for
    specs missing a SIMD or imbalance memo — never value payloads.  A
    profile is kept until :meth:`release` drops it; a later query
    regenerates it bit-identically.
    """

    # ``GridResult.instances`` stays empty; the table assembly gathers
    # feature columns from this source instead.
    instances: Tuple = ()

    def __init__(
        self,
        specs: Sequence[MatrixSpec],
        names: Sequence[str],
        max_nnz: Optional[int] = None,
        records: Optional[Sequence[Optional[ScoringRecord]]] = None,
    ):
        self.specs = list(specs)
        self._names = list(names)
        if len(self._names) != len(self.specs):
            raise ValueError("one name per spec required")
        if records is None:
            records = [None] * len(self.specs)
        elif len(records) != len(self.specs):
            raise ValueError("one record (or None) per spec required")
        self.records = [
            rec if rec is not None else ScoringRecord() for rec in records
        ]
        self.max_nnz = max_nnz

        # Per-spec structure: (batch, position) of its generation wave;
        # ``_batch`` is the wave covering the whole chunk, if any.
        self._where: Dict[int, Tuple[CSRStructBatch, int]] = {}
        self._batch: Optional[CSRStructBatch] = None
        self._ensure_structure(
            [i for i, rec in enumerate(self.records) if rec.features is None]
        )

        # Declared-scale scalars, columnar (MatrixInstance.scale / .nnz).
        self._decl_rows = np.array(
            [s.n_rows for s in self.specs], dtype=np.int64
        )
        self._decl_cols = np.array(
            [s.n_cols for s in self.specs], dtype=np.int64
        )
        rep_rows = np.array([r.rows for r in self.records], dtype=np.int64)
        rep_nnz = np.array([r.nnz for r in self.records], dtype=np.int64)
        self.scale = np.maximum(
            1.0, self._decl_rows / np.maximum(rep_rows, 1)
        )
        self.nnz = np.round(rep_nnz * self.scale).astype(np.int64)

        self._mats: Dict[int, CSRMatrix] = {}
        self._profiles: Dict[int, RowProfile] = {}
        self._hists: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.specs)

    def names(self) -> List[str]:
        return list(self._names)

    # -- memoised per-spec structure ----------------------------------
    def _ensure_structure(self, indices: Sequence[int]) -> None:
        """Generate the structure of ``indices`` not generated yet, in
        one :func:`structure_batch` wave (per-spec RNG streams make each
        entry independent of the wave it is generated in)."""
        todo = [i for i in indices if i not in self._where]
        if not todo:
            return
        batch = structure_batch(
            [self.specs[i] for i in todo], max_nnz=self.max_nnz
        )
        if len(todo) == len(self.specs):
            self._batch = batch
        for k, i in enumerate(todo):
            self._where[i] = (batch, k)
            rec = self.records[i]
            if rec.rows is None:
                rec.rows = int(batch.n_rows[k])
                rec.nnz = int(batch.nnz[k])

    def matrix(self, i: int) -> CSRMatrix:
        """Zero-data representative matrix ``i`` (structure-only users)."""
        if i not in self._mats:
            self._ensure_structure([i])
            batch, k = self._where[i]
            self._mats[i] = batch.matrix(k)
        return self._mats[i]

    def features(self, i: int) -> Features:
        """Measured features at declared scale (``MatrixInstance.features``)."""
        rec = self.records[i]
        if rec.features is None:
            measured = extract_features(self.matrix(i))
            nnz = int(self.nnz[i])
            n_rows = int(self._decl_rows[i])
            rec.features = replace(
                measured,
                mem_footprint_mb=(
                    (nnz * 12.0 + (n_rows + 1) * 4.0) / (1024 ** 2)
                ),
                n_rows=n_rows,
                n_cols=int(self._decl_cols[i]),
                nnz=nnz,
            )
            rec.grown = True
        return rec.features

    def profile(self, i: int) -> RowProfile:
        """Row-length profile at declared scale (``row_profile``), in the
        memo every partitioner call on spec ``i`` shares."""
        if i not in self._profiles:
            spec = self.specs[i]
            if self.scale[i] <= 1.0:
                self._ensure_structure([i])
                batch, k = self._where[i]
                lengths = batch.lengths_of(k)
            else:
                rows = min(spec.n_rows, MAX_PROFILE_ROWS)
                rng = np.random.default_rng(spec.seed)
                lengths = row_length_profile(
                    rows,
                    spec.n_cols,
                    spec.avg_nnz_per_row,
                    spec.std_ratio * spec.avg_nnz_per_row,
                    spec.skew_coeff,
                    rng,
                    spec.distribution,
                )
            self._profiles[i] = RowProfile(lengths)
        return self._profiles[i]

    def _hist(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row-length histogram of the declared-scale profile."""
        if i not in self._hists:
            self._hists[i] = row_length_histogram(self.profile(i).lengths)
        return self._hists[i]

    # -- _InstanceSource protocol -------------------------------------
    def scalar_arrays(self) -> Tuple[np.ndarray, ...]:
        n = len(self.specs)
        i_neigh = np.empty(n)
        i_sim = np.empty(n)
        i_noise_h = np.empty(n, dtype=np.uint64)
        for i in range(n):
            feats = self.features(i)
            i_neigh[i] = feats.avg_num_neighbours
            i_sim[i] = feats.cross_row_similarity
            key = self._names[i] or (
                int(self._decl_rows[i]), int(self._decl_cols[i]),
                int(self.nnz[i]),
            )
            i_noise_h[i] = component_hash(key)
        return (
            self.scale.astype(np.float64, copy=True),
            self.nnz.copy(),
            self._decl_rows.copy(),
            self._decl_cols.copy(),
            i_neigh,
            i_sim,
            i_noise_h,
        )

    def _format_stats(self, cls, todo: List[int]) -> FormatStatsBatch:
        """Stats of ``cls`` for the specs ``todo``, one batch entry each."""
        self._ensure_structure(todo)
        if hasattr(cls, "stats_at_density"):
            # Density-corrected formats decide per matrix whether the
            # rectangular representative dilutes the per-column
            # population (SparseFormat.stats_at_declared_scale).
            fsb = FormatStatsBatch.empty(len(todo))
            for k, i in enumerate(todo):
                try:
                    stats = cls.stats_at_declared_scale(
                        self.matrix(i), int(self.nnz[i]),
                        int(self._decl_cols[i]),
                    )
                except FormatError as exc:
                    fsb.fail[k] = True
                    fsb.fail_reason[k] = str(exc)
                    continue
                fsb.put(k, stats)
            return fsb
        mats = [self.matrix(i) for i in todo]
        batch = (
            self._batch if len(todo) == len(self.specs)
            and self._batch is not None
            else CSRStructBatch.from_matrices(mats)
        )
        return cls.stats_from_csr_batch(batch, matrices=mats)

    def format_stats_columns(
        self, name: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray, Dict[int, str]]:
        n = len(self.specs)
        todo = [i for i in range(n) if name not in self.records[i].formats]
        if todo:
            fsb = self._format_stats(get_format(name), todo)
            for k, i in enumerate(todo):
                rec = self.records[i]
                rec.formats[name] = (
                    fsb.fail_reason[k] if fsb.fail[k] else tuple(
                        getattr(fsb, f)[k].item() for f in _STAT_FIELDS
                    )
                )
                rec.grown = True
        cols = FormatStatsBatch.empty(n)
        for i in range(n):
            entry = self.records[i].formats[name]
            if isinstance(entry, str):
                cols.fail[i] = True
                cols.fail_reason[i] = entry
            else:
                for f, value in zip(_STAT_FIELDS, entry):
                    getattr(cols, f)[i] = value
        useful = cols.stored_elements - cols.padding_elements
        pad = np.zeros(n)
        nz = useful != 0
        pad[nz] = cols.padding_elements[nz] / useful[nz]
        return (
            cols.memory_bytes, cols.metadata_bytes, cols.stored_elements,
            pad, cols.simd_friendly, cols.fail, cols.fail_reason,
        )

    def prepare_memos(self, widths: Sequence[int], need_w: np.ndarray,
                      keys: Sequence[Tuple[str, int, int]],
                      need_key: np.ndarray) -> None:
        """Generate, in one :func:`structure_batch` wave, the structure of
        every unscaled spec whose record lacks a SIMD (``need_w[i, k]``
        for ``widths[k]``) or imbalance (``need_key[i, k]`` for
        ``keys[k]``) memo the scorer is about to ask for: such a spec's
        profile is its structure's row lengths."""
        todo = []
        for i, rec in enumerate(self.records):
            if self.scale[i] > 1.0:
                continue
            lacks_simd = any(
                need and w > 1 and w not in rec.simd
                for w, need in zip(widths, need_w[i])
            )
            lacks_imbalance = any(
                need and key not in rec.imbalance
                for key, need in zip(keys, need_key[i])
            )
            if lacks_simd or lacks_imbalance:
                todo.append(i)
        self._ensure_structure(todo)

    def simd_utilisation(self, i: int, width: int) -> float:
        if width <= 1:
            return 1.0
        rec = self.records[i]
        if width not in rec.simd:
            rec.simd[width] = histogram_simd_utilisation(
                self._hist(i), width
            )
            rec.grown = True
        return rec.simd[width]

    def imbalance_factor(
        self, i: int, strategy: str, workers: int, width: int
    ) -> float:
        """Imbalance via the partitioner dispatcher, on the spec's shared
        :class:`~repro.devices.parallel.RowProfile`: one prefix sum, one
        SELL sort pipeline and one warp-cycle array per width for every
        worker count."""
        rec = self.records[i]
        key = (strategy, workers, width)
        if key in rec.imbalance:
            return rec.imbalance[key]
        factor = float(imbalance_for_strategy(
            strategy, self.profile(i), workers, width
        ).factor)
        rec.imbalance[key] = factor
        rec.grown = True
        return factor

    def release(self, i: int) -> None:
        """Drop spec ``i``'s profile and histogram once its memos are
        taken."""
        self._profiles.pop(i, None)
        self._hists.pop(i, None)
