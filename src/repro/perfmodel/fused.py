"""The matrix source every grid is scored from.

:func:`repro.perfmodel.batch._score_grid` reads everything about its
matrix axis from a :class:`FusedSpecSource`: one entry per matrix, each
a :class:`~repro.core.generator.MatrixSpec`, a given
:class:`~repro.core.matrix.CSRMatrix`, or both (a representative and its
declared matrix).  Sweeps feed it spec chunks; ``simulate_grid`` feeds it
:class:`~repro.perfmodel.instance.MatrixInstance` objects.

1. An entry's *structure* is the matrix it was given, never regenerated.
   The others get theirs from
   :func:`~repro.core.generator.structure_batch`: the chunk's raw CSR
   structure arrays (the value draw is the last RNG use of every
   generation engine, so skipping it leaves the structure bit-identical
   to the matrix :meth:`MatrixSpec.build` materialises).
2. :meth:`~repro.formats.base.SparseFormat.stats_from_csr_batch` turns
   the stacked structure into per-format stat columns — vectorised
   closed forms for most formats, the scalar fallback for the rest.
   Density-corrected formats decide per entry through
   :meth:`~repro.formats.base.SparseFormat.stats_at_declared_scale`.
3. Scale-free statistics (features, padding) are measured on the
   structure; size-dependent ones come from the declared spec.  SIMD
   utilisation and imbalance factors come from the declared-scale
   row-length profile: regenerated from the spec at up to
   :data:`MAX_PROFILE_ROWS` rows for a scaled entry, the structure's row
   lengths for a spec-less or unscaled one.  Each profile sits in one
   :class:`~repro.devices.parallel.RowProfile`, so the total, prefix
   sum, SELL chunk widths and per-width warp cycles are computed once
   per profile and shared by every (strategy, workers, width) key.  The
   scorer takes each entry's memos in turn and then releases it, so a
   pass holds one full-length profile pass at a time.

Everything the scorer reads about one entry is memoised in its
:class:`ScoringRecord` — the unit the instance cache persists.  A
source seeded with records derives only what they lack: a complete
record generates nothing, a missing SIMD/imbalance memo regenerates that
entry's profile, and a missing format or feature set regenerates that
entry's structure — in one :func:`structure_batch` wave for all the
entries that lack the same thing.  Sweeps are therefore row-for-row
bit-identical to scoring materialised instances;
``tests/pipeline/test_fused_agreement.py`` locks that down against the
instance oracle in ``tests/oracles/sweep.py``.
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
from .noise import component_hash

__all__ = ["FusedSpecSource", "ScoringRecord", "row_length_histogram",
           "histogram_simd_utilisation"]

# Imbalance statistics converge long before this many rows; the cap bounds
# profile memory for multi-GB declared matrices.
MAX_PROFILE_ROWS = 2_000_000

# The per-format stat columns a record keeps, in order.
_STAT_FIELDS = ("stored_elements", "padding_elements", "memory_bytes",
                "metadata_bytes", "simd_friendly")

# A format's record entry: its stat column values, or its refusal.
FormatEntry = Union[Tuple[int, int, int, int, bool], str]


def row_length_histogram(
    profile: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, counts)`` of the positive row lengths, ascending.

    ``bincount`` is O(n_rows + max_len) against ``np.unique``'s
    O(n_rows log n_rows) sort and yields the same pairs; the sort stays
    as the fallback for profiles whose maximum row length would make the
    count array larger than the profile itself.
    """
    max_len = int(profile.max()) if len(profile) else 0
    if 0 < max_len <= max(4 * len(profile), 1024):
        counts = np.bincount(profile)
        vals = np.nonzero(counts)[0]
        if len(vals) and vals[0] == 0:
            vals = vals[1:]
        return vals, counts[vals]
    return np.unique(profile[profile > 0], return_counts=True)


def histogram_simd_utilisation(
    hist: Tuple[np.ndarray, np.ndarray], simd_width: int
) -> float:
    """Fraction of SIMD lanes doing useful work under row-vectorisation,
    from a :func:`row_length_histogram` (both sums are exact integers)."""
    vals, cnts = hist
    if simd_width <= 1 or len(vals) == 0:
        return 1.0
    issued = (np.ceil(vals / simd_width) * simd_width * cnts).sum()
    return float((vals * cnts).sum() / issued)


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
    """Matrix-axis source for ``_score_grid``, one entry per matrix.

    Entry ``i`` is ``specs[i]`` (a :class:`MatrixSpec`, or ``None`` for a
    spec-less matrix) with ``matrices[i]`` (its given structure, or
    ``None`` to generate one from the spec, capped at ``max_nnz``).
    ``records`` (one :class:`ScoringRecord` or ``None`` per entry, e.g.
    from the instance cache) seed the memos and are extended in place;
    :attr:`records` holds the records afterwards.  Structure is generated
    once, lazily and only for the entries whose records lack something
    structural; declared-scale profiles only for entries missing a SIMD
    or imbalance memo — never value payloads.

    The scorer reads a source through this protocol: :meth:`names`,
    :meth:`scalar_arrays`, :meth:`format_stats_columns`, then per entry
    (announced in bulk by :meth:`prepare_memos`) :meth:`simd_utilisation`
    and :meth:`imbalance_factor`, each entry closed by :meth:`release`.
    Release drops the entry's histogram and its profile's full-length
    pass; a source over :meth:`instances <of_instances>` leaves the
    profile's lengths on the instance, any other drops the profile (a
    later query regenerates it bit-identically).
    """

    # The instances a source was built over (:meth:`of_instances`);
    # ``GridResult.instances`` carries them to the row assembly.
    instances: Tuple = ()

    def __init__(
        self,
        specs: Sequence[Optional[MatrixSpec]],
        names: Sequence[str],
        max_nnz: Optional[int] = None,
        records: Optional[Sequence[Optional[ScoringRecord]]] = None,
        matrices: Optional[Sequence[Optional[CSRMatrix]]] = None,
    ):
        self.specs = list(specs)
        n = len(self.specs)
        self._names = list(names)
        if len(self._names) != n:
            raise ValueError("one name per spec required")
        if records is None:
            records = [None] * n
        elif len(records) != n:
            raise ValueError("one record (or None) per spec required")
        if matrices is None:
            matrices = [None] * n
        elif len(matrices) != n:
            raise ValueError("one matrix (or None) per spec required")
        self.records = [
            rec if rec is not None else ScoringRecord() for rec in records
        ]
        self.max_nnz = max_nnz

        # Per-entry structure: a given matrix, or (batch, position) of
        # its generation wave; ``_batch`` is the structure of every entry
        # stacked in order (a wave that covered them all, or the stack
        # the first all-entry stats call made).
        self._mats: Dict[int, CSRMatrix] = {}
        self._where: Dict[int, Tuple[CSRStructBatch, int]] = {}
        self._batch: Optional[CSRStructBatch] = None
        for i, (spec, mat) in enumerate(zip(self.specs, matrices)):
            if mat is None:
                if spec is None:
                    raise ValueError(f"entry {i} has neither spec nor "
                                     "matrix")
                continue
            self._mats[i] = mat
            rec = self.records[i]
            if rec.rows is None:
                rec.rows, rec.nnz = mat.n_rows, mat.nnz
        self._ensure_structure(
            [i for i, rec in enumerate(self.records) if rec.features is None]
        )

        # Declared-scale scalars, columnar: a spec-less entry is its own
        # declared matrix.
        self.n_rows = np.array(
            [self._mats[i].n_rows if s is None else s.n_rows
             for i, s in enumerate(self.specs)], dtype=np.int64,
        )
        self.n_cols = np.array(
            [self._mats[i].n_cols if s is None else s.n_cols
             for i, s in enumerate(self.specs)], dtype=np.int64,
        )
        rep_rows = np.array([r.rows for r in self.records], dtype=np.int64)
        rep_nnz = np.array([r.nnz for r in self.records], dtype=np.int64)
        # Preserve the representative's realised density rather than the
        # nominal average (generation is stochastic).
        self.scale = np.maximum(1.0, self.n_rows / np.maximum(rep_rows, 1))
        self.nnz = np.round(rep_nnz * self.scale).astype(np.int64)

        self.profiles: List[Optional[RowProfile]] = [None] * n
        self._hists: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def of_instances(cls, instances: Sequence) -> "FusedSpecSource":
        """A source over :class:`~repro.perfmodel.instance.MatrixInstance`
        objects, scoring into the memos each keeps across calls: its
        ``record`` and its declared-scale ``profile``."""
        instances = tuple(instances)
        source = cls(
            [inst.spec for inst in instances],
            [inst.name for inst in instances],
            records=[inst.record for inst in instances],
            matrices=[inst.matrix for inst in instances],
        )
        source.instances = instances
        source.profiles = [inst.profile for inst in instances]
        return source

    def __len__(self) -> int:
        return len(self.specs)

    def names(self) -> List[str]:
        return list(self._names)

    # -- memoised per-entry structure ---------------------------------
    def _ensure_structure(self, indices: Sequence[int]) -> None:
        """Generate the structure of ``indices`` neither given nor
        generated yet, in one :func:`structure_batch` wave (per-spec RNG
        streams make each entry independent of the wave it is generated
        in)."""
        todo = [i for i in indices
                if i not in self._where and i not in self._mats]
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
        """Entry ``i``'s structure: its given matrix, else a zero-data
        representative (structure-only users)."""
        if i not in self._mats:
            self._ensure_structure([i])
            batch, k = self._where[i]
            self._mats[i] = batch.matrix(k)
        return self._mats[i]

    def features(self, i: int) -> Features:
        """Measured features, with the declared CSR footprint (paper f1),
        rows, columns and nonzeros."""
        rec = self.records[i]
        if rec.features is None:
            measured = extract_features(self.matrix(i))
            nnz = int(self.nnz[i])
            n_rows = int(self.n_rows[i])
            rec.features = replace(
                measured,
                mem_footprint_mb=(
                    (nnz * 12.0 + (n_rows + 1) * 4.0) / (1024 ** 2)
                ),
                n_rows=n_rows,
                n_cols=int(self.n_cols[i]),
                nnz=nnz,
            )
            rec.grown = True
        return rec.features

    def profile(self, i: int) -> RowProfile:
        """Row-length profile at declared scale, in the memo every
        partitioner call on entry ``i`` shares.  A scaled entry's is
        regenerated from its spec at up to :data:`MAX_PROFILE_ROWS` rows,
        so heavy rows keep their true *fraction* of the total work."""
        if self.profiles[i] is None:
            spec = self.specs[i]
            if self.scale[i] <= 1.0:
                self._ensure_structure([i])
                where = self._where.get(i)
                lengths = (self._mats[i].row_lengths if where is None
                           else where[0].lengths_of(where[1]))
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
            self.profiles[i] = RowProfile(lengths)
            if self.instances:
                self.instances[i].profile = self.profiles[i]
        return self.profiles[i]

    def _hist(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row-length histogram of the declared-scale profile."""
        if i not in self._hists:
            self._hists[i] = row_length_histogram(self.profile(i).lengths)
        return self._hists[i]

    # -- the scorer's protocol ----------------------------------------
    def scalar_arrays(self) -> Tuple[np.ndarray, ...]:
        """``(scale, nnz, n_rows, n_cols, neigh, sim, noise_hash)``."""
        n = len(self.specs)
        i_neigh = np.empty(n)
        i_sim = np.empty(n)
        i_noise_h = np.empty(n, dtype=np.uint64)
        for i in range(n):
            feats = self.features(i)
            i_neigh[i] = feats.avg_num_neighbours
            i_sim[i] = feats.cross_row_similarity
            key = self._names[i] or (
                int(self.n_rows[i]), int(self.n_cols[i]), int(self.nnz[i]),
            )
            i_noise_h[i] = component_hash(key)
        return (
            self.scale.astype(np.float64, copy=True),
            self.nnz.copy(),
            self.n_rows.copy(),
            self.n_cols.copy(),
            i_neigh,
            i_sim,
            i_noise_h,
        )

    def _format_stats(self, cls, todo: List[int]) -> FormatStatsBatch:
        """Stats of ``cls`` for the entries ``todo``, one batch entry
        each."""
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
                        int(self.n_cols[i]),
                    )
                except FormatError as exc:
                    fsb.fail[k] = True
                    fsb.fail_reason[k] = str(exc)
                    continue
                fsb.put(k, stats)
            return fsb
        mats = [self.matrix(i) for i in todo]
        if len(todo) < len(self.specs):
            batch = CSRStructBatch.from_matrices(mats)
        else:
            if self._batch is None:
                self._batch = CSRStructBatch.from_matrices(mats)
            batch = self._batch
        return cls.stats_from_csr_batch(batch, matrices=mats)

    def format_stats_columns(
        self, name: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray, Dict[int, str]]:
        """Stat columns ``(mem, meta, stored, pad_ratio, friendly, fail,
        reasons)`` of one format across all entries."""
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
        every unscaled entry whose record lacks a SIMD (``need_w[i, k]``
        for ``widths[k]``) or imbalance (``need_key[i, k]`` for
        ``keys[k]``) memo the scorer is about to ask for: such an entry's
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
        """Imbalance via the partitioner dispatcher, on the entry's shared
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
        """Drop entry ``i``'s histogram and its profile's full-length pass
        once its memos are taken; only an instance keeps the profile."""
        self._hists.pop(i, None)
        profile = self.profiles[i]
        if profile is not None:
            profile.drop_pass()
            if not self.instances:
                self.profiles[i] = None
