"""Reference sweep scoring: materialised instances and scalar rows.

Before every grid was scored from one matrix source, a
``MatrixInstance`` derived its own declared-scale features, profile,
SIMD utilisation, imbalance and format stats, memoised on the instance,
and ``simulate_grid`` read a list of them through an ``_InstanceSource``
adapter.  Before every chunk was scored straight from its specs, a sweep
materialised one such instance per spec (values included) and scored
those; before that, it could also run a scalar loop: one
``simulate_spmv``/``simulate_best`` call per (spec, device, format) of
the scalar model (``tests/oracles/model.py``), lifted into dict rows.
These are those paths, unchanged, so the production tables can be
compared with them row for row:

* :func:`derived` — an instance's own derivations (:class:`Derived`),
  which the scalar model reads too;
* :class:`_InstanceSource` / :func:`instance_grid` — grid scoring over
  those derivations;
* :func:`spec_rows` — the scalar rows of one spec;
* :func:`grid_spec_rows` — dict rows of a spec range, read off one
  ``simulate_grid`` pass;
* :func:`scalar_sweep` — the whole table the scalar loop swept, one
  spec per chunk;
* :func:`instance_spec_table` / :func:`instance_sweep` — the instance
  cold path: columnar tables from :func:`instance_grid` over
  materialised instances, sub-chunk by sub-chunk.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import (
    Dataset, SweepTable, _grid_sweep_table, _per_inst_columns,
)
from repro.core.features import Features, extract_features
from repro.core.generator import row_length_profile
from repro.devices.parallel import (
    ImbalanceStats, RowProfile, imbalance_for_strategy,
)
from repro.formats.base import FormatError, FormatStats, get_format
from repro.perfmodel.batch import (
    BOTTLENECKS, STATUS_OK, GridResult, _score_grid, simulate_grid,
)
from repro.perfmodel.fused import (
    MAX_PROFILE_ROWS, histogram_simd_utilisation, row_length_histogram,
)
from repro.perfmodel.noise import component_hash

# ``tests.oracles.model`` reads instances through :func:`derived`; each
# module reads the other's names at call time.
from tests.oracles import model as scalar_model


class Derived:
    """What a ``MatrixInstance`` derived for itself, memoised per
    instance: the representative's features with the declared
    footprint, the declared-scale profile and its
    :class:`~repro.devices.parallel.RowProfile`, SIMD utilisation per
    width, imbalance per (strategy, workers, width) and format stats
    (refusals replayed)."""

    def __init__(self, matrix, spec):
        self.matrix = matrix
        self.spec = spec
        self._features: Optional[Features] = None
        self._profile: Optional[np.ndarray] = None
        self._row_memo: Optional[RowProfile] = None
        self._hist: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._format_stats: Dict[str, FormatStats] = {}
        self._format_fail: Dict[str, str] = {}
        self._simd_util: Dict[int, float] = {}
        self._imbalance: Dict[tuple, ImbalanceStats] = {}

    # -- declared scale -------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.spec.n_rows if self.spec else self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.spec.n_cols if self.spec else self.matrix.n_cols

    @property
    def nnz(self) -> int:
        if self.spec is None:
            return self.matrix.nnz
        return int(round(self.matrix.nnz * self.scale))

    @property
    def scale(self) -> float:
        if self.spec is None:
            return 1.0
        return max(1.0, self.spec.n_rows / max(self.matrix.n_rows, 1))

    @property
    def mem_footprint_mb(self) -> float:
        return (self.nnz * 12.0 + (self.n_rows + 1) * 4.0) / (1024**2)

    # -- cached statistics ----------------------------------------------
    @property
    def features(self) -> Features:
        if self._features is None:
            measured = extract_features(self.matrix)
            self._features = replace(
                measured,
                mem_footprint_mb=self.mem_footprint_mb,
                n_rows=self.n_rows,
                n_cols=self.n_cols,
                nnz=self.nnz,
            )
        return self._features

    def row_profile(self) -> np.ndarray:
        if self._profile is None:
            if self.spec is None or self.scale <= 1.0:
                self._profile = self.matrix.row_lengths
            else:
                rows = min(self.spec.n_rows, MAX_PROFILE_ROWS)
                rng = np.random.default_rng(self.spec.seed)
                self._profile = row_length_profile(
                    rows,
                    self.spec.n_cols,
                    self.spec.avg_nnz_per_row,
                    self.spec.std_ratio * self.spec.avg_nnz_per_row,
                    self.spec.skew_coeff,
                    rng,
                    self.spec.distribution,
                )
        return self._profile

    def simd_utilisation(self, simd_width: int) -> float:
        if simd_width not in self._simd_util:
            if self._hist is None:
                self._hist = row_length_histogram(self.row_profile())
            self._simd_util[simd_width] = histogram_simd_utilisation(
                self._hist, simd_width
            )
        return self._simd_util[simd_width]

    def imbalance(
        self, strategy: str, n_workers: int, simd_width: int = 32
    ) -> ImbalanceStats:
        key = (strategy, n_workers, simd_width)
        if key not in self._imbalance:
            if self._row_memo is None:
                self._row_memo = RowProfile(self.row_profile())
            self._imbalance[key] = imbalance_for_strategy(
                strategy, self._row_memo, n_workers, simd_width
            )
        return self._imbalance[key]

    def format_stats(self, format_name: str) -> FormatStats:
        if format_name in self._format_fail:
            raise FormatError(self._format_fail[format_name])
        if format_name not in self._format_stats:
            try:
                stats = get_format(format_name).stats_at_declared_scale(
                    self.matrix, self.nnz, self.n_cols
                )
            except FormatError as exc:
                self._format_fail[format_name] = str(exc)
                raise
            self._format_stats[format_name] = stats
        return self._format_stats[format_name]


def derived(instance) -> Derived:
    """``instance``'s :class:`Derived` memos, made on first use and kept
    on the instance, apart from what the production path keeps."""
    memo = instance.__dict__.get("_oracle_derived")
    if memo is None:
        memo = instance.__dict__["_oracle_derived"] = Derived(
            instance.matrix, instance.spec
        )
    return memo


class _InstanceSource:
    """:func:`_score_grid`'s view of a list of instances, read through
    their :func:`derived` memos: names, per-instance scalars, per-format
    stat columns, and SIMD utilisation / imbalance factors asked for one
    instance at a time."""

    def __init__(self, instances: Sequence):
        self.instances = list(instances)

    def __len__(self) -> int:
        return len(self.instances)

    def names(self) -> List[str]:
        return [inst.name for inst in self.instances]

    def scalar_arrays(self) -> Tuple[np.ndarray, ...]:
        """``(scale, nnz, n_rows, n_cols, neigh, sim, noise_hash)``."""
        n = len(self.instances)
        i_scale = np.empty(n)
        i_nnz = np.empty(n, dtype=np.int64)
        i_rows = np.empty(n, dtype=np.int64)
        i_cols = np.empty(n, dtype=np.int64)
        i_neigh = np.empty(n)
        i_sim = np.empty(n)
        i_noise_h = np.empty(n, dtype=np.uint64)
        for i, inst in enumerate(self.instances):
            d = derived(inst)
            i_scale[i] = d.scale
            i_nnz[i] = d.nnz
            i_rows[i] = d.n_rows
            i_cols[i] = d.n_cols
            feats = d.features
            i_neigh[i] = feats.avg_num_neighbours
            i_sim[i] = feats.cross_row_similarity
            key = inst.name or (d.n_rows, d.n_cols, d.nnz)
            i_noise_h[i] = component_hash(key)
        return i_scale, i_nnz, i_rows, i_cols, i_neigh, i_sim, i_noise_h

    def format_stats_columns(self, name: str):
        """Stat columns ``(mem, meta, stored, pad_ratio, friendly, fail,
        reasons)`` of one format across all instances."""
        n = len(self.instances)
        mem = np.zeros(n, dtype=np.int64)
        meta = np.zeros(n, dtype=np.int64)
        stored = np.zeros(n, dtype=np.int64)
        pad = np.zeros(n)
        friendly = np.zeros(n, dtype=bool)
        fail = np.zeros(n, dtype=bool)
        reasons: Dict[int, str] = {}
        for i, inst in enumerate(self.instances):
            try:
                stats = derived(inst).format_stats(name)
            except FormatError as exc:
                fail[i] = True
                reasons[i] = str(exc)
                continue
            mem[i] = stats.memory_bytes
            meta[i] = stats.metadata_bytes
            stored[i] = stats.stored_elements
            pad[i] = stats.padding_ratio
            friendly[i] = stats.simd_friendly
        return mem, meta, stored, pad, friendly, fail, reasons

    def prepare_memos(self, widths, need_w, keys, need_key) -> None:
        """Instances derive their memos lazily; nothing to prepare."""

    def simd_utilisation(self, i: int, width: int) -> float:
        return derived(self.instances[i]).simd_utilisation(width)

    def imbalance_factor(
        self, i: int, strategy: str, workers: int, width: int
    ) -> float:
        return derived(self.instances[i]).imbalance(
            strategy, workers, width
        ).factor

    def release(self, i: int) -> None:
        """An instance keeps its own memo; nothing to drop."""


def instance_grid(
    instances: Sequence,
    devices: Sequence,
    formats: Optional[Sequence[str]] = None,
    precisions: Sequence[str] = ("fp64",),
    seed: int = 0,
    noise_sigma: Optional[float] = None,
) -> GridResult:
    """``simulate_grid`` as it scored instances through their own
    derivations."""
    return _score_grid(_InstanceSource(instances), devices, formats,
                       precisions, seed, noise_sigma)


def _base_row(dataset: Dataset, i: int) -> dict:
    """Per-spec columns shared by every measurement row of spec ``i``
    (features at declared scale + requested grid coordinates).  Both
    :func:`spec_rows` and :func:`grid_spec_rows` build on this, which
    keeps their row schemas identical."""
    inst = dataset.instance(i)
    feats = derived(inst).features
    return {
        "matrix": inst.name,
        "spec_index": i,
        "mem_footprint_mb": feats.mem_footprint_mb,
        "avg_nnz_per_row": feats.avg_nnz_per_row,
        "skew_coeff": feats.skew_coeff,
        "cross_row_similarity": feats.cross_row_similarity,
        "avg_num_neighbours": feats.avg_num_neighbours,
        "nnz": feats.nnz,
        "n_rows": feats.n_rows,
        # requested (grid) coordinates, for exact binning
        "req_footprint_mb": dataset.specs[i].mem_footprint_mb,
        "req_avg_nnz": dataset.specs[i].avg_nnz_per_row,
        "req_skew": dataset.specs[i].skew_coeff,
        "req_sim": dataset.specs[i].cross_row_sim,
        "req_neigh": dataset.specs[i].avg_num_neigh,
    }


def spec_rows(
    dataset: Dataset,
    i: int,
    devices: Sequence,
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
) -> List[dict]:
    """Measurement rows for spec ``i`` across ``devices`` through the
    scalar oracle model, one call per (device, format)."""
    inst = dataset.instance(i)
    base = _base_row(dataset, i)
    rows: List[dict] = []
    for dev in devices:
        names = list(formats) if formats else list(dev.formats)
        if best_only:
            m = scalar_model.simulate_best(inst, dev, formats=names,
                                           seed=seed, precision=precision)
            if m is None:
                continue
            rows.append(
                {**base, "device": dev.name, "format": m.format,
                 "gflops": m.gflops, "watts": m.watts,
                 "gflops_per_watt": m.gflops_per_watt,
                 "bottleneck": m.bottleneck}
            )
        else:
            for fmt in names:
                try:
                    m = scalar_model.simulate_spmv(
                        inst, fmt, dev, seed=seed, precision=precision
                    )
                except FormatError:
                    continue
                rows.append(
                    {**base, "device": dev.name, "format": fmt,
                     "gflops": m.gflops, "watts": m.watts,
                     "gflops_per_watt": m.gflops_per_watt,
                     "bottleneck": m.bottleneck}
                )
    return rows


def grid_spec_rows(
    dataset: Dataset,
    lo: int,
    hi: int,
    devices: Sequence,
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
) -> List[dict]:
    """Measurement rows for specs ``lo..hi`` via the batched grid
    simulator — row-for-row identical to calling :func:`spec_rows` per
    spec, but all (spec, device, format) cells are scored in one
    vectorised pass."""
    indices = list(range(lo, hi))
    instances = [dataset.instance(i) for i in indices]
    grid = simulate_grid(instances, devices, formats=formats, seed=seed,
                         precisions=(precision,))

    def measurement(idx: int) -> dict:
        rec = grid.data[idx]
        return {
            "device": grid.device_names[rec["device"]],
            "format": grid.format_names[rec["format"]],
            "gflops": float(rec["gflops"]),
            "watts": float(rec["watts"]),
            "gflops_per_watt": float(rec["gflops_per_watt"]),
            "bottleneck": BOTTLENECKS[rec["bottleneck"]],
        }

    rows: List[dict] = []
    best = grid.best_per()[0] if best_only else None
    for ci, i in enumerate(indices):
        base = _base_row(dataset, i)
        for d in range(len(devices)):
            if best_only:
                idx = int(best[ci, d])
                if idx < 0:
                    continue
                rows.append({**base, **measurement(idx)})
            else:
                f_lo, f_hi = grid.device_slices[d]
                for off in range(f_lo, f_hi):
                    idx = grid.cell_index(0, ci, off)
                    if grid.data[idx]["status"] != STATUS_OK:
                        continue
                    rows.append({**base, **measurement(idx)})
    return rows


def scalar_sweep(
    dataset: Dataset,
    devices: Sequence,
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
) -> SweepTable:
    """The table the scalar loop swept: :func:`spec_rows` per spec, each
    spec's rows lifted into a chunk table with a constant ``precision``
    column, the chunks merged in index order."""
    parts = []
    for i in range(len(dataset)):
        rows = spec_rows(dataset, i, devices, best_only=best_only,
                         formats=formats, seed=seed, precision=precision)
        parts.append(
            SweepTable.from_rows(rows).with_constant("precision", precision)
            if rows else SweepTable({})
        )
    return SweepTable.concat(parts)


def instance_spec_table(
    dataset: Dataset,
    lo: int,
    hi: int,
    devices: Sequence,
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
    instances: Optional[Sequence] = None,
) -> SweepTable:
    """Columnar table for specs ``lo..hi`` scored through
    :func:`instance_grid` over materialised instances (``instances`` when
    given, else fresh ones from ``dataset.instance``)."""
    indices = list(range(lo, hi))
    if instances is None:
        instances = [dataset.instance(i) for i in indices]
    elif len(instances) != len(indices):
        raise ValueError("instances must cover exactly specs lo..hi")
    grid = instance_grid(instances, devices, formats=formats, seed=seed,
                         precisions=(precision,))
    per_inst = _per_inst_columns(
        indices, dataset.specs, lambda ci: derived(instances[ci]).features
    )
    return _grid_sweep_table(grid, per_inst, best_only, precision)


def instance_sweep(
    dataset: Dataset,
    devices: Sequence,
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
    instances: Optional[Sequence] = None,
    sub_chunk: int = 16,
) -> SweepTable:
    """The table the instance cold path swept: one
    :func:`instance_spec_table` per ``sub_chunk`` specs, merged in index
    order.  ``instances`` (one per spec) pins the instances scored, e.g.
    with their :func:`derived` format stats swapped for another
    engine's."""
    parts = []
    for lo in range(0, len(dataset), sub_chunk):
        hi = min(lo + sub_chunk, len(dataset))
        parts.append(instance_spec_table(
            dataset, lo, hi, devices, best_only=best_only,
            formats=formats, seed=seed, precision=precision,
            instances=None if instances is None else instances[lo:hi],
        ))
    return SweepTable.concat(parts)
