"""The SpMV performance model, scored over whole grids.

For every (matrix, device, storage format, precision) cell the model
composes the paper's four bottlenecks from quantities *measured on the
actual matrix structure*:

1. **Memory bandwidth** — total traffic (format bytes + x gather incl.
   locality-modelled misses + y write) over the working-set-dependent
   effective bandwidth (LLC vs DRAM — the Fig 3 cache cutoff); GPUs also
   pay the L2 time of scattered gathers (the Fig 6 irregularity
   penalty).
2. **Low ILP** — padded flops at SIMD-utilisation-discounted peak plus a
   per-row loop overhead (the Fig 4 short-row penalty).
3. **Memory latency** — residual x misses exposed after per-worker
   latency hiding (the Fig 6 irregularity penalty).
4. **Load imbalance** — the actual critical-worker/mean-worker ratio of
   the format's partitioner on the row-length profile (Fig 5).

Execution time is ``max(mem, compute) + latency`` stretched by the
imbalance factor and parallel-slack utilisation, plus dispatch overhead.

:func:`simulate_grid` stacks the per-cell inputs (format statistics,
features, SIMD utilisation, imbalance factors, device parameters,
precision multipliers) into arrays and computes all four bottlenecks,
the capacity gate, measurement noise, energy and the argmax-bottleneck
attribution with broadcast array arithmetic; the memory and energy
terms come from the array helpers of :mod:`repro.devices`, fed one
:class:`~repro.devices.base.DeviceColumns` of per-cell device
parameters.  This is the only place the model is written: the
one-triple entry points of :mod:`repro.perfmodel.simulator` are
one-cell grid calls.  ``tests/perfmodel/test_grid_agreement.py`` holds
it bit-identical to the historical scalar simulator
(``tests/oracles/model.py``) over the full testbed grid, capacity-skip
decisions and reason strings included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.base import Device, DeviceColumns
from ..devices.cache import effective_bandwidth, x_access_model
from ..devices.energy import EnergyModel
from ..devices.parallel import pass_order
from ..formats.base import FormatError, get_format
from .instance import MatrixInstance
from .noise import NOISE_SIGMA, component_hash, noise_factors

__all__ = [
    "simulate_grid",
    "GridResult",
    "GridSkip",
    "GRID_DTYPE",
    "DIAGNOSTIC_KEYS",
    "STATUS_OK",
    "STATUS_FORMAT_ERROR",
    "STATUS_CAPACITY_ERROR",
    "BOTTLENECKS",
    "PRECISIONS",
]

BOTTLENECKS = (
    "memory_bandwidth",
    "low_ilp",
    "memory_latency",
    "load_imbalance",
)

PRECISIONS = {
    # value bytes, peak-flops multiplier vs double precision
    "fp64": (8.0, 1.0),
    "fp32": (4.0, 2.0),
}

STATUS_OK = 0
STATUS_FORMAT_ERROR = 1
STATUS_CAPACITY_ERROR = 2

STATUS_LABELS = {
    STATUS_OK: "ok",
    STATUS_FORMAT_ERROR: "format_error",
    STATUS_CAPACITY_ERROR: "capacity_error",
}

# The keys of ``SpmvMeasurement.diagnostics``, one grid column each.
DIAGNOSTIC_KEYS = (
    "t_mem", "t_comp", "t_lat", "imbalance", "utilisation", "bw_gbs",
    "miss_rate", "padding_ratio", "bytes_total", "simd_util",
)

GRID_DTYPE = np.dtype([
    ("instance", np.int32),
    ("device", np.int32),
    ("format", np.int32),
    ("precision", np.int32),
    ("status", np.int8),
    ("gflops", np.float64),
    ("time_s", np.float64),
    ("watts", np.float64),
    ("gflops_per_watt", np.float64),
    ("bottleneck", np.int8),
] + [(key, np.float64) for key in DIAGNOSTIC_KEYS])

# Row-dict keys carried by :meth:`GridResult.to_rows` for each cell, on
# top of the per-instance feature columns (the selector's input schema).
MEASUREMENT_KEYS = ("gflops", "time_s", "watts", "gflops_per_watt")

_FEATURE_KEYS = (
    "mem_footprint_mb",
    "avg_nnz_per_row",
    "skew_coeff",
    "cross_row_similarity",
    "avg_num_neighbours",
)


@dataclass(frozen=True)
class GridSkip:
    """One skipped grid cell: which coordinates failed and why."""

    instance: str
    device: str
    format: str
    precision: str
    kind: str       # "format" | "capacity"
    reason: str


@dataclass
class GridResult:
    """Columnar result of one :func:`simulate_grid` evaluation.

    ``data`` is a structured array with one record per grid cell,
    ordered ``(precision, instance, device, format)`` — i.e. for each
    precision block, instances in input order, then each device's format
    list in its declared order, matching the scalar sweep's nested-loop
    order.  ``status`` distinguishes scored cells from format refusals
    and capacity overflows; skipped cells carry NaN measurements and
    their reason in ``skip_reasons``.
    """

    data: np.ndarray
    instance_names: List[str]
    device_names: List[str]
    format_names: List[str]
    precisions: Tuple[str, ...]
    skip_reasons: Dict[int, str]
    # (start, stop) slice of each device's formats inside one
    # (precision, instance) block of ``data``.
    device_slices: List[Tuple[int, int]]
    instances: Sequence[MatrixInstance] = field(default=(), repr=False)

    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.data)

    @property
    def block_size(self) -> int:
        """Cells per (precision, instance): sum of device format counts."""
        return self.device_slices[-1][1] if self.device_slices else 0

    def ok_mask(self) -> np.ndarray:
        return self.data["status"] == STATUS_OK

    def cell_index(self, precision: int, instance: int, offset: int) -> int:
        """Flat index of a cell from its block coordinates."""
        n_inst = len(self.instance_names)
        return (precision * n_inst + instance) * self.block_size + offset

    # ------------------------------------------------------------------
    def skips(self, kind: Optional[str] = None) -> List[GridSkip]:
        """Skipped cells with names and reasons (optionally one kind)."""
        want = {"format": STATUS_FORMAT_ERROR,
                "capacity": STATUS_CAPACITY_ERROR}
        statuses = (want[kind],) if kind else tuple(want.values())
        out = []
        for idx, reason in sorted(self.skip_reasons.items()):
            rec = self.data[idx]
            if rec["status"] not in statuses:
                continue
            out.append(GridSkip(
                instance=self.instance_names[rec["instance"]],
                device=self.device_names[rec["device"]],
                format=self.format_names[rec["format"]],
                precision=self.precisions[rec["precision"]],
                kind="capacity" if rec["status"] == STATUS_CAPACITY_ERROR
                else "format",
                reason=reason,
            ))
        return out

    def capacity_skip_set(self) -> set:
        """Coordinate tuples of capacity-gated cells (agreement checks)."""
        return {
            (s.instance, s.device, s.format, s.precision)
            for s in self.skips(kind="capacity")
        }

    # ------------------------------------------------------------------
    def best_per(self) -> np.ndarray:
        """Index of the best scored cell per (precision, instance, device).

        Within each device's format segment the highest ``gflops`` wins,
        ties resolved to the earliest format in the device's list (as a
        loop keeping the first strictly-greater measurement).  Entries are
        flat indices into ``data``; ``-1`` marks groups where every
        format was skipped.
        """
        n_prec = len(self.precisions)
        n_inst = len(self.instance_names)
        n_dev = len(self.device_names)
        block = self.block_size
        gf = self.data["gflops"].copy()
        gf[self.data["status"] != STATUS_OK] = -np.inf
        gf = gf.reshape(n_prec * n_inst, block)
        base = np.arange(n_prec * n_inst) * block
        best = np.full((n_prec * n_inst, n_dev), -1, dtype=np.int64)
        for d, (lo, hi) in enumerate(self.device_slices):
            seg = gf[:, lo:hi]
            if seg.shape[1] == 0:
                continue
            arg = np.argmax(seg, axis=1)
            found = seg[np.arange(len(seg)), arg] > -np.inf
            best[:, d] = np.where(found, base + lo + arg, -1)
        return best.reshape(n_prec, n_inst, n_dev)

    # ------------------------------------------------------------------
    def _feature_columns(self, instance: int) -> dict:
        inst = self.instances[instance]
        feats = inst.features
        cols = {k: getattr(feats, k) for k in _FEATURE_KEYS}
        cols["nnz"] = feats.nnz
        cols["n_rows"] = feats.n_rows
        return cols

    def iter_cells(self, best_only: bool = False) -> Iterator[int]:
        """Flat indices of scored cells in grid order (best per
        (precision, instance, device) when ``best_only``)."""
        if best_only:
            for idx in self.best_per().ravel():
                if idx >= 0:
                    yield int(idx)
            return
        status = self.data["status"]
        for idx in np.flatnonzero(status == STATUS_OK):
            yield int(idx)

    def row(self, idx: int, with_features: bool = True) -> dict:
        """The dict row of one scored cell (see ``docs/table_schema.md``).

        Raises :class:`ValueError` for skipped cells — they have no
        measurements (and their ``-1`` bottleneck sentinel must never be
        mistaken for a label)."""
        rec = self.data[idx]
        if rec["status"] != STATUS_OK:
            raise ValueError(
                f"cell {idx} was skipped "
                f"({STATUS_LABELS[int(rec['status'])]}: "
                f"{self.skip_reasons.get(idx, 'unknown')}); "
                "only scored cells have measurement rows"
            )
        out = {
            "matrix": self.instance_names[rec["instance"]],
            "instance": int(rec["instance"]),
        }
        if with_features and len(self.instances):
            out.update(self._feature_columns(int(rec["instance"])))
        out.update(
            device=self.device_names[rec["device"]],
            format=self.format_names[rec["format"]],
            precision=self.precisions[rec["precision"]],
            gflops=float(rec["gflops"]),
            time_s=float(rec["time_s"]),
            watts=float(rec["watts"]),
            gflops_per_watt=float(rec["gflops_per_watt"]),
            bottleneck=BOTTLENECKS[rec["bottleneck"]],
        )
        return out

    def to_rows(self, best_only: bool = False,
                with_features: bool = True) -> List[dict]:
        """Dict rows for the scored cells — the schema the measurement
        table, CSV export and :class:`~repro.ml.FormatSelector` consume."""
        return [self.row(i, with_features=with_features)
                for i in self.iter_cells(best_only=best_only)]


# ---------------------------------------------------------------------------
def _device_formats(
    devices: Sequence[Device], formats: Optional[Sequence[str]]
) -> List[List[str]]:
    """Per-device format name lists (explicit ``formats`` applies to all
    devices, mirroring the scalar sweep)."""
    if formats:
        names = list(formats)
        return [list(names) for _ in devices]
    return [list(dev.formats) for dev in devices]


class _InstanceSource:
    """:func:`_score_grid`'s view of a list of :class:`MatrixInstance`.

    The scoring kernel pulls everything about the matrix axis through this
    narrow interface — names, per-instance scalars, per-format stat
    columns, and lazily-requested SIMD utilisation / imbalance factors
    (announced in bulk through ``prepare_memos`` first, then asked for
    one instance at a time, each instance closed by ``release``) — so
    the fused cold path (:mod:`repro.perfmodel.fused`) can drive the
    identical kernel from columnar spec data without ever materialising
    instances.  This adapter reproduces the historical per-instance loops
    exactly, memoisation semantics included.
    """

    def __init__(self, instances: Sequence[MatrixInstance]):
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
            i_scale[i] = inst.scale
            i_nnz[i] = inst.nnz
            i_rows[i] = inst.n_rows
            i_cols[i] = inst.n_cols
            feats = inst.features
            i_neigh[i] = feats.avg_num_neighbours
            i_sim[i] = feats.cross_row_similarity
            key = inst.name or (inst.n_rows, inst.n_cols, inst.nnz)
            i_noise_h[i] = component_hash(key)
        return i_scale, i_nnz, i_rows, i_cols, i_neigh, i_sim, i_noise_h

    def format_stats_columns(
        self, name: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray, Dict[int, str]]:
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
                stats = inst.format_stats(name)
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
        return self.instances[i].simd_utilisation(width)

    def imbalance_factor(
        self, i: int, strategy: str, workers: int, width: int
    ) -> float:
        return self.instances[i].imbalance(strategy, workers, width).factor

    def release(self, i: int) -> None:
        """An instance keeps its own memo; nothing to drop."""


def simulate_grid(
    instances: Sequence[MatrixInstance],
    devices: Sequence[Device],
    formats: Optional[Sequence[str]] = None,
    precisions: Sequence[str] = ("fp64",),
    seed: int = 0,
    noise_sigma: Optional[float] = None,
) -> GridResult:
    """Score the full (instance x device x format x precision) grid.

    Formats that refuse a matrix become ``format_error`` cells and the
    device capacity gate becomes ``capacity_error`` cells, each with the
    :class:`FormatError`/:class:`CapacityError` message as its reason.
    ``formats=None`` (or an empty list) uses each device's Table-II
    list; an explicit list applies to every device.
    """
    return _score_grid(
        _InstanceSource(instances), devices, formats, precisions,
        seed, noise_sigma,
    )


def _score_grid(
    source,
    devices: Sequence[Device],
    formats: Optional[Sequence[str]] = None,
    precisions: Sequence[str] = ("fp64",),
    seed: int = 0,
    noise_sigma: Optional[float] = None,
) -> GridResult:
    """Score the grid for any matrix-axis ``source``.

    ``source`` follows the :class:`_InstanceSource` protocol; everything
    below this line is matrix-representation agnostic, so the fused cold
    path produces bit-identical cells by construction.
    """
    devices = list(devices)
    precisions = tuple(precisions)
    for prec in precisions:
        if prec not in PRECISIONS:
            raise ValueError(
                f"unknown precision {prec!r}; available: "
                f"{sorted(PRECISIONS)}"
            )
    fmt_lists = _device_formats(devices, formats)

    # Global format table in first-seen order (also validates names).
    fmt_index: Dict[str, int] = {}
    for names in fmt_lists:
        for name in names:
            if name not in fmt_index:
                get_format(name)  # raises KeyError for unknown formats
                fmt_index[name] = len(fmt_index)
    format_names = list(fmt_index)

    n_inst, n_dev, n_fmt = len(source), len(devices), len(format_names)
    n_prec = len(precisions)

    # -- (device, format) cell skeleton: one block per (prec, instance) --
    df_dev: List[int] = []
    df_fmt: List[int] = []
    device_slices: List[Tuple[int, int]] = []
    for d, names in enumerate(fmt_lists):
        lo = len(df_dev)
        for name in names:
            df_dev.append(d)
            df_fmt.append(fmt_index[name])
        device_slices.append((lo, len(df_dev)))
    df_dev_arr = np.asarray(df_dev, dtype=np.int64)
    df_fmt_arr = np.asarray(df_fmt, dtype=np.int64)
    n_df = len(df_dev)

    instance_names = source.names()
    device_names = [dev.name for dev in devices]

    empty = GridResult(
        data=np.zeros(0, dtype=GRID_DTYPE),
        instance_names=instance_names,
        device_names=device_names,
        format_names=format_names,
        precisions=precisions,
        skip_reasons={},
        device_slices=device_slices,
        instances=source.instances,
    )
    if n_inst == 0 or n_df == 0:
        return empty

    # -- per-instance scalars ------------------------------------------
    (i_scale, i_nnz, i_rows, i_cols, i_neigh, i_sim,
     i_noise_h) = source.scalar_arrays()

    # -- per-(instance, format) structural statistics ------------------
    s_mem = np.zeros((n_inst, n_fmt), dtype=np.int64)
    s_meta = np.zeros((n_inst, n_fmt), dtype=np.int64)
    s_stored = np.zeros((n_inst, n_fmt), dtype=np.int64)
    s_pad = np.zeros((n_inst, n_fmt))
    s_friendly = np.zeros((n_inst, n_fmt), dtype=bool)
    s_fail = np.zeros((n_inst, n_fmt), dtype=bool)
    fail_reason: Dict[Tuple[int, int], str] = {}
    used_fmt = sorted(set(df_fmt))
    for g in used_fmt:
        (s_mem[:, g], s_meta[:, g], s_stored[:, g], s_pad[:, g],
         s_friendly[:, g], s_fail[:, g],
         reasons) = source.format_stats_columns(format_names[g])
        for i, msg in reasons.items():
            fail_reason[(i, g)] = msg

    # -- per-cell device parameters (Device attributes as arrays) ------
    cells = DeviceColumns(devices, df_dev_arr)

    # -- capacity gate, precomputed per precision ----------------------
    # Cells gated at every requested precision never trigger the
    # (possibly expensive, per-profile) SIMD utilisation or imbalance
    # measurements.
    mem_df_all = s_mem[:, df_fmt_arr]
    meta_df_all = s_meta[:, df_fmt_arr]
    i_scale_col = i_scale[:, None]
    i_xy_base = (i_cols + i_rows)[:, None]
    fmt_bytes_by_p: List[np.ndarray] = []
    x_y_bytes_by_p: List[np.ndarray] = []
    cap_fail_by_p: List[np.ndarray] = []
    for prec in precisions:
        value_bytes, _ = PRECISIONS[prec]
        value_fraction = value_bytes / 8.0
        fmt_value_bytes = (
            (mem_df_all - meta_df_all) * i_scale_col * value_fraction
        )
        fmt_bytes = meta_df_all * i_scale_col + fmt_value_bytes
        x_y_bytes = i_xy_base * value_bytes
        fmt_bytes_by_p.append(fmt_bytes)
        x_y_bytes_by_p.append(x_y_bytes)
        cap_fail_by_p.append(
            (fmt_bytes > cells.matrix_capacity_bytes)
            | (fmt_bytes + x_y_bytes > cells.dram_bytes)
        )
    ok_df = ~s_fail[:, df_fmt_arr]
    # A cell is scoreable if its stats exist and at least one precision
    # clears the capacity gate.
    scoreable_df = ok_df & ~np.logical_and.reduce(cap_fail_by_p)

    # -- per-(instance, device-format) SIMD utilisation ----------------
    # Friendly formats use max(simd_utilisation(width), 1/width);
    # unfriendly ones 1/width.  Compute the memoised utilisation only
    # for widths some friendly, scoreable cell needs.
    widths = sorted({dev.simd_width_dp for dev in devices})
    width_pos = {w: k for k, w in enumerate(widths)}
    util_tab = np.zeros((n_inst, len(widths)))
    friendly_df = s_friendly[:, df_fmt_arr]          # (n_inst, n_df)
    need_w = np.zeros((n_inst, len(widths)), dtype=bool)
    cell_w_pos = np.searchsorted(widths, cells.simd_width_dp)  # (n_df,)
    need_cells = friendly_df & scoreable_df
    for k in range(len(widths)):
        need_w[:, k] = need_cells[:, cell_w_pos == k].any(axis=1)

    # -- per-(instance, device-format) imbalance factors ---------------
    fmt_strategy = [
        getattr(get_format(name), "partition_strategy", "row_block")
        for name in format_names
    ]
    # Deduplicate the (strategy, n_workers, simd_width) keys the cells
    # need; the instance-level memo makes repeats dictionary hits.
    df_keys: List[Tuple[str, int, int]] = []
    key_pos: Dict[Tuple[str, int, int], int] = {}
    df_key_idx = np.empty(n_df, dtype=np.int64)
    for j in range(n_df):
        dev = devices[df_dev[j]]
        key = (fmt_strategy[df_fmt[j]], dev.n_workers, dev.simd_width_dp)
        if key not in key_pos:
            key_pos[key] = len(df_keys)
            df_keys.append(key)
        df_key_idx[j] = key_pos[key]
    imb_tab = np.ones((n_inst, len(df_keys)))
    need_key = np.zeros((n_inst, len(df_keys)), dtype=bool)
    for k in range(len(df_keys)):
        need_key[:, k] = scoreable_df[:, df_key_idx == k].any(axis=1)
    key_order = sorted(range(len(df_keys)),
                       key=lambda k: pass_order(df_keys[k]))

    # One instance at a time: its SIMD memos, its imbalance memos (in
    # pass order), then ``release`` lets the source drop that instance's
    # profile.
    source.prepare_memos(widths, need_w, df_keys, need_key)
    for i in range(n_inst):
        for w, k in width_pos.items():
            if need_w[i, k]:
                util_tab[i, k] = source.simd_utilisation(i, w)
        for k in key_order:
            if need_key[i, k]:
                imb_tab[i, k] = source.imbalance_factor(i, *df_keys[k])
        source.release(i)
    util_df = util_tab[:, cell_w_pos]                # (n_inst, n_df)
    inv_w_df = 1.0 / cells.simd_width_dp
    simd_util_df = np.where(
        friendly_df, np.maximum(util_df, inv_w_df), inv_w_df
    )
    imb_df = imb_tab[:, df_key_idx]                  # (n_inst, n_df)

    # -- broadcast blocks ----------------------------------------------
    # Shapes: per-instance (n_inst, 1), per-cell (n_df,) -> (n_inst, n_df)
    scale = i_scale[:, None]
    nnz = i_nnz[:, None]
    n_rows = i_rows[:, None]
    n_cols = i_cols[:, None]
    neigh = i_neigh[:, None]
    sim = i_sim[:, None]

    stored_df = s_stored[:, df_fmt_arr]
    pad_df = s_pad[:, df_fmt_arr]
    dev_noise_h = np.array(
        [component_hash(dev.name) for dev in devices], dtype=np.uint64
    )[df_dev_arr]

    sigma = NOISE_SIGMA if noise_sigma is None else noise_sigma

    blocks: List[np.ndarray] = []
    skip_reasons: Dict[int, str] = {}
    for p, prec in enumerate(precisions):
        value_bytes, peak_mult = PRECISIONS[prec]

        # ---- storage split (bytes and the capacity verdict were
        # precomputed above) -------------------------------------------
        fmt_bytes = fmt_bytes_by_p[p]
        stored = stored_df * scale
        x_y_bytes = x_y_bytes_by_p[p]
        capacity_fail = cap_fail_by_p[p]

        # ---- bottleneck 1: memory bandwidth --------------------------
        xt = x_access_model(cells, nnz, n_cols, neigh, sim,
                            value_bytes=value_bytes)
        miss = xt.miss_rate
        bytes_total = (
            fmt_bytes + (n_cols + n_rows) * value_bytes + xt.extra_bytes
        )
        working_set = fmt_bytes + x_y_bytes
        bw_gbs = effective_bandwidth(cells, working_set)
        bw_gbs = bw_gbs * cells.spmv_bw_efficiency
        # Short rows break the per-row access streams before hardware
        # prefetchers ramp up, so CPU bandwidth degrades with the average
        # row length (the CPU half of Fig 4's ~2x row-size gap).
        avg_row = nnz / np.maximum(n_rows, 1)
        bw_gbs = np.where(
            cells.is_cpu, bw_gbs * (avg_row / (avg_row + 2.0)), bw_gbs
        )
        t_stream = bytes_total / (bw_gbs * 1e9)
        # GPUs additionally pay for gather coalescing: scattered x lanes
        # drain L2 sector bandwidth even when x is cache-resident.  The
        # gather overlaps the DRAM stream, so the slower of the two paces
        # the kernel.
        t_mem = np.where(
            cells.is_gpu, np.maximum(t_stream, xt.gather_s), t_stream
        )

        # ---- bottleneck 2: compute / low ILP -------------------------
        eff_gflops = np.maximum(
            cells.peak_gflops * peak_mult * simd_util_df, 1e-3
        )
        t_flops = 2.0 * stored / (eff_gflops * 1e9)
        # Per-row loop/bookkeeping overhead, parallel over cores.
        t_rows = n_rows * cells.row_start_cycles / (
            cells.clock_ghz * 1e9 * cells.cores
        )
        t_comp = t_flops + t_rows

        # ---- bottleneck 3: memory latency ----------------------------
        misses = miss * nnz
        t_lat = misses * cells.mem_latency_ns * 1e-9 / (
            cells.n_workers * cells.latency_hiding
        )

        # ---- bottleneck 4 + composition ------------------------------
        # Memory and compute streams overlap; exposed latency adds on
        # top, and the critical worker stretches the whole.
        t_work = np.maximum(t_mem, t_comp) + t_lat
        utilisation = nnz / (nnz + cells.saturation_nnz)
        t_exec = t_work * imb_df / np.maximum(utilisation, 1e-9)
        t_total = t_exec + cells.kernel_launch_us * 1e-6

        fmt_prec_h = np.array(
            [component_hash(f"{name}@{prec}") for name in format_names],
            dtype=np.uint64,
        )
        noise = noise_factors(
            dev_noise_h, fmt_prec_h[df_fmt_arr], i_noise_h[:, None],
            seed=seed, sigma=sigma,
        )
        t_total = t_total * noise

        flops_useful = 2.0 * nnz
        gflops = flops_useful / t_total / 1e9
        power = EnergyModel(cells).estimate(
            gflops=gflops, time_s=t_total, bytes_moved=bytes_total,
            flops=flops_useful,
        )

        # Dominant bottleneck: first index of the largest exposed time
        # contribution, in BOTTLENECKS order.
        contributions = np.stack([
            t_mem,
            t_comp,
            t_lat,
            (imb_df - 1.0) * t_work,
        ])
        bottleneck = np.argmax(contributions, axis=0).astype(np.int8)

        # ---- assemble the precision block ----------------------------
        block = np.zeros((n_inst, n_df), dtype=GRID_DTYPE)
        block["instance"] = np.arange(n_inst, dtype=np.int32)[:, None]
        block["device"] = df_dev_arr.astype(np.int32)
        block["format"] = df_fmt_arr.astype(np.int32)
        block["precision"] = p
        fmt_fail = s_fail[:, df_fmt_arr]
        status = np.zeros((n_inst, n_df), dtype=np.int8)
        status[capacity_fail] = STATUS_CAPACITY_ERROR
        status[fmt_fail] = STATUS_FORMAT_ERROR
        block["status"] = status
        ok = status == STATUS_OK
        for name, arr in (
            ("gflops", gflops), ("time_s", t_total), ("watts", power.watts),
            ("gflops_per_watt", power.gflops_per_watt),
            ("t_mem", t_mem), ("t_comp", t_comp), ("t_lat", t_lat),
            ("imbalance", imb_df), ("utilisation", utilisation),
            ("bw_gbs", bw_gbs), ("miss_rate", miss),
            ("padding_ratio", pad_df), ("bytes_total", bytes_total),
            ("simd_util", simd_util_df),
        ):
            col = np.where(ok, arr, np.nan)
            block[name] = col
        block["bottleneck"] = np.where(ok, bottleneck, -1).astype(np.int8)

        # Skip reasons (rare; formatted per cell, as the CapacityError
        # message of a one-cell call).
        base = p * n_inst * n_df
        need_gib = (fmt_bytes + x_y_bytes) / 2**30
        cap_cells = np.argwhere(capacity_fail & ~fmt_fail)
        for i, j in cap_cells:
            fmt_name = format_names[df_fmt[j]]
            dev_name = device_names[df_dev[j]]
            skip_reasons[base + i * n_df + j] = (
                f"{fmt_name} needs {need_gib[i, j]:.2f} GiB "
                f"> {dev_name} capacity"
            )
        fail_cells = np.argwhere(fmt_fail)
        for i, j in fail_cells:
            skip_reasons[base + i * n_df + j] = fail_reason[(i, df_fmt[j])]

        blocks.append(block.reshape(-1))

    return GridResult(
        data=np.concatenate(blocks),
        instance_names=instance_names,
        device_names=device_names,
        format_names=format_names,
        precisions=precisions,
        skip_reasons=skip_reasons,
        device_slices=device_slices,
        instances=source.instances,
    )
