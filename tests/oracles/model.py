"""Reference SpMV model: the scalar simulator, one cell per call.

Before the grid scorer was the only place the model is written,
``simulate_spmv`` composed the paper's four bottlenecks for one
(instance, format, device) triple in plain Python floats, with its own
scalar bandwidth, x-traffic and energy helpers and loop-based
partitioners.  This is that path, unchanged, kept as the comparand of
every suite whose point is "the grid equals the scalar model":

* :func:`simulate_spmv`, :func:`simulate_best_detailed` and
  :func:`simulate_best` — the scalar entry points, returning the
  production :class:`~repro.perfmodel.SpmvMeasurement` /
  :class:`~repro.perfmodel.BestFormatOutcome` records;
* :func:`effective_bandwidth`, :func:`x_access_model` and
  :class:`EnergyModel` — the scalar memory and energy helpers, with
  their own copies of the model constants;
* :func:`imbalance_for_strategy` — the partitioner dispatcher, with the
  per-window and round-robin loops of :func:`warp_per_row`,
  :func:`sell_chunk_imbalance` and :func:`lockstep_channel_imbalance`,
  and array-only copies of the other five partitioners as they were
  before the production ones shared a per-profile memo (a fresh prefix
  sum or total per call, ``nnz_row`` searching float64 targets);
* :func:`simd_utilisation_of_profile` — SIMD utilisation over rows.

* :func:`measurement_noise` — the scalar noise factor, mirroring the
  production :func:`~repro.perfmodel.noise.noise_factors` step for step
  on exact mod-2^64 Python ints (:func:`_mix_int`), with its own copies
  of the splitmix64 constants and uniform salts.

Structural statistics come from the production
``MatrixInstance.format_stats``; SIMD utilisation and imbalance are
memoised per instance like the historical instance memos, so a
re-scored pool pays only the per-cell arithmetic.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.devices.parallel import ImbalanceStats
from repro.formats.base import CapacityError, FormatError, get_format
from repro.perfmodel.noise import NOISE_SIGMA, component_hash
from repro.perfmodel.simulator import (
    BestFormatOutcome, FormatSkip, SpmvMeasurement,
)

PRECISIONS = {
    # value bytes, peak-flops multiplier vs double precision
    "fp64": (8.0, 1.0),
    "fp32": (4.0, 2.0),
}

CACHE_LINE_BYTES = 64
X_CACHE_FRACTION = 0.5
GPU_SECTOR_BYTES = 32
BW_WEIGHT = 0.85
COMPUTE_WEIGHT = 0.15


# -- memory and energy helpers ----------------------------------------------
def effective_bandwidth(device, working_set_bytes: float) -> float:
    """Harmonic LLC/DRAM bandwidth blend for a streaming working set."""
    if working_set_bytes <= 0:
        return device.llc_bw_gbs
    cached = min(1.0, device.llc_bytes / working_set_bytes)
    inv = cached / device.llc_bw_gbs + (1.0 - cached) / device.dram_bw_gbs
    return 1.0 / inv


@dataclass(frozen=True)
class XTraffic:
    """Result of the x-gather locality model."""

    miss_rate: float
    extra_bytes: float
    gather_efficiency: float
    gather_bytes: float = 0.0


def x_access_model(device, nnz, n_cols, avg_num_neighbours,
                   cross_row_similarity, value_bytes=8.0) -> XTraffic:
    """Miss rate, extra line traffic, coalescing efficiency and GPU
    sector traffic of the x gather."""
    x_bytes = n_cols * value_bytes
    budget = device.llc_bytes * X_CACHE_FRACTION
    coverage = min(1.0, budget / x_bytes) if x_bytes > 0 else 1.0
    spatial_hit = min(avg_num_neighbours / 2.0, 1.0)
    temporal_hit = min(max(cross_row_similarity, 0.0), 1.0)
    miss = (1.0 - coverage) * (1.0 - spatial_hit) * (1.0 - temporal_hit)
    extra = miss * nnz * max(CACHE_LINE_BYTES - value_bytes, 0.0)
    gather_eff = 8.0 / CACHE_LINE_BYTES + (1 - 8.0 / CACHE_LINE_BYTES) * (
        spatial_hit + (1 - spatial_hit) * coverage
    )
    gather_bytes = nnz * (
        spatial_hit * value_bytes
        + (1.0 - spatial_hit) * GPU_SECTOR_BYTES
    )
    return XTraffic(
        miss_rate=miss,
        extra_bytes=extra,
        gather_efficiency=gather_eff,
        gather_bytes=gather_bytes,
    )


@dataclass(frozen=True)
class PowerEstimate:
    watts: float
    energy_j: float
    gflops_per_watt: float


class EnergyModel:
    """Utilisation-scaled power model for a device."""

    def __init__(self, device):
        self.device = device

    def average_power(self, bw_utilisation, compute_utilisation):
        bw_u = min(max(bw_utilisation, 0.0), 1.0)
        c_u = min(max(compute_utilisation, 0.0), 1.0)
        activity = BW_WEIGHT * bw_u + COMPUTE_WEIGHT * c_u
        dev = self.device
        return dev.idle_w + (dev.max_w - dev.idle_w) * activity

    def estimate(self, gflops, time_s, bytes_moved, flops) -> PowerEstimate:
        if time_s <= 0:
            raise ValueError("time_s must be positive")
        bw_u = (bytes_moved / time_s) / (self.device.dram_bw_gbs * 1e9)
        c_u = (flops / time_s) / (self.device.peak_gflops * 1e9)
        watts = self.average_power(bw_u, c_u)
        return PowerEstimate(
            watts=watts,
            energy_j=watts * time_s,
            gflops_per_watt=gflops / watts if watts > 0 else 0.0,
        )


# -- loop partitioners ------------------------------------------------------
def _chunk_sums(values, bounds) -> np.ndarray:
    csum = np.concatenate(([0], np.cumsum(values)))
    return csum[bounds[1:]] - csum[bounds[:-1]]


def row_block_partition(row_lengths, n_workers) -> ImbalanceStats:
    """Contiguous row blocks of equal row count."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    bounds = np.linspace(0, n_rows, n_workers + 1).astype(np.int64)
    return ImbalanceStats.from_loads(_chunk_sums(row_lengths, bounds))


def nnz_balanced_rows(row_lengths, n_workers) -> ImbalanceStats:
    """Contiguous row blocks of ~equal nonzeros, searched with float64
    targets."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    csum = np.concatenate(([0], np.cumsum(row_lengths)))
    targets = np.linspace(0, csum[-1], n_workers + 1)
    bounds = np.searchsorted(csum, targets, side="left")
    bounds[0], bounds[-1] = 0, n_rows
    bounds = np.maximum.accumulate(bounds)
    return ImbalanceStats.from_loads(_chunk_sums(row_lengths, bounds))


def merge_path_imbalance(row_lengths, n_workers) -> ImbalanceStats:
    """Merge-path diagonals over rows + nonzeros."""
    n_rows = len(row_lengths)
    nnz = int(row_lengths.sum())
    total = n_rows + nnz
    if total == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    per = total / n_workers
    loads = np.full(n_workers, per)
    loads[:-1] = np.diff(np.linspace(0, total, n_workers + 1).astype(np.int64))[
        : n_workers - 1
    ]
    return ImbalanceStats.from_loads(loads)


def nnz_split(row_lengths, n_workers) -> ImbalanceStats:
    """Row-splitting nnz partition at a 512-element tile granularity."""
    nnz = float(row_lengths.sum())
    if nnz == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    per = nnz / n_workers
    granule = 512.0
    factor = (np.ceil(per / granule) * granule) / per if per > 0 else 1.0
    return ImbalanceStats(
        factor=float(min(max(factor, 1.0), 2.0)),
        max_load=per * factor,
        mean_load=per,
        n_workers=n_workers,
    )


def element_balanced(row_lengths, n_workers) -> ImbalanceStats:
    """Perfect element-level balance."""
    nnz = float(row_lengths.sum())
    per = nnz / n_workers if n_workers else 0.0
    return ImbalanceStats(1.0, per, per, n_workers)


def warp_per_row(row_lengths, n_workers, simd_width=32) -> ImbalanceStats:
    """Warp-per-row: rows dealt round-robin, ``ceil(len / width)`` cycles
    each, critical path lower-bounded by the longest row."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    cycles = np.ceil(row_lengths / simd_width)
    slots = np.arange(n_rows) % n_workers
    loads = np.bincount(slots, weights=cycles, minlength=n_workers)
    longest = float(cycles.max())
    mean = loads.mean() if loads.mean() > 0 else 1.0
    factor = max(loads.max(), longest) / mean
    return ImbalanceStats(
        factor=float(max(factor, 1.0)),
        max_load=float(max(loads.max(), longest)),
        mean_load=float(mean),
        n_workers=n_workers,
    )


def sell_chunk_imbalance(row_lengths, n_workers, C=32,
                         sigma=1024) -> ImbalanceStats:
    """SELL-C-sigma chunk loads: a sort per sigma-window, chunks dealt to
    workers in snake order."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    lengths = np.asarray(row_lengths, dtype=np.int64).copy()
    for w0 in range(0, n_rows, sigma):
        w1 = min(w0 + sigma, n_rows)
        lengths[w0:w1] = np.sort(lengths[w0:w1])[::-1]
    n_chunks = (n_rows + C - 1) // C
    padded = np.zeros(n_chunks * C, dtype=np.int64)
    padded[:n_rows] = lengths
    widths = padded.reshape(n_chunks, C).max(axis=1)
    cost = widths * C
    phase = np.arange(n_chunks) % (2 * n_workers)
    slots = np.where(phase < n_workers, phase, 2 * n_workers - 1 - phase)
    loads = np.bincount(slots, weights=cost, minlength=n_workers)
    return ImbalanceStats.from_loads(loads)


def lockstep_channel_imbalance(row_lengths, n_channels=16) -> ImbalanceStats:
    """VSL channel lockstep: rows interleaved over the channels."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_channels)
    slots = np.arange(n_rows) % n_channels
    loads = np.bincount(slots, weights=row_lengths, minlength=n_channels)
    return ImbalanceStats.from_loads(loads)


PARTITION_STRATEGIES = {
    "row_block": row_block_partition,
    "nnz_row": nnz_balanced_rows,
    "merge_path": merge_path_imbalance,
    "warp_row": warp_per_row,
    "nnz_split": nnz_split,
    "element": element_balanced,
    "sell_chunk": sell_chunk_imbalance,
    "lockstep_channel": lockstep_channel_imbalance,
}


def imbalance_for_strategy(strategy, row_lengths, n_workers,
                           simd_width=32) -> ImbalanceStats:
    """Dispatch to the named partitioner."""
    if strategy == "warp_row":
        return warp_per_row(row_lengths, n_workers, simd_width)
    if strategy == "lockstep_channel":
        return lockstep_channel_imbalance(row_lengths, n_workers)
    try:
        fn = PARTITION_STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown partition strategy {strategy!r}; available: "
            f"{sorted(PARTITION_STRATEGIES)}"
        ) from None
    return fn(row_lengths, n_workers)


def simd_utilisation_of_profile(row_profile, simd_width) -> float:
    """Fraction of SIMD lanes doing useful work under row-vectorisation."""
    if simd_width <= 1:
        return 1.0
    lengths = row_profile[row_profile > 0]
    if len(lengths) == 0:
        return 1.0
    issued = np.ceil(lengths / simd_width) * simd_width
    return float(lengths.sum() / issued.sum())


# splitmix64 finaliser constants and the two uniform salts, copied from
# repro.perfmodel.noise so a drifted constant there fails the agreement
# suites instead of moving both sides at once.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U1_SALT = 0xD1B54A32D192ED03
_U2_SALT = 0x8BB84B93962EACC9
_MASK64 = (1 << 64) - 1
_TWO_M53 = 2.0 ** -53


def _mix_int(x: int) -> int:
    """The splitmix64 finaliser on Python ints (explicit mod-2^64 wrap),
    value for value equal to the uint64 ``repro.perfmodel.noise._mix``."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def measurement_noise(device_name, format_name, matrix_key, seed=0,
                      sigma=NOISE_SIGMA) -> float:
    """Multiplicative noise factor for one (device, format, matrix) run:
    lognormal with median 1, ``sigma <= 0`` disables it.  Bit for bit
    the ``noise_factors`` value of the same hashed coordinates."""
    if sigma <= 0:
        return 1.0
    h = _mix_int(int(component_hash(device_name)))
    h = _mix_int(h ^ int(component_hash(format_name)))
    h = _mix_int(h ^ int(component_hash(matrix_key)))
    h = _mix_int(h ^ (int(seed) % (1 << 64)))
    s1 = _mix_int(h ^ _U1_SALT)
    s2 = _mix_int(h ^ _U2_SALT)
    u1 = ((s1 >> 11) + 1.0) * _TWO_M53
    u2 = (s2 >> 11) * _TWO_M53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return float(np.exp(sigma * z))


def _memo(instance) -> dict:
    """Per-instance memo of the profile-derived statistics."""
    return instance.__dict__.setdefault("_oracle_memo", {})


def _simd_utilisation(instance, width: int) -> float:
    memo = _memo(instance)
    key = ("simd", width)
    if key not in memo:
        memo[key] = simd_utilisation_of_profile(instance.row_profile(),
                                                width)
    return memo[key]


def _imbalance(instance, strategy, n_workers, width) -> ImbalanceStats:
    memo = _memo(instance)
    key = (strategy, n_workers, width)
    if key not in memo:
        memo[key] = imbalance_for_strategy(
            strategy, instance.row_profile(), n_workers, width
        )
    return memo[key]


# -- the scalar simulator -----------------------------------------------------
def simulate_spmv(instance, format_name, device, seed=0, noise_sigma=None,
                  precision="fp64") -> SpmvMeasurement:
    """Simulate one SpMV run; raises :class:`FormatError` /
    :class:`CapacityError` when the format cannot host the matrix."""
    stats = instance.format_stats(format_name)  # may raise FormatError
    fmt_cls = get_format(format_name)
    try:
        value_bytes, peak_mult = PRECISIONS[precision]
    except KeyError:
        raise ValueError(
            f"unknown precision {precision!r}; available: "
            f"{sorted(PRECISIONS)}"
        ) from None

    scale = instance.scale
    nnz = instance.nnz
    n_rows, n_cols = instance.n_rows, instance.n_cols
    feats = instance.features

    value_fraction = value_bytes / 8.0
    fmt_value_bytes = (
        (stats.memory_bytes - stats.metadata_bytes) * scale * value_fraction
    )
    fmt_bytes = stats.metadata_bytes * scale + fmt_value_bytes
    stored = stats.stored_elements * scale

    x_y_bytes = (n_cols + n_rows) * value_bytes
    if (
        fmt_bytes > device.matrix_capacity_bytes
        or fmt_bytes + x_y_bytes > device.dram_bytes
    ):
        raise CapacityError(
            f"{format_name} needs {(fmt_bytes + x_y_bytes) / 2**30:.2f} GiB "
            f"> {device.name} capacity"
        )

    # ---- bottleneck 1: memory bandwidth --------------------------------
    xt = x_access_model(
        device, nnz, n_cols,
        feats.avg_num_neighbours, feats.cross_row_similarity,
        value_bytes=value_bytes,
    )
    bytes_total = (
        fmt_bytes
        + (n_cols + n_rows) * value_bytes
        + xt.extra_bytes
    )
    working_set = fmt_bytes + x_y_bytes
    bw_gbs = effective_bandwidth(device, working_set)
    bw_gbs *= device.spmv_bw_efficiency
    if device.is_cpu:
        avg_row = nnz / max(n_rows, 1)
        bw_gbs *= avg_row / (avg_row + 2.0)
    t_stream = bytes_total / (bw_gbs * 1e9)
    if device.is_gpu:
        # Scattered gathers sustain ~1/3 of streaming L2 bandwidth.
        t_gather = xt.gather_bytes / (device.llc_bw_gbs * 0.35 * 1e9)
        t_mem = max(t_stream, t_gather)
    else:
        t_gather = 0.0
        t_mem = t_stream

    # ---- bottleneck 2: compute / low ILP --------------------------------
    if stats.simd_friendly:
        simd_util = max(
            _simd_utilisation(instance, device.simd_width_dp),
            1.0 / device.simd_width_dp,
        )
    else:
        simd_util = 1.0 / device.simd_width_dp
    eff_gflops = max(device.peak_gflops * peak_mult * simd_util, 1e-3)
    t_flops = 2.0 * stored / (eff_gflops * 1e9)
    t_rows = (
        n_rows * device.row_start_cycles
        / (device.clock_ghz * 1e9 * device.cores)
    )
    t_comp = t_flops + t_rows

    # ---- bottleneck 3: memory latency -----------------------------------
    misses = xt.miss_rate * nnz
    t_lat = (
        misses * device.mem_latency_ns * 1e-9
        / (device.n_workers * device.latency_hiding)
    )

    # ---- bottleneck 4: load imbalance ------------------------------------
    strategy = getattr(fmt_cls, "partition_strategy", "row_block")
    imb = _imbalance(instance, strategy, device.n_workers,
                     device.simd_width_dp)

    # ---- composition ------------------------------------------------------
    t_work = max(t_mem, t_comp) + t_lat
    utilisation = nnz / (nnz + device.saturation_nnz)
    t_exec = t_work * imb.factor / max(utilisation, 1e-9)
    t_total = t_exec + device.kernel_launch_us * 1e-6

    sigma = noise_sigma
    noise = measurement_noise(
        device.name, f"{format_name}@{precision}",
        instance.name or (n_rows, n_cols, nnz), seed,
        **({"sigma": sigma} if sigma is not None else {}),
    )
    t_total *= noise

    flops_useful = 2.0 * nnz
    gflops = flops_useful / t_total / 1e9
    power = EnergyModel(device).estimate(
        gflops=gflops,
        time_s=t_total,
        bytes_moved=bytes_total,
        flops=flops_useful,
    )

    contributions = {
        "memory_bandwidth": t_mem,
        "low_ilp": t_comp,
        "memory_latency": t_lat,
        "load_imbalance": (imb.factor - 1.0) * t_work,
    }
    bottleneck = max(contributions, key=contributions.get)

    return SpmvMeasurement(
        device=device.name,
        format=format_name,
        matrix=instance.name,
        gflops=gflops,
        time_s=t_total,
        watts=power.watts,
        gflops_per_watt=power.gflops_per_watt,
        bottleneck=bottleneck,
        diagnostics={
            "t_mem": t_mem,
            "t_comp": t_comp,
            "t_lat": t_lat,
            "imbalance": imb.factor,
            "utilisation": utilisation,
            "bw_gbs": bw_gbs,
            "miss_rate": xt.miss_rate,
            "padding_ratio": stats.padding_ratio,
            "bytes_total": bytes_total,
            "simd_util": simd_util,
        },
    )


def simulate_best_detailed(instance, device, formats=None, seed=0,
                           noise_sigma=None,
                           precision="fp64") -> BestFormatOutcome:
    """Best measurement across the formats, with every skip's reason."""
    names = tuple(formats if formats is not None else device.formats)
    best: Optional[SpmvMeasurement] = None
    skipped: List[FormatSkip] = []
    for name in names:
        try:
            m = simulate_spmv(
                instance, name, device, seed=seed, noise_sigma=noise_sigma,
                precision=precision,
            )
        except FormatError as exc:
            skipped.append(FormatSkip(
                format=name,
                reason=str(exc),
                capacity=isinstance(exc, CapacityError),
            ))
            continue
        if best is None or m.gflops > best.gflops:
            best = m
    return BestFormatOutcome(
        best=best, skipped=tuple(skipped), attempted=names
    )


def simulate_best(instance, device, formats=None, seed=0, noise_sigma=None,
                  precision="fp64") -> Optional[SpmvMeasurement]:
    """Best measurement across the formats, ``None`` when all fail."""
    return simulate_best_detailed(
        instance, device, formats=formats, seed=seed,
        noise_sigma=noise_sigma, precision=precision,
    ).best
