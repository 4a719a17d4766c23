"""Device models.

A :class:`Device` captures the architectural parameters of one Table-II
testbed: parallel width, SIMD lanes, the two-level memory system (LLC and
DRAM/HBM bandwidths, measured values from the paper), latency behaviour,
power envelope and the set of storage formats benchmarked on it.  The
performance simulator (:mod:`repro.perfmodel`) combines these parameters
with structural statistics measured on the actual matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Device", "DeviceClass", "DeviceColumns"]


class DeviceClass:
    """String constants for the three architecture classes."""

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"
    ALL = (CPU, GPU, FPGA)


@dataclass(frozen=True)
class Device:
    """Architectural description of one testbed.

    Bandwidths are the paper's *measured* STREAM / HBM-channel values, not
    datasheet peaks.  ``n_workers`` is the granularity at which work is
    partitioned for imbalance purposes (hardware threads on CPUs, resident
    warps on GPUs, compute units on the FPGA).
    """

    name: str
    device_class: str
    cores: int                    # physical cores / SMs / compute units
    n_workers: int                # partition granularity (threads / warps)
    simd_width_dp: int            # double-precision SIMD lanes per worker
    clock_ghz: float
    peak_gflops: float            # double-precision peak
    llc_mb: float                 # last-level cache (L2 for GPUs)
    llc_bw_gbs: float             # measured LLC bandwidth
    dram_bw_gbs: float            # measured DRAM / HBM bandwidth
    dram_gb: float                # memory capacity (HBM for GPU/FPGA)
    mem_latency_ns: float         # uncontended memory latency
    latency_hiding: float         # outstanding misses tolerated per worker
    kernel_launch_us: float       # fixed per-SpMV dispatch cost
    idle_w: float                 # idle package/board power
    max_w: float                  # fully-active package/board power
    saturation_nnz: float         # work needed to saturate parallelism
    formats: Tuple[str, ...] = field(default=())
    row_start_cycles: float = 7.0  # per-row loop/bookkeeping overhead
    # Fraction of the measured (STREAM-like) bandwidth an SpMV stream
    # sustains: CPUs stream the matrix contiguously and reach ~1.0, GPUs
    # lose a fraction to scattered metadata transactions.
    spmv_bw_efficiency: float = 1.0
    # Capacity available to the *matrix* stream, if tighter than dram_gb
    # (the Alveo's HBM channels that actually store the matrix).
    matrix_capacity_gb: float = 0.0  # 0 -> use dram_gb

    def __post_init__(self):
        if self.device_class not in DeviceClass.ALL:
            raise ValueError(f"bad device class {self.device_class!r}")
        if self.n_workers <= 0 or self.cores <= 0:
            raise ValueError("cores/n_workers must be positive")
        if self.llc_bw_gbs < self.dram_bw_gbs:
            raise ValueError("LLC bandwidth below DRAM bandwidth")
        if self.max_w < self.idle_w:
            raise ValueError("max power below idle power")

    # ------------------------------------------------------------------
    @property
    def llc_bytes(self) -> float:
        return self.llc_mb * 1024 * 1024

    @property
    def dram_bytes(self) -> float:
        return self.dram_gb * 1024 * 1024 * 1024

    @property
    def matrix_capacity_bytes(self) -> float:
        cap = self.matrix_capacity_gb or self.dram_gb
        return cap * 1024 * 1024 * 1024

    @property
    def is_gpu(self) -> bool:
        return self.device_class == DeviceClass.GPU

    @property
    def is_cpu(self) -> bool:
        return self.device_class == DeviceClass.CPU

    @property
    def is_fpga(self) -> bool:
        return self.device_class == DeviceClass.FPGA

    def supports_format(self, format_name: str) -> bool:
        return format_name in self.formats


# Every numeric Device attribute, fields and properties alike.
_NUMERIC = tuple(
    f.name for f in fields(Device) if f.type in ("int", "float")
) + tuple(name for name, value in vars(Device).items()
          if isinstance(value, property))


class DeviceColumns:
    """Device parameters gathered per grid cell.

    Each numeric :class:`Device` field and property (``llc_bytes``,
    ``is_gpu``, ...) is an attribute holding the float64 array
    ``[getattr(devices[k], name) for k in index]`` (flags as 0/1).  The
    model helpers of :mod:`repro.devices` read their device through
    attributes only, so they take one ``Device`` (scalars) or a whole
    grid's cells (arrays) alike.
    """

    def __init__(self, devices: Sequence[Device], index: np.ndarray):
        table = np.array(
            [[float(getattr(dev, name)) for name in _NUMERIC]
             for dev in devices]
        ).reshape(len(devices), len(_NUMERIC))[index]
        self.__dict__.update(zip(_NUMERIC, table.T))
