"""Power and energy-efficiency model (Fig 2b).

The paper measures average power over the SpMV run via RAPL (x86),
Altra-HWMON (ARM), nvidia-smi (GPUs) and xbutil (FPGA), then reports
GFLOPS/W.  We model average power as idle power plus dynamic power scaled
by how hard the run drives the device — a blend of achieved bandwidth and
compute utilisation, which is what package power tracks on all of these
parts.  IBM-POWER9 keeps the paper's pessimistic constant 200 W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyModel", "PowerEstimate"]

# Memory-subsystem activity dominates SpMV power draw; compute pipes are
# mostly idle at <1 flop/byte.
BW_WEIGHT = 0.85
COMPUTE_WEIGHT = 0.15


@dataclass(frozen=True)
class PowerEstimate:
    """Average power and derived energy metrics for one SpMV run."""

    watts: float
    energy_j: float
    gflops_per_watt: float


class EnergyModel:
    """Utilisation-scaled power model for a device.

    Works elementwise over NumPy arrays: ``device`` is one
    :class:`~repro.devices.base.Device` or the per-cell
    :class:`~repro.devices.base.DeviceColumns` of a scoring grid.
    """

    def __init__(self, device):
        self.device = device

    def average_power(self, bw_utilisation, compute_utilisation):
        """Average board/package power in watts.

        ``bw_utilisation`` is achieved bytes/s over the device's DRAM
        bandwidth (clipped to 1), ``compute_utilisation`` achieved flops
        over peak.
        """
        bw_u = np.minimum(np.maximum(bw_utilisation, 0.0), 1.0)
        c_u = np.minimum(np.maximum(compute_utilisation, 0.0), 1.0)
        activity = BW_WEIGHT * bw_u + COMPUTE_WEIGHT * c_u
        dev = self.device
        return dev.idle_w + (dev.max_w - dev.idle_w) * activity

    def estimate(self, gflops, time_s, bytes_moved, flops) -> PowerEstimate:
        """Full estimate for a run of ``time_s`` seconds."""
        if np.any(np.asarray(time_s) <= 0):
            raise ValueError("time_s must be positive")
        bw_u = (bytes_moved / time_s) / (self.device.dram_bw_gbs * 1e9)
        c_u = (flops / time_s) / (self.device.peak_gflops * 1e9)
        watts = self.average_power(bw_u, c_u)
        return PowerEstimate(
            watts=watts,
            energy_j=watts * time_s,
            gflops_per_watt=np.where(watts > 0, gflops / watts, 0.0)[()],
        )
