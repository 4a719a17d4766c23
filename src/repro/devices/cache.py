"""Two-level memory model: effective bandwidth and x-vector locality.

The paper's CPU story (Fig 3) is driven entirely by whether the working set
fits the LLC; its GPU irregularity story (Fig 6) by whether scattered ``x``
gathers waste memory transactions.  Both are modelled here:

* :func:`effective_bandwidth` — harmonic blend of LLC and DRAM bandwidth by
  the fraction of the working set the cache can hold.
* :func:`x_access_model` — per-access miss probability for the ``x``
  gather, discounted by the two locality features (spatial: adjacent
  columns share a cache line; temporal: adjacent rows reuse lines), and
  the GPU's sector traffic and L2 time for the same gather.

Both work elementwise over NumPy arrays: ``device`` is one
:class:`~repro.devices.base.Device` or the per-cell
:class:`~repro.devices.base.DeviceColumns` of a scoring grid, and the
matrix quantities broadcast against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["effective_bandwidth", "x_access_model", "XTraffic",
           "CACHE_LINE_BYTES"]

CACHE_LINE_BYTES = 64
# Fraction of the LLC realistically available to x (the rest streams the
# matrix through).
X_CACHE_FRACTION = 0.5
GPU_SECTOR_BYTES = 32  # L2 sector granularity of an uncoalesced lane
# Scattered gathers sustain ~1/3 of streaming L2 bandwidth (sector
# replays + bank conflicts).
GATHER_BW_FRACTION = 0.35


def effective_bandwidth(device, working_set_bytes):
    """Sustained bandwidth in GB/s for a streaming working set.

    Working sets within the LLC run at the measured LLC bandwidth; beyond
    it, the cached fraction is served fast and the remainder at DRAM speed
    (harmonic mean — bytes, not time, are split).  This produces the sharp
    performance "cutoff" past the LLC size that Fig 3 shows for every CPU.
    An empty working set runs at LLC bandwidth.
    """
    fits = np.asarray(working_set_bytes) > 0
    safe_ws = np.where(fits, working_set_bytes, 1.0)
    cached = np.minimum(1.0, device.llc_bytes / safe_ws)
    inv = cached / device.llc_bw_gbs + (1.0 - cached) / device.dram_bw_gbs
    return np.where(fits, 1.0 / inv, device.llc_bw_gbs)[()]


@dataclass(frozen=True)
class XTraffic:
    """Result of the x-gather locality model."""

    miss_rate: float       # probability an x access misses the cache
    extra_bytes: float     # traffic beyond the compulsory x read
    gather_bytes: float    # L2/sector traffic of the gather itself (GPU)
    gather_s: float        # L2 time of that traffic (GPU)


def x_access_model(
    device,
    nnz,
    n_cols,
    avg_num_neighbours,
    cross_row_similarity,
    value_bytes: float = 8.0,
) -> XTraffic:
    """Model the irregular gather of the ``x`` vector.

    Each of the ``nnz`` accesses hits the cache if (a) the whole vector fits
    in the x-budget of the LLC, (b) the access is adjacent to the previous
    one in the row (spatial locality, probability ``avg_num_neighbours/2``),
    or (c) it re-touches a line the previous row loaded (temporal locality,
    probability ``cross_row_similarity``).  Residual misses each pull a full
    cache line of which ``value_bytes`` are useful.
    """
    x_bytes = np.asarray(n_cols * value_bytes)
    budget = device.llc_bytes * X_CACHE_FRACTION
    coverage = np.where(
        x_bytes > 0, np.minimum(1.0, budget / x_bytes), 1.0
    )
    spatial_hit = np.minimum(avg_num_neighbours / 2.0, 1.0)
    temporal_hit = np.minimum(np.maximum(cross_row_similarity, 0.0), 1.0)
    # An access misses only if it is not covered by capacity, not spatially
    # adjacent and not a cross-row reuse.
    miss = (1.0 - coverage) * (1.0 - spatial_hit) * (1.0 - temporal_hit)
    extra = miss * nnz * max(CACHE_LINE_BYTES - value_bytes, 0.0)
    # GPU coalescing traffic: adjacent lanes (probability = spatial) share
    # a transaction and cost ``value_bytes`` useful bytes; scattered lanes
    # each pull a full L2 sector.  This is the dominant irregularity
    # penalty on GPUs — it applies even when x fits L2, because it drains
    # L2/LSU bandwidth.
    gather_bytes = nnz * (
        spatial_hit * value_bytes
        + (1.0 - spatial_hit) * GPU_SECTOR_BYTES
    )
    gather_s = gather_bytes / (device.llc_bw_gbs * GATHER_BW_FRACTION * 1e9)
    return XTraffic(
        miss_rate=miss,
        extra_bytes=extra,
        gather_bytes=gather_bytes,
        gather_s=gather_s,
    )
