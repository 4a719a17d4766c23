"""One-triple entry points onto the grid model.

:func:`simulate_spmv` scores one (matrix instance, storage format,
device) triple and :func:`simulate_best_detailed` /
:func:`simulate_best` one instance's best format on one device.  Each is
a single :func:`~repro.perfmodel.batch.simulate_grid` call: the model
itself — the paper's four bottlenecks, capacity gate, noise and energy —
is written once, in :mod:`repro.perfmodel.batch`.  These wrappers only
turn the grid's records into :class:`SpmvMeasurement` /
:class:`BestFormatOutcome` and its refused cells back into the
:class:`FormatError` / :class:`CapacityError` they stand for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..devices.base import Device
from ..formats.base import CapacityError, FormatError
from .batch import (
    BOTTLENECKS, DIAGNOSTIC_KEYS, STATUS_CAPACITY_ERROR, STATUS_OK,
    GridResult, simulate_grid,
)
from .instance import MatrixInstance

__all__ = ["SpmvMeasurement", "simulate_spmv", "simulate_best",
           "simulate_best_detailed", "BestFormatOutcome", "FormatSkip"]


@dataclass(frozen=True)
class SpmvMeasurement:
    """One simulated SpMV measurement (the paper's per-run record)."""

    device: str
    format: str
    matrix: str
    gflops: float
    time_s: float
    watts: float
    gflops_per_watt: float
    bottleneck: str
    diagnostics: Dict[str, float] = field(default_factory=dict, hash=False)


def _measurement(grid: GridResult, idx: int) -> SpmvMeasurement:
    """The measurement of grid cell ``idx``; raises the cell's
    :class:`FormatError`/:class:`CapacityError` if it was skipped."""
    rec = grid.data[idx]
    if rec["status"] != STATUS_OK:
        exc = (CapacityError if rec["status"] == STATUS_CAPACITY_ERROR
               else FormatError)
        raise exc(grid.skip_reasons[idx])
    return SpmvMeasurement(
        device=grid.device_names[rec["device"]],
        format=grid.format_names[rec["format"]],
        matrix=grid.instance_names[rec["instance"]],
        gflops=float(rec["gflops"]),
        time_s=float(rec["time_s"]),
        watts=float(rec["watts"]),
        gflops_per_watt=float(rec["gflops_per_watt"]),
        bottleneck=BOTTLENECKS[rec["bottleneck"]],
        diagnostics={key: float(rec[key]) for key in DIAGNOSTIC_KEYS},
    )


def simulate_spmv(
    instance: MatrixInstance,
    format_name: str,
    device: Device,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> SpmvMeasurement:
    """Simulate one SpMV run; raises :class:`FormatError`/:class:`CapacityError`
    when the format cannot host the matrix on this device.

    ``precision`` extends the paper's double-precision protocol with the
    single-precision variant it defers to future work: values shrink to
    4 bytes and the compute peak doubles, while index metadata is
    unchanged — so the speedup is sub-2x and largest for value-heavy
    (low-metadata) formats.
    """
    grid = simulate_grid(
        [instance], [device], formats=[format_name],
        precisions=(precision,), seed=seed, noise_sigma=noise_sigma,
    )
    return _measurement(grid, 0)


@dataclass(frozen=True)
class FormatSkip:
    """One format that refused (or overflowed on) a device, and why."""

    format: str
    reason: str
    capacity: bool  # True for CapacityError (hard storage overflow)


@dataclass(frozen=True)
class BestFormatOutcome:
    """Result of a best-format search, including every skipped format.

    ``best`` is ``None`` when all formats failed (e.g. HBM capacity
    overflow on the FPGA) — ``skipped`` then explains each failure.
    """

    best: Optional[SpmvMeasurement]
    skipped: Tuple[FormatSkip, ...]
    attempted: Tuple[str, ...]

    @property
    def all_failed(self) -> bool:
        return self.best is None and bool(self.attempted)

    @property
    def skip_reasons(self) -> Dict[str, str]:
        """``{format: reason}`` for every skipped format."""
        return {s.format: s.reason for s in self.skipped}


def simulate_best_detailed(
    instance: MatrixInstance,
    device: Device,
    formats: Optional[List[str]] = None,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> BestFormatOutcome:
    """Best measurement across the device's formats, with the reason for
    every format that was skipped (the paper reports the best-performing
    format per matrix/device; Section V-A's VSL/HBM failures motivate the
    skip accounting)."""
    names = tuple(formats if formats is not None else device.formats)
    if not names:
        # simulate_grid reads an empty list as "every device format".
        return BestFormatOutcome(best=None, skipped=(), attempted=())
    grid = simulate_grid(
        [instance], [device], formats=list(names), precisions=(precision,),
        seed=seed, noise_sigma=noise_sigma,
    )
    best = int(grid.best_per()[0, 0, 0])
    return BestFormatOutcome(
        best=None if best < 0 else _measurement(grid, best),
        skipped=tuple(
            FormatSkip(format=s.format, reason=s.reason,
                       capacity=s.kind == "capacity")
            for s in grid.skips()
        ),
        attempted=names,
    )


def simulate_best(
    instance: MatrixInstance,
    device: Device,
    formats: Optional[List[str]] = None,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> Optional[SpmvMeasurement]:
    """Best measurement across the device's formats (the paper reports the
    best-performing format per matrix/device).

    Formats that refuse the matrix are skipped; returns ``None`` when every
    format fails (e.g. HBM capacity overflow on the FPGA).  Use
    :func:`simulate_best_detailed` to learn *why* formats were skipped.
    """
    return simulate_best_detailed(
        instance, device, formats=formats, seed=seed,
        noise_sigma=noise_sigma, precision=precision,
    ).best
