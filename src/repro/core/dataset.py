"""Dataset containers and the sweep entry point.

A :class:`Dataset` owns a list of specs; :meth:`Dataset.instance`
materialises one representative :class:`~repro.perfmodel.instance.
MatrixInstance` on demand for callers that want the matrix itself.
The :func:`sweep` helper runs the simulator across devices/formats and
returns a columnar :class:`~repro.core.table.SweepTable` that the
analysis, ml and experiment layers consume directly.

:func:`fused_spec_table` is how every sweep chunk is scored: specs go
straight to structure arrays, batched analytic stats and the grid
simulator, and the table's columns are gathered from the scored grid
without materialising an instance or a dict per row.  The instance
path and the dict-row scalar reference the agreement suites compare
against live in ``tests/oracles/sweep.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..devices.base import Device
from .generator import MatrixSpec
from .table import SweepTable

__all__ = ["Dataset", "sweep", "fused_spec_table", "SweepTable"]

DEFAULT_MAX_NNZ = 100_000


class Dataset:
    """A named list of matrix specs plus the representative cap."""

    def __init__(
        self,
        specs: Sequence[MatrixSpec],
        max_nnz: int = DEFAULT_MAX_NNZ,
        name: str = "dataset",
    ):
        self.specs = list(specs)
        self.max_nnz = max_nnz
        self.name = name

    def __len__(self) -> int:
        return len(self.specs)

    def instance(self, i: int):
        """A fresh representative instance for spec ``i``, named
        ``<dataset>[i]`` as its sweep rows are."""
        from ..perfmodel.instance import MatrixInstance

        return MatrixInstance.from_spec(
            self.specs[i], max_nnz=self.max_nnz, name=f"{self.name}[{i}]"
        )

    def instances(self) -> Iterable:
        for i in range(len(self)):
            yield self.instance(i)


def _first_seen_codes(values: np.ndarray, labels: Sequence[str]):
    """Categorical (codes, categories) with categories ordered by first
    appearance in ``values`` — the same encoding ``SweepTable.from_rows``
    produces from dict rows, so the columnar tables equal the dict-row
    reference's."""
    uniq, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    categories = [labels[int(uniq[pos])] for pos in order]
    return rank[inverse], categories


def _per_inst_columns(
    indices: Sequence[int],
    specs: Sequence[MatrixSpec],
    features_of: Callable[[int], "object"],
) -> Dict[str, np.ndarray]:
    """Per-spec scalar columns (measured features at declared scale plus
    requested grid coordinates), gathered once per chunk member.
    ``features_of`` maps a chunk-local index to its ``Features``."""
    n_inst = len(indices)
    per_inst = {
        "spec_index": np.empty(n_inst, dtype=np.int64),
        "mem_footprint_mb": np.empty(n_inst),
        "avg_nnz_per_row": np.empty(n_inst),
        "skew_coeff": np.empty(n_inst),
        "cross_row_similarity": np.empty(n_inst),
        "avg_num_neighbours": np.empty(n_inst),
        "nnz": np.empty(n_inst, dtype=np.int64),
        "n_rows": np.empty(n_inst, dtype=np.int64),
        "req_footprint_mb": np.empty(n_inst),
        "req_avg_nnz": np.empty(n_inst),
        "req_skew": np.empty(n_inst),
        "req_sim": np.empty(n_inst),
        "req_neigh": np.empty(n_inst),
    }
    for ci, i in enumerate(indices):
        feats = features_of(ci)
        spec = specs[i]
        per_inst["spec_index"][ci] = i
        per_inst["mem_footprint_mb"][ci] = feats.mem_footprint_mb
        per_inst["avg_nnz_per_row"][ci] = feats.avg_nnz_per_row
        per_inst["skew_coeff"][ci] = feats.skew_coeff
        per_inst["cross_row_similarity"][ci] = feats.cross_row_similarity
        per_inst["avg_num_neighbours"][ci] = feats.avg_num_neighbours
        per_inst["nnz"][ci] = feats.nnz
        per_inst["n_rows"][ci] = feats.n_rows
        per_inst["req_footprint_mb"][ci] = spec.mem_footprint_mb
        per_inst["req_avg_nnz"][ci] = spec.avg_nnz_per_row
        per_inst["req_skew"][ci] = spec.skew_coeff
        per_inst["req_sim"][ci] = spec.cross_row_sim
        per_inst["req_neigh"][ci] = spec.avg_num_neigh
    return per_inst


def _grid_sweep_table(
    grid, per_inst: Dict[str, np.ndarray], best_only: bool, precision: str
) -> SweepTable:
    """Assemble the measurement table from a scored grid plus the chunk's
    per-spec scalar columns — shared with the instance oracle in
    ``tests/oracles/sweep.py``, so both emit byte-identical tables by
    construction."""
    from ..perfmodel.batch import BOTTLENECKS, STATUS_OK

    if best_only:
        flat = grid.best_per().ravel()
        flat = flat[flat >= 0]
    else:
        flat = np.flatnonzero(grid.data["status"] == STATUS_OK)
    if len(flat) == 0:
        return SweepTable({})
    rec = grid.data[flat]

    inst_idx = rec["instance"].astype(np.int64)
    columns: Dict[str, np.ndarray] = {}
    categories: Dict[str, List[str]] = {}
    # Cell emission order is instance-major, so first-seen == sorted for
    # the matrix column; device/format/bottleneck need the rank pass.
    columns["matrix"], categories["matrix"] = _first_seen_codes(
        inst_idx, grid.instance_names
    )
    for name, arr in per_inst.items():
        columns[name] = arr[inst_idx]
    columns["device"], categories["device"] = _first_seen_codes(
        rec["device"].astype(np.int64), grid.device_names
    )
    columns["format"], categories["format"] = _first_seen_codes(
        rec["format"].astype(np.int64), grid.format_names
    )
    columns["precision"] = np.zeros(len(rec), dtype=np.int64)
    categories["precision"] = [precision]
    for key in ("gflops", "watts", "gflops_per_watt"):
        columns[key] = rec[key].astype(np.float64)
    columns["bottleneck"], categories["bottleneck"] = _first_seen_codes(
        rec["bottleneck"].astype(np.int64), BOTTLENECKS
    )
    return SweepTable(columns, categories)


def fused_spec_table(
    dataset: Dataset,
    lo: int,
    hi: int,
    devices: Sequence[Device],
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
    records: Optional[list] = None,
) -> SweepTable:
    """Measurement table for specs ``lo..hi`` — how every sweep chunk
    is scored.

    Specs go straight to CSR structure arrays, batched analytic format
    statistics and grid scoring — no :class:`MatrixInstance`, no value
    payloads.  ``records`` (one
    :class:`~repro.perfmodel.fused.ScoringRecord` or ``None`` per spec,
    e.g. from the instance cache) seed the scorer's memos; ``None``
    slots are replaced in place by the records this chunk derived, and
    every record that grew has ``grown`` set.  Output is row-for-row
    bit-identical to scoring materialised instances (the fused
    agreement suite locks this down against the instance oracle).
    """
    from ..perfmodel.batch import _score_grid
    from ..perfmodel.fused import FusedSpecSource

    indices = list(range(lo, hi))
    source = FusedSpecSource(
        [dataset.specs[i] for i in indices],
        [f"{dataset.name}[{i}]" for i in indices],
        max_nnz=dataset.max_nnz,
        records=records,
    )
    if records is not None:
        records[:] = source.records
    grid = _score_grid(source, devices, formats=formats, seed=seed,
                       precisions=(precision,))
    per_inst = _per_inst_columns(indices, dataset.specs, source.features)
    return _grid_sweep_table(grid, per_inst, best_only, precision)


def sweep(
    dataset: Dataset,
    devices: Sequence[Device],
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    precision: str = "fp64",
    run_dir: Optional[str] = None,
    resume: bool = False,
    faults=None,
    chunk_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    report=None,
) -> SweepTable:
    """Simulate the dataset on every device.

    With ``best_only`` (the paper's reporting convention) one row per
    (matrix, device) carries the best format; otherwise one row per
    (matrix, device, format).  Matrices that no format can host on a device
    (FPGA capacity) are skipped, matching the paper's handling.  The
    result is a columnar :class:`~repro.core.table.SweepTable`
    (``.rows`` gives the historical dict-row projection).

    ``jobs`` sets the parallelism: 1 (the default) runs every chunk in
    this process, ``jobs > 1`` shards over a worker crew and 0
    auto-detects the core count.  ``cache_dir`` enables the persistent
    cache of per-spec scoring records, kept in the directory's one
    ``cache.rpak`` pack, so warm re-sweeps derive only what the records
    lack.  Every chunk is scored straight from the
    specs (structure generation + batched analytic stats) through the
    vectorised grid simulator.  ``precision`` scores every cell at fp64
    (the default) or fp32.  Output is row-for-row identical across
    ``jobs`` and cache states; every path funnels through
    :func:`repro.pipeline.run_sweep`.

    Resilience controls pass straight through to the engine: ``run_dir``
    journals completed chunks, their table shards in one
    ``shards.rpak`` pack (``resume=True`` skips them on a rerun),
    ``chunk_timeout``/``max_retries`` set the per-chunk deadline and
    retry budget, ``faults`` arms a deterministic
    :class:`~repro.pipeline.faults.FaultPlan` and ``report`` receives a
    filled :class:`~repro.pipeline.report.RunReport` — none of them
    change the merged rows.
    """
    from ..pipeline.engine import run_sweep

    return run_sweep(
        dataset, devices, best_only=best_only, formats=formats,
        seed=seed, jobs=jobs, cache_dir=cache_dir, progress=progress,
        precision=precision,
        run_dir=run_dir, resume=resume, faults=faults,
        chunk_timeout=chunk_timeout, max_retries=max_retries,
        report=report,
    )
