"""Reference sweep scoring: materialised instances and scalar rows.

Before every chunk was scored straight from its specs, a sweep
materialised one ``MatrixInstance`` per spec (values included) and
scored those; before that, it could also run a scalar loop: one
``simulate_spmv``/``simulate_best`` call per (spec, device, format) of
the scalar model (``tests/oracles/model.py``), lifted into dict rows.
These are those paths, unchanged, so the production tables can be
compared with them row for row:

* :func:`spec_rows` — the scalar rows of one spec;
* :func:`grid_spec_rows` — dict rows of a spec range, read off one
  ``simulate_grid`` pass;
* :func:`scalar_sweep` — the whole table the scalar loop swept, one
  spec per chunk;
* :func:`instance_spec_table` / :func:`instance_sweep` — the instance
  cold path: columnar tables from ``simulate_grid`` over materialised
  instances, sub-chunk by sub-chunk.
"""

from typing import List, Optional, Sequence

from repro.core.dataset import (
    Dataset, SweepTable, _grid_sweep_table, _per_inst_columns,
)
from repro.formats.base import FormatError
from repro.perfmodel.batch import BOTTLENECKS, STATUS_OK, simulate_grid

from tests.oracles.model import simulate_best, simulate_spmv


def _base_row(dataset: Dataset, i: int) -> dict:
    """Per-spec columns shared by every measurement row of spec ``i``
    (features at declared scale + requested grid coordinates).  Both
    :func:`spec_rows` and :func:`grid_spec_rows` build on this, which
    keeps their row schemas identical."""
    inst = dataset.instance(i)
    feats = inst.features
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
            m = simulate_best(inst, dev, formats=names, seed=seed,
                              precision=precision)
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
                    m = simulate_spmv(inst, fmt, dev, seed=seed,
                                      precision=precision)
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
    ``simulate_grid`` over materialised instances (``instances`` when
    given, else fresh ones from ``dataset.instance``)."""
    indices = list(range(lo, hi))
    if instances is None:
        instances = [dataset.instance(i) for i in indices]
    elif len(instances) != len(indices):
        raise ValueError("instances must cover exactly specs lo..hi")
    grid = simulate_grid(instances, devices, formats=formats, seed=seed,
                         precisions=(precision,))
    per_inst = _per_inst_columns(
        indices, dataset.specs, lambda ci: instances[ci].features
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
    with a non-default ``stats_engine``."""
    parts = []
    for lo in range(0, len(dataset), sub_chunk):
        hi = min(lo + sub_chunk, len(dataset))
        parts.append(instance_spec_table(
            dataset, lo, hi, devices, best_only=best_only,
            formats=formats, seed=seed, precision=precision,
            instances=None if instances is None else instances[lo:hi],
        ))
    return SweepTable.concat(parts)
