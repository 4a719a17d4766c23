"""Experiment execution: sweep -> split -> train -> evaluate.

:func:`run_experiment` is the end-to-end driver behind ``repro
experiment``: it sweeps the artificial dataset through the batched
pipeline (one per-format measurement row per grid cell), builds the
protocol's deterministic folds, trains one
:class:`~repro.ml.FormatSelector` per fold and evaluates it batched on
the held-out slice.  Everything downstream of the sweep is pure
book-keeping, so the result is a deterministic function of the spec:
same seed, byte-identical result JSON — across ``jobs`` counts and
cache states (sweeps are row-identical by construction).

Protocols
---------
``kfold``
    Per device: instances are split into ``n_splits`` seeded folds; each
    fold trains on the other folds' rows and evaluates on its own.  This
    is the paper's per-device evaluation protocol.
``lodo``
    Leave-one-device-out transfer: for each held-out device, training
    rows are pooled from the *other* devices — restricted to the
    held-out device's candidate formats, per-(matrix, format) GFLOPS
    averaged across source devices — and evaluated on the held-out
    device's own rows.  Folds whose sources share no format with the
    held-out device (e.g. the FPGA's VSL) are recorded as skipped.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..core.dataset import Dataset, SweepTable, sweep
from ..core.feature_space import build_dataset_specs
from ..devices import get_device
from ..ml.selector import FormatSelector
from .report import ExperimentResult, FoldResult
from .spec import ExperimentSpec
from .splits import kfold_splits, leave_one_device_out

__all__ = ["run_experiment"]

# Row keys that are per-measurement, not per-matrix: stripped when
# pooling rows across source devices for the lodo protocol.
_MEASUREMENT_ONLY = ("device", "format", "gflops", "watts",
                     "gflops_per_watt", "bottleneck")


def _as_table(table) -> SweepTable:
    """Lift dict rows into a table (synthetic fixtures, legacy callers)."""
    if isinstance(table, SweepTable):
        return table
    return SweepTable.from_rows(list(table))


def _kfold_folds(
    spec: ExperimentSpec, table: SweepTable, devices
) -> List[FoldResult]:
    table = _as_table(table)
    folds: List[FoldResult] = []
    for dev in devices:
        dev_table = table.where(device=dev.name)
        if len(dev_table) == 0:
            folds.append(FoldResult(
                device=dev.name, fold="fold0", n_train=0, n_test=0,
                note=f"no measurable matrices on {dev.name}",
            ))
            continue
        keys = dev_table.unique("matrix")
        if len(keys) < spec.n_splits:
            # Capacity skips can leave a device with fewer measurable
            # matrices than folds.  The sweep has already run, so record
            # a skipped fold with the reason instead of discarding every
            # other device's results.  (Statically doomed fold counts —
            # n_splits > len(dataset) or > limit — are rejected before
            # the sweep.)
            folds.append(FoldResult(
                device=dev.name, fold="fold0", n_train=0,
                n_test=len(keys),
                note=(
                    f"only {len(keys)} measurable matrices for "
                    f"n_splits={spec.n_splits}; lower --folds or raise "
                    "--limit/--scale"
                ),
            ))
            continue
        for fi, fold in enumerate(
            kfold_splits(keys, spec.n_splits, spec.seed)
        ):
            train = dev_table.where_in("matrix", fold.train)
            test = dev_table.where_in("matrix", fold.test)
            selector = FormatSelector(
                spec.candidate_formats(dev),
                feature_keys=spec.feature_keys,
                model_factory=spec.model_factory(),
            ).fit(train)
            report = selector.evaluate(test, detail=True)
            choices = report.pop("choices")
            folds.append(FoldResult(
                device=dev.name, fold=f"fold{fi}",
                n_train=len(fold.train), n_test=len(fold.test),
                report=dict(report), choices=choices,
            ))
    return folds


def _pooled_training_rows(rows, held_out: str, candidates) -> List[dict]:
    """Source-device rows pooled per (matrix, format) for lodo.

    Feature columns are per-matrix (identical across a matrix's rows on
    every device), so any row of the matrix provides them; the pooled
    target is the mean GFLOPS across source devices, and the ``device``
    coordinate is dropped — the pooled table is device-less by design.
    """
    feats: dict = {}
    perf: dict = {}
    for r in rows:
        if r["device"] == held_out or r["format"] not in candidates:
            continue
        key = r["matrix"]
        feats.setdefault(key, r)
        perf.setdefault(key, {}).setdefault(r["format"], []).append(
            r["gflops"]
        )
    pooled: List[dict] = []
    for key, by_format in perf.items():
        base = {
            k: v for k, v in feats[key].items()
            if k not in _MEASUREMENT_ONLY
        }
        for fmt, gflops in by_format.items():
            pooled.append(
                {**base, "format": fmt, "gflops": float(np.mean(gflops))}
            )
    return pooled


def _lodo_folds(
    spec: ExperimentSpec, table: SweepTable, devices
) -> List[FoldResult]:
    table = _as_table(table)
    # Pooling averages per (matrix, format) across source devices — a
    # synthetic, device-less table, built through the dict shim (it is
    # tiny: one row per matrix and candidate format).  The held-out
    # evaluation slice stays a zero-copy-category table slice.
    rows = table.rows
    folds: List[FoldResult] = []
    for fold in leave_one_device_out([d.name for d in devices]):
        held_out = fold.test[0]
        held_dev = get_device(held_out)
        candidates = spec.candidate_formats(held_dev)
        train = _pooled_training_rows(rows, held_out, set(candidates))
        test = table.where(device=held_out)
        n_train = len({r["matrix"] for r in train})
        n_test = len(test.unique("matrix"))
        if not train or not len(test):
            if not train:
                has_source = any(
                    r["device"] != held_out for r in rows
                )
                why = (
                    f"no source-device rows carry any of {held_out}'s "
                    f"candidate formats" if has_source
                    else "source devices produced no measurable rows"
                )
            else:
                why = f"no measurable matrices on {held_out}"
            folds.append(FoldResult(
                device=held_out, fold=held_out, n_train=n_train,
                n_test=n_test, note=why,
            ))
            continue
        selector = FormatSelector(
            candidates,
            feature_keys=spec.feature_keys,
            model_factory=spec.model_factory(),
        ).fit(train)
        report = selector.evaluate(test, detail=True)
        choices = report.pop("choices")
        folds.append(FoldResult(
            device=held_out, fold=held_out, n_train=n_train,
            n_test=n_test, report=dict(report), choices=choices,
        ))
    return folds


def run_experiment(
    spec: ExperimentSpec,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    table: Optional[SweepTable] = None,
) -> ExperimentResult:
    """Run one cross-validated selector experiment end-to-end.

    ``jobs``/``cache_dir`` tune the sweep engine only — they never
    change the result (row-identical sweeps, bit-identical batched
    selector scoring).  ``progress`` receives the sweep's
    (done, total) callbacks.

    ``table`` skips the sweep entirely and runs the protocol over a
    saved :class:`~repro.core.table.SweepTable` (``repro experiment
    --table``): it must be a ``best_only=False`` sweep at the spec's
    precision, and a table that matches what the spec would have swept
    reproduces the swept result byte for byte.
    """
    spec.validate()
    devices = [get_device(name) for name in spec.device_names]
    if table is not None:
        _check_saved_table(spec, table)
        n_instances = len(table.unique("matrix"))
    else:
        dataset_specs = build_dataset_specs(spec.scale)
        if spec.limit is not None:
            dataset_specs = dataset_specs[:spec.limit]
        dataset = Dataset(
            dataset_specs, max_nnz=spec.max_nnz, name=spec.scale
        )
        n_instances = len(dataset)
    if spec.protocol == "kfold" and n_instances < spec.n_splits:
        # The instance count upper-bounds the measurable matrices per
        # device; reject a statically doomed fold count before the
        # sweep runs (or before the saved table is sliced).
        raise ValueError(
            f"dataset has {n_instances} instances for "
            f"n_splits={spec.n_splits}; lower --folds or raise "
            "--limit/--scale"
        )
    if table is None:
        table = sweep(
            dataset, devices, best_only=False,
            formats=list(spec.formats) if spec.formats else None,
            seed=spec.seed, jobs=jobs, cache_dir=cache_dir,
            precision=spec.precision, progress=progress,
        )
    if spec.protocol == "kfold":
        folds = _kfold_folds(spec, table, devices)
    else:
        folds = _lodo_folds(spec, table, devices)
    return ExperimentResult(
        spec=spec, folds=folds, n_instances=n_instances,
        n_rows=len(table),
    )


def _check_saved_table(spec: ExperimentSpec, table: SweepTable) -> None:
    """Fail fast, actionably, when a saved table cannot back the spec."""
    for column in ("matrix", "device", "format", "gflops"):
        if column not in table.names:
            raise ValueError(
                f"saved table has no {column!r} column (columns: "
                f"{table.names}); pass a measurement table written by "
                "`repro sweep --out table.npz`"
            )
    if "precision" in table.names:
        precisions = table.unique("precision")
        if precisions and precisions != [spec.precision]:
            raise ValueError(
                f"saved table was swept at precision "
                f"{', '.join(precisions)} but the experiment asks for "
                f"{spec.precision}; re-sweep at {spec.precision} or "
                "drop the mismatched flag"
            )
    if len(table) and len(table.categories("format")) > 1:
        g, _ = table.group_index("matrix")
        d, _ = table.group_index("device")
        n_dev = int(d.max()) + 1
        per_pair = np.bincount(g * n_dev + d)
        if per_pair[per_pair > 0].max() == 1:
            raise ValueError(
                "saved table looks like a best-only sweep (one row per "
                "matrix and device, several formats overall); the "
                "experiment protocols train on per-format rows — "
                "re-run `repro sweep --all-formats --out ...`"
            )
