"""Feature-slice analysis — the Fig 9 machinery, generalised.

"Fix three features to qualitative classes, sweep the fourth" is how the
paper extracts per-bottleneck insight from the dataset (Section V-F).
:func:`feature_slice` implements it over a measurement table, and
:func:`bottleneck_census` summarises which bottleneck dominates where.

Every function reduces a :class:`~repro.core.table.SweepTable`'s
columns; the parity suite pins them to the dict-row reference in
``tests/oracles/analysis.py``, key order included.  Grid sweeps take
few distinct values per feature axis, so :func:`feature_slice` applies
the caller's Python predicates once per *unique* value and broadcasts
the verdicts back through the codes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core.table import SweepTable
from .stats import BoxStats, box_stats

__all__ = ["feature_slice", "bottleneck_census", "optimal_ranges"]


def _scalar(v):
    """A decoded column entry as the Python scalar a dict row carries
    (categorical columns decode to plain str, which has no ``item``)."""
    return v.item() if hasattr(v, "item") else v


def _unique_mask(
    table: SweepTable, key: str, pred: Callable[[float], bool]
) -> np.ndarray:
    """Row mask for ``pred(row[key])``, evaluating the predicate once
    per distinct column value."""
    arr = table.column(key)
    uniq, inverse = np.unique(arr, return_inverse=True)
    verdicts = np.fromiter(
        (bool(pred(_scalar(v))) for v in uniq), dtype=bool,
        count=len(uniq),
    )
    return verdicts[inverse]


def feature_slice(
    table: SweepTable,
    sweep_key: str,
    fixed: Dict[str, Callable[[float], bool]],
    value_key: str = "gflops",
) -> Dict[float, BoxStats]:
    """Distribution of ``value_key`` per value of ``sweep_key``, restricted
    to rows whose other features pass the ``fixed`` predicates, in
    ascending order of the swept value.

    Example (Fig 9: neighbours sweep with good fixed features)::

        feature_slice(
            table, "req_neigh",
            fixed={"req_footprint_mb": lambda v: v < 256,
                   "req_avg_nnz": lambda v: v >= 50,
                   "req_skew": lambda v: v <= 100},
        )
    """
    keep = np.ones(len(table), dtype=bool)
    for key, pred in fixed.items():
        keep &= _unique_mask(table, key, pred)
    sweep_vals = table.column(sweep_key)[keep]
    values = table.column(value_key)[keep]
    out: Dict[float, BoxStats] = {}
    for v in np.unique(sweep_vals):
        sample = values[sweep_vals == v]
        if len(sample):
            out[_scalar(v)] = box_stats(sample)
    return out


def bottleneck_census(
    table: SweepTable, by: str = "device"
) -> Dict[str, Dict[str, float]]:
    """Fraction of matrices dominated by each bottleneck, grouped by
    ``by`` (device, format, ...) in order of first appearance.

    Quantifies the paper's conclusion section: SpMV stays memory-bound
    overall, low ILP shows up for short rows, latency on GPUs, while
    imbalance is mostly absorbed by the formats.
    """
    group, group_keys = table.group_index(by)
    b_codes = table.codes("bottleneck")
    b_cats = table.categories("bottleneck")
    joint = np.bincount(
        group * len(b_cats) + b_codes,
        minlength=len(group_keys) * len(b_cats),
    ).reshape(len(group_keys), len(b_cats))
    out: Dict[str, Dict[str, float]] = {}
    for gi, key in enumerate(group_keys):
        total = int(joint[gi].sum())
        out[key] = {
            b: 100.0 * int(c) / total
            for b, c in sorted(zip(b_cats, joint[gi]))
            if c
        }
    return out


def optimal_ranges(
    table: SweepTable,
    feature_key: str,
    value_key: str = "gflops",
    top_fraction: float = 0.25,
) -> Optional[Dict[str, float]]:
    """The feature range occupied by the top-performing matrices.

    Answers Section V-F's "determine the optimal feature value ranges per
    device": among the top ``top_fraction`` of rows by ``value_key``,
    report min/median/max of ``feature_key``.
    """
    if len(table) == 0:
        return None
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    values = table.column(value_key).astype(np.float64, copy=False)
    cutoff = np.quantile(values, 1.0 - top_fraction)
    arr = table.column(feature_key)[values >= cutoff].astype(
        np.float64, copy=False
    )
    if len(arr) == 0:
        return None
    return {
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
        "n": len(arr),
    }
