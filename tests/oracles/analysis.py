"""Reference analysis reductions over dict rows.

Before the Fig 7/9 analysis functions took only a ``SweepTable``, each
of them also accepted a list of dict rows and reduced it in plain
Python.  These are those paths, unchanged, so the columnar reductions
can be compared with them value for value and key order for key order:

* :func:`format_wins` and :func:`win_table` — per-format win shares;
* :func:`feature_slice` — box statistics per value of a swept feature;
* :func:`bottleneck_census` — dominant-bottleneck shares per group;
* :func:`optimal_ranges` — the feature range of the top performers.
"""

from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import BoxStats, box_stats


def format_wins(rows) -> Dict[str, float]:
    """Percentage of matrices on which each format was the best."""
    counts: Dict[str, int] = defaultdict(int)
    for r in rows:
        counts[r["format"]] += 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {fmt: 100.0 * c / total for fmt, c in sorted(counts.items())}


def win_table(
    rows, devices: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Per-device win percentages: ``{device: {format: pct}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for dev in devices:
        out[dev] = format_wins([r for r in rows if r["device"] == dev])
    return out


def feature_slice(
    rows,
    sweep_key: str,
    fixed: Dict[str, Callable[[float], bool]],
    value_key: str = "gflops",
) -> Dict[float, BoxStats]:
    """Distribution of ``value_key`` per value of ``sweep_key``, over the
    rows whose other features pass the ``fixed`` predicates."""
    filtered = [
        r for r in rows
        if all(pred(r[key]) for key, pred in fixed.items())
    ]
    by_value: Dict[float, List[float]] = defaultdict(list)
    for r in filtered:
        by_value[r[sweep_key]].append(r[value_key])
    return {
        v: box_stats(vals) for v, vals in sorted(by_value.items()) if vals
    }


def bottleneck_census(
    rows, by: str = "device"
) -> Dict[str, Dict[str, float]]:
    """Share of matrices dominated by each bottleneck, grouped by
    ``by``."""
    groups: Dict[str, Counter] = defaultdict(Counter)
    for r in rows:
        groups[r[by]][r["bottleneck"]] += 1
    out = {}
    for key, counts in groups.items():
        total = sum(counts.values())
        out[key] = {
            b: 100.0 * c / total for b, c in sorted(counts.items())
        }
    return out


def optimal_ranges(
    rows,
    feature_key: str,
    value_key: str = "gflops",
    top_fraction: float = 0.25,
) -> Optional[Dict[str, float]]:
    """min/median/max of ``feature_key`` among the top ``top_fraction``
    of rows by ``value_key``."""
    if not rows:
        return None
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    values = np.array([r[value_key] for r in rows])
    cutoff = np.quantile(values, 1.0 - top_fraction)
    top = [r[feature_key] for r in rows if r[value_key] >= cutoff]
    if not top:
        return None
    arr = np.array(top, dtype=np.float64)
    return {
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
        "n": len(arr),
    }
