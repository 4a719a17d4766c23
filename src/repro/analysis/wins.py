"""Format 'wins' accounting (the bars behind Fig 7's boxplots).

The reductions run over a :class:`~repro.core.table.SweepTable`'s
columns; the parity suite pins them to the dict-row reference in
``tests/oracles/analysis.py``, key order included.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.table import SweepTable

__all__ = ["format_wins", "win_table", "confusion_table"]


def format_wins(table: SweepTable) -> Dict[str, float]:
    """Percentage of matrices on which each format was the best.

    ``table`` must carry one *best* measurement per matrix (the output of
    a ``best_only`` sweep for one device): column ``format``.
    """
    if len(table) == 0:
        return {}
    codes = table.codes("format")
    cats = table.categories("format")
    counts = np.bincount(codes, minlength=len(cats))
    total = len(table)
    return {
        fmt: 100.0 * int(c) / total
        for fmt, c in sorted(zip(cats, counts))
        if c
    }


def win_table(
    table: SweepTable, devices: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Per-device win percentages: ``{device: {format: pct}}``."""
    return {dev: format_wins(table.where(device=dev)) for dev in devices}


def confusion_table(
    pairs: Sequence[Tuple[str, str]]
) -> Dict[str, Dict[str, int]]:
    """Oracle-vs-chosen selection counts: ``{oracle: {chosen: n}}``.

    ``pairs`` are (oracle_format, chosen_format) tuples, one per
    evaluated matrix (the selector's ``choices`` detail).  Keys are
    sorted so the table renders and serialises deterministically.
    """
    counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for oracle, chosen in pairs:
        counts[oracle][chosen] += 1
    return {
        oracle: dict(sorted(row.items()))
        for oracle, row in sorted(counts.items())
    }
