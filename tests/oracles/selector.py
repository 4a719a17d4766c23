"""Reference selector evaluation: one ``select`` per held-out matrix.

Before ``FormatSelector.evaluate`` always scored a whole held-out set
with one batched predict per format, ``evaluate(rows, batch=False)``
looped over the held-out matrices and chose each format on its own.
:func:`scalar_evaluate` is that loop, unchanged, for both input forms:
dict rows (and ``GridResult``) choose through ``selector.select``, and
a ``SweepTable`` predicts each group's feature row per format.  The
batched reports are compared with it field for field and timed against
it (``benchmarks/bench_selector_eval.py``).
"""

from typing import Dict

import numpy as np

from repro.core.table import SweepTable
from repro.ml.selector import (
    SelectionReport, _as_rows, _instance_key, choose_formats,
)


def scalar_evaluate(selector, rows, detail: bool = False) -> SelectionReport:
    """What ``selector.evaluate(rows, batch=False, detail=detail)``
    returned."""
    if isinstance(rows, SweepTable):
        return _scalar_evaluate_table(selector, rows, detail)
    perf: Dict[tuple, Dict[str, float]] = {}
    feats: Dict[tuple, dict] = {}
    for r in _as_rows(rows):
        key = _instance_key(r)
        perf.setdefault(key, {})[r["format"]] = r["gflops"]
        feats[key] = r
    if not perf:
        raise ValueError("no evaluation rows")
    keys = list(perf)
    chosen_per_key = [selector.select(feats[k]) for k in keys]
    hits, retained, choices = 0, [], []
    for key, chosen in zip(keys, chosen_per_key):
        truth = perf[key]
        oracle = max(truth, key=truth.get)
        hits += chosen == oracle
        kept = truth.get(chosen, 0.0) / truth[oracle]
        retained.append(kept)
        if detail:
            choices.append({
                "instance": key[1],
                "oracle": oracle,
                "chosen": chosen,
                "retained": kept,
            })
    report = SelectionReport(
        top1_accuracy=hits / len(perf),
        mean_retained=float(np.mean(retained)),
        worst_retained=float(np.min(retained)),
        n_matrices=len(perf),
    )
    if detail:
        report["choices"] = choices
    return report


def _scalar_evaluate_table(selector, table: SweepTable,
                           detail: bool) -> SelectionReport:
    if len(table) == 0:
        raise ValueError("no evaluation rows")
    if not selector._models:
        raise RuntimeError("selector not fitted")
    g, keys, X = selector._table_groups(table)
    n_groups = len(keys)
    chosen_names = []
    for i in range(n_groups):
        scores = {
            fmt: float(model.predict(X[i:i + 1])[0])
            for fmt, model in selector._models.items()
        }
        chosen_names.append(choose_formats(scores)[0])

    fmt_codes = table.codes("format")
    fmt_cats = table.categories("format")
    gflops = table.column("gflops")
    perf = np.full((n_groups, len(fmt_cats)), -np.inf)
    seen = np.zeros((n_groups, len(fmt_cats)), dtype=bool)
    perf[g, fmt_codes] = gflops  # duplicates: last value, as dicts
    seen[g, fmt_codes] = True
    oracle_idx = np.argmax(perf, axis=1)
    code_of = {fmt: c for c, fmt in enumerate(fmt_cats)}

    hits, retained, choices = 0, np.empty(n_groups), []
    for i in range(n_groups):
        oracle = fmt_cats[int(oracle_idx[i])]
        chosen = chosen_names[i]
        cc = code_of.get(chosen, -1)
        num = perf[i, cc] if cc >= 0 and seen[i, cc] else 0.0
        kept = num / perf[i, oracle_idx[i]]
        hits += chosen == oracle
        retained[i] = kept
        if detail:
            choices.append({
                "instance": keys[i],
                "oracle": oracle,
                "chosen": chosen,
                "retained": float(kept),
            })
    report = SelectionReport(
        top1_accuracy=hits / n_groups,
        mean_retained=float(np.mean(retained)),
        worst_retained=float(np.min(retained)),
        n_matrices=n_groups,
    )
    if detail:
        report["choices"] = choices
    return report
