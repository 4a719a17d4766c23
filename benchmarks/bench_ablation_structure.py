"""Ablation — structure-measured imbalance vs a closed-form skew formula.

The simulator *measures* load imbalance on the declared-scale row-length
profile instead of deriving it from the skew feature
(``docs/cold_path.md``, step 4 of the pipeline).  This bench quantifies
the difference: a closed-form proxy (1 + skew / workers, a common
analytical shortcut) mispredicts the imbalance of balance-aware formats
by orders of magnitude.
"""

import numpy as np

from repro.analysis import format_table
from repro.core.generator import MatrixSpec, row_length_profile
from repro.devices.parallel import imbalance_for_strategy

from conftest import emit

STRATEGIES = ("row_block", "nnz_row", "merge_path", "warp_row")
SKEWS = (0.0, 100.0, 1000.0, 10000.0)
N_WORKERS = 64


def _profiles():
    rng = np.random.default_rng(5)
    return {
        skew: row_length_profile(200_000, 10**7, 10.0, 1.0, skew, rng)
        for skew in SKEWS
    }


def _ablation(profiles):
    rows = []
    errors = {s: [] for s in STRATEGIES}
    for skew in SKEWS:
        closed_form = 1.0 + skew / N_WORKERS
        for strategy in STRATEGIES:
            measured = imbalance_for_strategy(
                strategy, profiles[skew], N_WORKERS
            ).factor
            rel_err = abs(closed_form - measured) / measured
            errors[strategy].append(rel_err)
            rows.append([
                skew, strategy, round(measured, 3), round(closed_form, 1),
                round(rel_err * 100.0, 1),
            ])
    table = format_table(
        ["skew", "strategy", "measured factor", "closed-form factor",
         "rel err %"],
        rows, title="Ablation: measured vs closed-form imbalance",
    )
    return table, errors


def test_ablation_structure_aware_imbalance(benchmark):
    profiles = _profiles()
    table, errors = _ablation(profiles)
    benchmark(lambda: _ablation(profiles))
    emit("ablation_structure", table)

    # The closed-form proxy is wildly wrong for balance-aware strategies
    # at high skew (it predicts factor ~157 where merge-path measures ~1).
    assert max(errors["merge_path"]) > 5.0
    # Structure-aware measurement correctly reports near-1 factors there.
    measured = imbalance_for_strategy(
        "merge_path", profiles[10000.0], N_WORKERS
    ).factor
    assert measured < 1.1
