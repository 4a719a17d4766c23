"""Cold-sweep throughput — analytic format stats vs full materialisation.

A *cold* sweep (no instance cache) pays, per instance, one structural
scoring pass over every format of every device.  The materialising
engine (the oracle in ``tests/oracles/stats.py``) converts each format
for real — padded value/index arrays for ELL/SELL-C-sigma/DIA/BCSR,
scatter passes for the rest — only to reduce the result to six numbers;
the analytic engine (``MatrixInstance.format_stats``) computes the same
six numbers straight from the CSR structure arrays.  This bench times
both engines on fresh instance pools over the full testbed format
union, asserts the stats (and refusals) are identical cell-for-cell,
gates the analytic path at >= 5x instance throughput, and records the
presorted selector-tree training speedup over the re-sorting oracle
(``tests/oracles/tree.py``).  Results land in
``benchmarks/results/BENCH_cold_sweep.json`` next to the grid and
pipeline benches.

Standalone usage (one engine at a time):

    PYTHONPATH=../src python bench_cold_sweep.py --analytic
    PYTHONPATH=../src python bench_cold_sweep.py --materialise
"""

import json
import time

import numpy as np

from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.formats.base import FormatError
from repro.perfmodel import MatrixInstance

from conftest import MAX_NNZ, RESULTS_DIR, SCALE, emit
from tests.oracles.stats import materialised_format_stats
from tests.oracles.tree import ResortingTree

BENCH_PATH = RESULTS_DIR / "BENCH_cold_sweep.json"

# Union of every testbed's Table-II format list: the set a full
# cross-device sweep scores per instance.
ALL_FORMATS = sorted(
    {f for dev in TESTBEDS.values() for f in dev.formats}
)

# Acceptance floor: scoring a cold instance without materialising
# formats must beat the conversion path by at least this factor.
MIN_SPEEDUP = 5.0


def _instances():
    """Fresh pool (cold structural caches)."""
    specs = build_dataset_specs(SCALE)
    return [
        MatrixInstance.from_spec(s, max_nnz=MAX_NNZ, name=f"cold[{k}]")
        for k, s in enumerate(specs)
    ]


# Stats engine name -> ``stats(instance, format_name)``.
ENGINES = {
    "analytic": lambda inst, fmt: inst.format_stats(fmt),
    "materialise": materialised_format_stats,
}


def _stats_pass(pool, stats):
    """One cold scoring pass; returns {(instance, format): stats-or-msg}."""
    cells = {}
    for inst in pool:
        for fmt in ALL_FORMATS:
            try:
                cells[(inst.name, fmt)] = stats(inst, fmt)
            except FormatError as exc:
                cells[(inst.name, fmt)] = str(exc)
    return cells


def _run_engine(engine: str):
    pool = _instances()
    t0 = time.perf_counter()
    cells = _stats_pass(pool, ENGINES[engine])
    elapsed = time.perf_counter() - t0
    return pool, cells, elapsed


def _tree_fit_times():
    """Presorted vs re-sorting selector-tree fit on a bench-sized set."""
    from repro.ml.tree import DecisionTreeRegressor

    rng = np.random.default_rng(0)
    n, d = 4000, 12
    X = rng.normal(size=(n, d))
    X[:, 0] = np.round(X[:, 0], 1)
    y = X @ rng.normal(size=d) + 0.3 * rng.normal(size=n)
    t0 = time.perf_counter()
    fast = DecisionTreeRegressor().fit(X, y)
    t_presort = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = ResortingTree().fit(X, y)
    t_legacy = time.perf_counter() - t0
    np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
    return t_presort, t_legacy


def test_cold_sweep_throughput():
    analytic_pool, analytic_cells, t_analytic = _run_engine("analytic")
    material_pool, material_cells, t_material = _run_engine("materialise")

    # Speed must not change results: every (instance, format) cell equal,
    # refusal messages included.
    assert analytic_cells == material_cells

    n_inst = len(analytic_pool)
    speedup = t_material / t_analytic
    t_presort, t_legacy = _tree_fit_times()
    payload = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "n_instances": n_inst,
        "n_formats": len(ALL_FORMATS),
        "cells": n_inst * len(ALL_FORMATS),
        "analytic_s": round(t_analytic, 3),
        "materialise_s": round(t_material, 3),
        "analytic_instances_per_s": round(n_inst / t_analytic, 1),
        "materialise_instances_per_s": round(n_inst / t_material, 1),
        "speedup": round(speedup, 2),
        "tree_fit_presort_s": round(t_presort, 3),
        "tree_fit_legacy_s": round(t_legacy, 3),
        "tree_fit_speedup": round(t_legacy / t_presort, 2),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    emit(
        "cold_sweep_throughput",
        f"cold stats pass: {n_inst} instances x {len(ALL_FORMATS)} formats "
        f"(scale={SCALE})\n"
        f"  analytic:    {t_analytic:.2f}s "
        f"({n_inst / t_analytic:,.0f} instances/s)\n"
        f"  materialise: {t_material:.2f}s "
        f"({n_inst / t_material:,.0f} instances/s)\n"
        f"  speedup: {speedup:.1f}x\n"
        f"  tree fit: presort {t_presort:.3f}s vs legacy {t_legacy:.3f}s "
        f"({t_legacy / t_presort:.2f}x)",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"analytic cold scoring only {speedup:.1f}x over materialisation"
    )


def main():
    import argparse

    parser = argparse.ArgumentParser(
        description="Cold-sweep stats throughput for one engine"
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--analytic", dest="engine", action="store_const",
        const="analytic", help="closed-form stats (default)",
    )
    group.add_argument(
        "--materialise", dest="engine", action="store_const",
        const="materialise", help="full per-format conversion",
    )
    parser.set_defaults(engine="analytic")
    args = parser.parse_args()
    pool, cells, elapsed = _run_engine(args.engine)
    print(
        f"{args.engine}: {len(pool)} instances x {len(ALL_FORMATS)} formats "
        f"in {elapsed:.2f}s ({len(pool) / elapsed:,.1f} instances/s, "
        f"{len(cells)} cells)"
    )


if __name__ == "__main__":
    main()
