"""Grid scoring throughput — batched simulator vs the scalar triple loop.

Times :func:`repro.perfmodel.simulate_grid` against the historical
scalar model (``simulate_spmv`` of ``tests/oracles/model.py``, one
Python call per triple) over the configured preset's instances x all
nine testbeds x their Table-II format lists, cold and warm.  Cold is the
real cold path each engine offers: the scalar leg pays instance
materialisation plus the per-triple loop, the batched leg goes through
the fused spec source (:class:`repro.perfmodel.FusedSpecSource`) —
structure arrays and batched analytic stats straight from the specs, no
``MatrixInstance`` objects at all.  Warm re-scores pools whose
structural caches are already hot — the steady state of selector
training and repeated sweeps.  The batched warm leg of a chunk takes
milliseconds, so one burst of CPU steal could decide it: each chunk
times its two warm legs over ``WARM_REPEATS`` alternating repeats and
the warm totals add up the per-chunk medians.  Results land in
``benchmarks/results/BENCH_grid.json`` next to the pipeline bench so
the repo's performance trajectory stays machine-readable.

The batched rows — fused cold rows included — are asserted identical to
the scalar measurements (speed must not change results); the warm
speedup is gated at >= 10x (the PR-2 acceptance floor) and the cold
speedup at >= 1x (fused cold scoring must never lose to materialise-
then-loop).
"""

import json
import statistics
import time

from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.formats.base import FormatError
from repro.perfmodel import FusedSpecSource, MatrixInstance, simulate_grid
from repro.perfmodel.batch import _score_grid

from conftest import MAX_NNZ, RESULTS_DIR, SCALE, emit
from tests.oracles.model import simulate_spmv

BENCH_PATH = RESULTS_DIR / "BENCH_grid.json"

DEVICES = list(TESTBEDS.values())
SEED = 0
# Alternating repeats of each chunk's two warm legs (odd: a true median).
WARM_REPEATS = 7


def _scalar_loop(instances):
    """The scalar model's scoring path: one Python call per triple."""
    out = []
    for inst in instances:
        for dev in DEVICES:
            for fmt in dev.formats:
                try:
                    m = simulate_spmv(inst, fmt, dev, seed=SEED)
                except FormatError:
                    continue
                out.append(m)
    return out


def _warm_legs(pool):
    """``(scalar s, batched s, grid)``: the median time of each warm
    leg over ``WARM_REPEATS`` repeats that alternate which leg runs
    first, and the last batched grid."""
    times = {"scalar": [], "batch": []}
    grid = None
    for r in range(WARM_REPEATS):
        for leg in (("scalar", "batch") if r % 2 == 0
                    else ("batch", "scalar")):
            t0 = time.perf_counter()
            if leg == "scalar":
                _scalar_loop(pool)
            else:
                grid = simulate_grid(pool, DEVICES, seed=SEED)
            times[leg].append(time.perf_counter() - t0)
    return (statistics.median(times["scalar"]),
            statistics.median(times["batch"]), grid)


def _assert_rows_match(grid, scalar_rows):
    """Speed must not change results: the scored cells equal the scalar
    measurements one for one (grid order == scalar loop order)."""
    ok = grid.data[grid.ok_mask()]
    assert len(ok) == len(scalar_rows)
    for rec, m in zip(ok, scalar_rows):
        assert grid.device_names[rec["device"]] == m.device
        assert grid.format_names[rec["format"]] == m.format
        assert rec["gflops"] == m.gflops
        assert rec["watts"] == m.watts


def test_grid_vs_scalar_throughput():
    specs = build_dataset_specs(SCALE)
    n_cells = sum(len(dev.formats) for dev in DEVICES)
    cells = n_cells * len(specs)

    # The four legs run interleaved per ~30-spec chunk (the production
    # engine scores in chunks anyway): on shared hosts the machine's
    # speed drifts by 2-3x over minutes, so back-to-back whole-dataset
    # legs compare different machines — adjacent chunks compare the
    # same one.
    t_scalar_cold = t_scalar_warm = t_batch_cold = t_batch_warm = 0.0
    scalar_rows = []
    chunk = 30
    for lo in range(0, len(specs), chunk):
        hi = min(lo + chunk, len(specs))
        sub = specs[lo:hi]
        names = [f"grid[{k}]" for k in range(lo, hi)]

        # Scalar engine, cold: materialise instances and run the triple
        # loop — scoring never-seen specs without batching.
        t0 = time.perf_counter()
        pool = [
            MatrixInstance.from_spec(s, max_nnz=MAX_NNZ, name=nm)
            for s, nm in zip(sub, names)
        ]
        rows = _scalar_loop(pool)
        t_scalar_cold += time.perf_counter() - t0
        # The scalar model memoises profile statistics apart from the
        # instances, so an untimed grid pass fills the instances' own
        # SIMD-utilisation and imbalance memos, as the scalar leg's first
        # pass filled the scalar model's.
        simulate_grid(pool, DEVICES, seed=SEED)

        # Batched engine, cold: the fused path — specs to structure
        # arrays to batched analytic stats to scored grid, no instances
        # at all.  Names match the scalar pool so noise keys (hence
        # rows) agree.
        t0 = time.perf_counter()
        fused_grid = _score_grid(
            FusedSpecSource(sub, names, max_nnz=MAX_NNZ),
            DEVICES, seed=SEED,
        )
        t_batch_cold += time.perf_counter() - t0
        # Both engines, warm: the same pool with hot structural caches,
        # the scalar triple loop against one vectorised pass.
        scalar_warm, batch_warm, grid = _warm_legs(pool)
        t_scalar_warm += scalar_warm
        t_batch_warm += batch_warm

        _assert_rows_match(fused_grid, rows)
        _assert_rows_match(grid, rows)
        scalar_rows.extend(rows)

    speedup_warm = t_scalar_warm / t_batch_warm
    speedup_cold = t_scalar_cold / t_batch_cold
    payload = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "n_instances": len(specs),
        "n_devices": len(DEVICES),
        "cells": cells,
        "scored_cells": len(scalar_rows),
        "scalar_cold_s": round(t_scalar_cold, 3),
        "scalar_warm_s": round(t_scalar_warm, 3),
        "batch_cold_s": round(t_batch_cold, 3),
        "batch_warm_s": round(t_batch_warm, 3),
        "scalar_warm_triples_per_s": round(cells / t_scalar_warm, 1),
        "batch_warm_triples_per_s": round(cells / t_batch_warm, 1),
        "batch_cold_triples_per_s": round(cells / t_batch_cold, 1),
        "speedup_warm": round(speedup_warm, 2),
        "speedup_cold": round(speedup_cold, 2),
        "warm_repeats": WARM_REPEATS,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)
    emit(
        "grid_scoring_throughput",
        f"grid of {len(specs)} instances x 9 devices "
        f"({cells} triples, scale={SCALE})\n"
        f"  scalar: cold {t_scalar_cold:.2f}s, warm {t_scalar_warm:.2f}s "
        f"({cells / t_scalar_warm:,.0f} triples/s)\n"
        f"  batch:  cold {t_batch_cold:.2f}s (fused), "
        f"warm {t_batch_warm:.2f}s "
        f"({cells / t_batch_warm:,.0f} triples/s)\n"
        f"  warm speedup: {speedup_warm:.1f}x, "
        f"cold speedup: {speedup_cold:.1f}x",
    )
    # The acceptance floors: one vectorised pass beats the scalar loop
    # by an order of magnitude once instances are materialised, and the
    # fused cold pass must at least match materialise-then-loop.
    assert speedup_warm >= 10.0, (
        f"batched grid only {speedup_warm:.1f}x over the scalar loop"
    )
    assert speedup_cold >= 1.0, (
        f"fused cold grid lost to the scalar cold path: "
        f"{speedup_cold:.2f}x"
    )
