"""Selector evaluation throughput — batched vs scalar scoring, and the
stacked router vs per-format routing.

Cross-validated experiments evaluate a fitted
:class:`~repro.ml.FormatSelector` over whole held-out folds.  The scalar
oracle (``tests/oracles/selector.py``) re-enters ``model.predict`` once
per (instance, format) — for a 25-tree forest over 8 formats that is
200 single-row tree walks per matrix — while the batched path builds
the feature matrix once and scores the entire fold in one pass.  This
bench fits one selector, scores the same held-out set through both
paths, asserts the reports are identical, gates the batched path at
>= 5x, and times a small end-to-end k-fold experiment for context.

A second test times ``predict_gflops_batch`` on the served selector's
shape (6 formats x 25 trees) against the per-format router it replaced
(``tests/oracles/routing.py``), interleaved in one run at batch 1, 64
and 5000: the stacked router must be >= 5x faster at batch 1 and 64
(micro-batches) and at most 10% slower at batch 5000 (whole folds), with
byte-identical predictions.  Results land in
``benchmarks/results/BENCH_selector.json``.

Standalone usage (one path at a time):

    PYTHONPATH=../src python bench_selector_eval.py --batched
    PYTHONPATH=../src python bench_selector_eval.py --scalar
"""

import functools
import json
import os
import statistics
import time

import numpy as np

from repro.devices import TESTBEDS
from repro.ml import FormatSelector

from conftest import RESULTS_DIR, emit
from tests.oracles.routing import selector_predict_gflops_batch
from tests.oracles.selector import scalar_evaluate

BENCH_PATH = RESULTS_DIR / "BENCH_selector.json"

# Acceptance floor: one predict per format over the fold must beat the
# per-instance scalar loop by at least this factor.
MIN_SPEEDUP = 5.0

N_TRAIN = int(os.environ.get("REPRO_SELECTOR_TRAIN", "200"))
N_EVAL = int(os.environ.get("REPRO_SELECTOR_EVAL", "300"))

FORMATS = list(TESTBEDS["AMD-EPYC-24"].formats)

# Stacked router vs per-format routing, on the served selector's shape
# (`repro serve` on INTEL-XEON: 6 formats x 25 trees).  Micro-batches
# (1, 64) must gain >= 5x; a whole fold (5000) may lose at most 10%.
ROUTER_FORMATS = list(TESTBEDS["INTEL-XEON"].formats)
ROUTER_FLOORS = {1: 5.0, 64: 5.0, 5000: 0.9}
ROUTER_ROUNDS = int(os.environ.get("REPRO_ROUTER_ROUNDS", "15"))
ROUTER_ROUND_S = 0.05  # timed seconds per leg and round (calibrated)


def _record(section: dict) -> None:
    """Merge ``section`` into BENCH_selector.json (each test owns its
    keys; the file keeps the other test's last numbers)."""
    try:
        payload = json.loads(BENCH_PATH.read_text())
    except (FileNotFoundError, ValueError):
        payload = {}
    payload.update(section)
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _rows(n, seed, formats=FORMATS):
    """Synthetic per-format measurement rows with feature-driven
    winners (mirrors the sweep's selector input schema)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        feats = {
            "matrix": f"m{seed}-{i}",
            "mem_footprint_mb": float(rng.uniform(1, 1024)),
            "avg_nnz_per_row": float(rng.uniform(2, 200)),
            "skew_coeff": float(rng.uniform(0, 8000)),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        base = rng.uniform(10, 60, size=len(formats))
        # Winners depend on structure: skewed matrices reward the
        # balanced formats, regular ones the SIMD-friendly ones.
        tilt = 1.0 if feats["skew_coeff"] > 2000 else -1.0
        for j, fmt in enumerate(formats):
            rows.append({
                **feats, "format": fmt,
                "gflops": float(
                    base[j] + tilt * 10.0 * (j - len(formats) / 2)
                ),
            })
    return rows


def _fitted():
    return FormatSelector(FORMATS).fit(_rows(N_TRAIN, seed=1))


def _time_evaluate(selector, held_out, batch):
    evaluate = selector.evaluate if batch else functools.partial(
        scalar_evaluate, selector
    )
    t0 = time.perf_counter()
    report = evaluate(held_out)
    return report, time.perf_counter() - t0


def _experiment_seconds():
    """Wall time of a small end-to-end k-fold experiment (context)."""
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        scale="tiny", devices=("INTEL-XEON",), limit=8, n_splits=2,
        max_nnz=20_000,
    )
    t0 = time.perf_counter()
    run_experiment(spec)
    return time.perf_counter() - t0


def test_selector_eval_throughput():
    selector = _fitted()
    held_out = _rows(N_EVAL, seed=2)
    report_scalar, t_scalar = _time_evaluate(selector, held_out, False)
    report_batched, t_batched = _time_evaluate(selector, held_out, True)

    # Speed must not change results: the batched report is bit-identical
    # to the scalar oracle, field for field.
    assert report_batched == report_scalar

    speedup = t_scalar / t_batched
    t_experiment = _experiment_seconds()
    payload = {
        "n_train": N_TRAIN,
        "n_eval": N_EVAL,
        "n_formats": len(FORMATS),
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batched, 4),
        "scalar_matrices_per_s": round(N_EVAL / t_scalar, 1),
        "batched_matrices_per_s": round(N_EVAL / t_batched, 1),
        "speedup": round(speedup, 2),
        "kfold_experiment_s": round(t_experiment, 3),
    }
    _record(payload)
    emit(
        "selector_eval_throughput",
        f"selector evaluate: {N_EVAL} matrices x {len(FORMATS)} formats\n"
        f"  scalar:  {t_scalar:.3f}s "
        f"({N_EVAL / t_scalar:,.0f} matrices/s)\n"
        f"  batched: {t_batched:.3f}s "
        f"({N_EVAL / t_batched:,.0f} matrices/s)\n"
        f"  speedup: {speedup:.1f}x\n"
        f"  end-to-end 2-fold experiment (8 matrices): "
        f"{t_experiment:.2f}s",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched selector evaluate only {speedup:.1f}x over scalar"
    )


def _queries(n, seed):
    """One feature-carrying row per matrix: ``n`` /select payloads."""
    return _rows(n, seed, ROUTER_FORMATS)[::len(ROUTER_FORMATS)]


def _time_interleaved(legs, feats, rounds):
    """Median seconds per call of each leg; the legs alternate which
    runs first every round, so host-speed drift hits both alike."""
    calls = {}
    for name, fn in legs.items():  # one untimed call sizes the rounds
        t0 = time.perf_counter()
        fn(feats)
        once = time.perf_counter() - t0
        calls[name] = max(1, int(ROUTER_ROUND_S / max(once, 1e-6)))
    times = {name: [] for name in legs}
    names = list(legs)
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            fn, n = legs[name], calls[name]
            t0 = time.perf_counter()
            for _ in range(n):
                fn(feats)
            times[name].append((time.perf_counter() - t0) / n)
    return {name: statistics.median(ts) for name, ts in times.items()}


def test_stacked_router_vs_per_format_routing():
    selector = FormatSelector(ROUTER_FORMATS).fit(
        _rows(150, seed=1, formats=ROUTER_FORMATS)
    )
    legs = {
        "stacked": selector.predict_gflops_batch,
        "per_format": lambda feats: selector_predict_gflops_batch(
            selector, feats
        ),
    }
    results, lines = {}, []
    for batch, floor in ROUTER_FLOORS.items():
        feats = _queries(batch, seed=100 + batch)
        got, want = legs["stacked"](feats), legs["per_format"](feats)
        assert all(
            got[f].tobytes() == want[f].tobytes() for f in want
        ), f"stacked router differs from per-format routing at {batch}"
        med = _time_interleaved(legs, feats, ROUTER_ROUNDS)
        speedup = med["per_format"] / med["stacked"]
        results[str(batch)] = {
            "stacked_ms": round(med["stacked"] * 1e3, 4),
            "per_format_ms": round(med["per_format"] * 1e3, 4),
            "speedup": round(speedup, 2),
            "floor": floor,
        }
        lines.append(
            f"  batch {batch:>5}: stacked {med['stacked'] * 1e3:8.3f} ms"
            f"  per-format {med['per_format'] * 1e3:8.3f} ms"
            f"  -> {speedup:5.2f}x (floor {floor}x)"
        )
    _record({"router": {
        "n_formats": len(ROUTER_FORMATS),
        "n_trees": 25,
        "rounds": ROUTER_ROUNDS,
        "batches": results,
    }})
    emit(
        "selector_router_throughput",
        f"predict_gflops_batch, {len(ROUTER_FORMATS)} formats x 25 "
        "trees, stacked vs per-format routing (median of "
        f"{ROUTER_ROUNDS} interleaved rounds)\n" + "\n".join(lines),
    )
    for batch, floor in ROUTER_FLOORS.items():
        assert results[str(batch)]["speedup"] >= floor, (
            f"stacked router at batch {batch}: "
            f"{results[str(batch)]['speedup']}x < {floor}x"
        )


def main():
    import argparse

    parser = argparse.ArgumentParser(
        description="Selector evaluate throughput for one path"
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--batched", dest="batch", action="store_true",
                       default=True, help="batched path (default)")
    group.add_argument("--scalar", dest="batch", action="store_false",
                       help="per-instance scalar oracle")
    args = parser.parse_args()
    selector = _fitted()
    held_out = _rows(N_EVAL, seed=2)
    report, elapsed = _time_evaluate(selector, held_out, args.batch)
    label = "batched" if args.batch else "scalar"
    print(
        f"{label}: {N_EVAL} matrices x {len(FORMATS)} formats in "
        f"{elapsed:.3f}s ({N_EVAL / elapsed:,.1f} matrices/s, "
        f"top-1 {report.accuracy:.3f})"
    )


if __name__ == "__main__":
    main()
