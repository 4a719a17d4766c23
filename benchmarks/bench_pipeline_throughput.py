"""Pipeline throughput — cold/default/warm sweeps, generator engines.

Times the sweep execution engine end-to-end — the instance cold path
(the oracle in ``tests/oracles/sweep.py``: materialise every instance,
then score) vs the default sweep path (fused spec-to-grid scoring,
writing the record cache) vs a warm re-sweep from those records, all
in-process so the ratios compare engines, not parallelism — and the
matrix-generation engines at ~1M nnz (the sequential Listing-1 one
from ``tests/oracles/generator.py``), then writes the numbers to
``benchmarks/results/BENCH_pipeline.json`` so the repo's performance
trajectory is machine-readable run over run.  The JSON keys keep their
names: ``cold`` is the instance oracle and ``fused`` the default path.

Sweeps are seconds-long single-shot workloads, so this bench times them
directly with ``perf_counter`` instead of pytest-benchmark's repeat loop;
the measured rows are additionally asserted byte-identical across cold,
warm and serial-reference runs (speed must not change results).
"""

import json
import time

import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.core.generator import artificial_matrix_generation
from repro.devices import TESTBEDS

from conftest import MAX_NNZ, RESULTS_DIR, SCALE, emit
from tests.oracles.generator import rowwise_baseline_generation
from tests.oracles.sweep import instance_sweep

BENCH_PATH = RESULTS_DIR / "BENCH_pipeline.json"

# Acceptance floor: the default (fused spec-to-grid) path, record
# write-back included, must beat cold instance materialisation by at
# least this factor.  The measured speedup on the tiny preset is ~2x;
# the floor keeps noise margin.
# A larger floor is structurally impossible while staying
# bit-identical: the fused path is already dominated by work the cold
# path shares one-for-one (representative structure generation,
# declared-scale row-length profiles and the per-strategy imbalance
# passes over them), so by Amdahl the ratio is capped near
# cold / shared ~ 2x — see docs/cold_path.md for the breakdown.
MIN_FUSED_SPEEDUP = 1.5

# Sweep workload: the configured preset on one device per class.
SWEEP_DEVICES = [
    TESTBEDS["AMD-EPYC-24"],
    TESTBEDS["Tesla-A100"],
    TESTBEDS["Alveo-U280"],
]

# Generator workload: the ISSUE's canonical ~1M-nnz configuration.
GEN_ROWS, GEN_AVG = 20_000, 50.0


@pytest.fixture(scope="module")
def results():
    acc = {}
    yield acc
    payload = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "jobs": 1,
        **acc,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)


def _specs():
    return build_dataset_specs(SCALE)


def test_sweep_cold_vs_warm(results, tmp_path_factory):
    """The instance oracle materialises everything; the default path
    skips instances and writes scoring records; warm re-sweeps score
    from those records.

    The three legs run interleaved per ~30-spec slice: on shared
    hosts the machine's speed drifts by 2-3x over minutes, so
    back-to-back whole-dataset legs compare different machines —
    adjacent slices compare the same one.
    """
    cache_dir = str(tmp_path_factory.mktemp("bench-cache"))
    specs = _specs()
    n = len(specs)

    t_cold = t_fused = t_warm = 0.0
    cold_rows: list = []
    fused_rows: list = []
    warm_rows: list = []
    chunk = 30
    for lo in range(0, n, chunk):
        sub = specs[lo:lo + chunk]

        def timed_sweep(run):
            ds = Dataset(sub, max_nnz=MAX_NNZ, name=f"{SCALE}:{lo}")
            t0 = time.perf_counter()
            table = run(ds)
            return time.perf_counter() - t0, table

        t, table = timed_sweep(
            lambda ds: instance_sweep(ds, SWEEP_DEVICES))
        t_cold += t
        cold_rows.extend(table.rows)
        t, table = timed_sweep(
            lambda ds: sweep(ds, SWEEP_DEVICES, cache_dir=cache_dir))
        t_fused += t
        fused_rows.extend(table.rows)
        # The default leg of this slice just wrote its records.
        t, table = timed_sweep(
            lambda ds: sweep(ds, SWEEP_DEVICES, cache_dir=cache_dir))
        t_warm += t
        warm_rows.extend(table.rows)

    # (Row-identity of cached/parallel vs serial-reference sweeps is
    # asserted by the tier-1 pipeline tests; the bench only re-checks that
    # default and warm output match the instance oracle.)
    assert fused_rows == cold_rows
    assert warm_rows == cold_rows

    results["sweep"] = {
        "n_specs": n,
        "n_devices": len(SWEEP_DEVICES),
        "cold_s": round(t_cold, 3),
        "fused_s": round(t_fused, 3),
        "warm_s": round(t_warm, 3),
        "cold_specs_per_s": round(n / t_cold, 2),
        "fused_cold_specs_per_s": round(n / t_fused, 2),
        "warm_specs_per_s": round(n / t_warm, 2),
        "fused_vs_cold": round(t_cold / t_fused, 2),
        "warm_vs_cold": round(t_cold / t_warm, 2),
    }
    emit(
        "pipeline_sweep_throughput",
        f"sweep of {n} specs x {len(SWEEP_DEVICES)} devices "
        f"(scale={SCALE}, in-process)\n"
        f"  cold (instance oracle):  {t_cold:.2f}s "
        f"({n / t_cold:.1f} specs/s)\n"
        f"  default (records written): {t_fused:.2f}s "
        f"({n / t_fused:.1f} specs/s)\n"
        f"  warm (from records):  {t_warm:.2f}s "
        f"({n / t_warm:.1f} specs/s)\n"
        f"  default-vs-cold speedup: {t_cold / t_fused:.1f}x\n"
        f"  warm-vs-cold speedup: {t_cold / t_warm:.1f}x",
    )
    # The whole point of the cache: warm sweeps skip materialisation.
    assert t_cold / t_warm >= 3.0, (
        f"warm sweep only {t_cold / t_warm:.1f}x faster than cold"
    )
    # And the point of fusion: cold sweeps skip materialisation too.
    assert t_cold / t_fused >= MIN_FUSED_SPEEDUP, (
        f"default sweep only {t_cold / t_fused:.1f}x faster than the "
        "instance oracle"
    )


def test_generator_engines(results):
    """Vectorised rowwise vs the sequential baseline vs chain at ~1M nnz."""
    timings = {}
    for method in ("rowwise", "rowwise-baseline", "chain"):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            if method == "rowwise-baseline":
                m = rowwise_baseline_generation(
                    GEN_ROWS, GEN_ROWS, GEN_AVG, seed=7
                )
            else:
                m = artificial_matrix_generation(
                    GEN_ROWS, GEN_ROWS, GEN_AVG, seed=7, method=method
                )
            best = min(best, time.perf_counter() - t0)
        timings[method] = (best, m.nnz)

    speedup = timings["rowwise-baseline"][0] / timings["rowwise"][0]
    results["generator"] = {
        "n_rows": GEN_ROWS,
        "avg_nnz_per_row": GEN_AVG,
        "nnz": timings["rowwise"][1],
        **{
            method.replace("-", "_") + "_s": round(t, 3)
            for method, (t, _) in timings.items()
        },
        "rowwise_speedup_vs_baseline": round(speedup, 2),
    }
    emit(
        "pipeline_generator_throughput",
        f"generation at {GEN_ROWS} rows x {GEN_AVG} nnz/row "
        f"(~{timings['rowwise'][1]} nnz)\n"
        + "\n".join(
            f"  {method:17s} {t:.3f}s"
            for method, (t, _) in timings.items()
        )
        + f"\n  rowwise vectorisation speedup: {speedup:.1f}x",
    )
    # Perf guardrail for the vectorised Listing-1 engine.
    assert speedup >= 2.0, f"rowwise speedup regressed: {speedup:.2f}x"
