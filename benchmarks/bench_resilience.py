"""Resilient dispatch overhead — fault-free sweeps vs the plain pool.

The resilient worker crew (per-chunk deadlines, retry bookkeeping,
journal hooks, crash detection) must be essentially free when nothing
goes wrong.  This bench times fault-free uncached sweeps on the crew
against the plain ``multiprocessing.Pool`` oracle
(``tests/oracles/dispatch.py``) — legs interleaved and order-alternated
so machine speed drift cancels, best-of-``REPEATS`` per engine —
asserts the tables row-identical to each other and to a serial
reference, gates the resilient overhead at ``MAX_OVERHEAD``, and writes
the numbers to ``benchmarks/results/BENCH_resilience.json`` (mirrored
to the repo-root snapshot) alongside the other bench floors.
"""

import json
import time

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS

from conftest import MAX_NNZ, RESULTS_DIR, SCALE, emit
from tests.oracles.dispatch import pool_sweep

BENCH_PATH = RESULTS_DIR / "BENCH_resilience.json"

# Acceptance ceiling: fault-free resilient dispatch within 5% of the
# plain multiprocessing.Pool baseline.  The crew does strictly more
# bookkeeping per chunk (deadline tracking, drain-before-classify,
# liveness polls), but all of it is O(chunks) parent-side work around
# seconds-long chunk executions, so the measured gap is noise-level.
MAX_OVERHEAD = 0.05

DEVICES = [TESTBEDS["Tesla-A100"]]
JOBS = 2
REPEATS = 3


def _timed_sweep(specs, dispatch):
    ds = Dataset(specs, max_nnz=MAX_NNZ, name=SCALE)
    run = pool_sweep if dispatch == "pool" else sweep
    t0 = time.perf_counter()
    table = run(ds, DEVICES, jobs=JOBS)
    return time.perf_counter() - t0, table


def test_resilient_dispatch_overhead():
    specs = build_dataset_specs(SCALE)
    times = {"pool": [], "resilient": []}
    tables = {}
    for rep in range(REPEATS):
        order = (
            ("pool", "resilient") if rep % 2 == 0
            else ("resilient", "pool")
        )
        for dispatch in order:
            t, table = _timed_sweep(specs, dispatch)
            times[dispatch].append(t)
            tables[dispatch] = table

    # Speed must not change results: both engines, and a serial
    # reference, produce the same rows.
    assert tables["resilient"].rows == tables["pool"].rows
    serial = sweep(Dataset(specs, max_nnz=MAX_NNZ, name=SCALE), DEVICES)
    assert tables["resilient"].rows == serial.rows

    best_pool = min(times["pool"])
    best_resilient = min(times["resilient"])
    overhead = best_resilient / best_pool - 1.0

    payload = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "jobs": JOBS,
        "n_specs": len(specs),
        "repeats": REPEATS,
        "pool_s": [round(t, 3) for t in times["pool"]],
        "resilient_s": [round(t, 3) for t in times["resilient"]],
        "best_pool_s": round(best_pool, 3),
        "best_resilient_s": round(best_resilient, 3),
        "overhead_pct": round(100.0 * overhead, 2),
        "max_overhead_pct": round(100.0 * MAX_OVERHEAD, 2),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)

    emit(
        "resilience_dispatch_overhead",
        f"sweep of {len(specs)} specs (scale={SCALE}, "
        f"jobs={JOBS}, best of {REPEATS})\n"
        f"  pool:      {best_pool:.2f}s  {times['pool']}\n"
        f"  resilient: {best_resilient:.2f}s  {times['resilient']}\n"
        f"  fault-free overhead: {100.0 * overhead:+.1f}% "
        f"(ceiling {100.0 * MAX_OVERHEAD:.0f}%)",
    )
    assert overhead <= MAX_OVERHEAD, (
        f"resilient dispatch costs {100.0 * overhead:.1f}% over the "
        f"plain pool on a fault-free sweep (ceiling "
        f"{100.0 * MAX_OVERHEAD:.0f}%)"
    )
