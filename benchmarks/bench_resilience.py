"""Resilient dispatch overhead — fault-free sweeps vs the plain pool.

The resilient worker crew (per-chunk deadlines, retry bookkeeping,
journal hooks, crash detection) must be essentially free when nothing
goes wrong.  This bench times fault-free uncached sweeps on the crew
against the plain ``multiprocessing.Pool`` oracle
(``tests/oracles/dispatch.py``), asserts the tables row-identical to
each other and to a serial reference, gates the resilient overhead (the
ratio of the two legs' summed times) at ``MAX_OVERHEAD``, and writes
the numbers to ``benchmarks/results/BENCH_resilience.json`` alongside
the other bench floors.

The two legs run back to back per ``SLICE``-spec slice, each slice
``REPEATS`` times with the leg order alternated: on a shared host the
machine's speed drifts by several percent between whole-dataset sweeps
seconds apart, while the two legs of one slice see the same machine.
Every slice is its own sweep of ``JOBS * 4`` chunks, so the crew's
per-chunk and start-up work weighs more per second of scoring than in
one whole-dataset sweep.
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
SLICE = 30
REPEATS = 2


def _timed_sweep(specs, name, dispatch):
    ds = Dataset(specs, max_nnz=MAX_NNZ, name=name)
    run = pool_sweep if dispatch == "pool" else sweep
    t0 = time.perf_counter()
    table = run(ds, DEVICES, jobs=JOBS)
    return time.perf_counter() - t0, table


def test_resilient_dispatch_overhead():
    specs = build_dataset_specs(SCALE)
    slices = [specs[lo:lo + SLICE] for lo in range(0, len(specs), SLICE)]
    times = {"pool": [], "resilient": []}
    rows = {"pool": [], "resilient": []}
    for rep in range(REPEATS):
        for k, sub in enumerate(slices):
            order = (
                ("pool", "resilient") if (rep + k) % 2 == 0
                else ("resilient", "pool")
            )
            for dispatch in order:
                t, table = _timed_sweep(sub, f"{SCALE}:{k}", dispatch)
                times[dispatch].append(t)
                if rep == 0:
                    rows[dispatch].extend(table.rows)

    # Speed must not change results: both engines, and a serial
    # reference, produce the same rows.
    assert rows["resilient"] == rows["pool"]
    serial = []
    for k, sub in enumerate(slices):
        ds = Dataset(sub, max_nnz=MAX_NNZ, name=f"{SCALE}:{k}")
        serial.extend(sweep(ds, DEVICES).rows)
    assert rows["resilient"] == serial

    total_pool = sum(times["pool"])
    total_resilient = sum(times["resilient"])
    overhead = total_resilient / total_pool - 1.0

    payload = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "jobs": JOBS,
        "n_specs": len(specs),
        "slice": SLICE,
        "repeats": REPEATS,
        "pool_s": [round(t, 3) for t in times["pool"]],
        "resilient_s": [round(t, 3) for t in times["resilient"]],
        "total_pool_s": round(total_pool, 3),
        "total_resilient_s": round(total_resilient, 3),
        "overhead_pct": round(100.0 * overhead, 2),
        "max_overhead_pct": round(100.0 * MAX_OVERHEAD, 2),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)

    emit(
        "resilience_dispatch_overhead",
        f"sweep of {len(specs)} specs (scale={SCALE}, jobs={JOBS}, "
        f"{len(slices)} slices of {SLICE} specs, {REPEATS} times each)\n"
        f"  pool:      {total_pool:.2f}s\n"
        f"  resilient: {total_resilient:.2f}s\n"
        f"  fault-free overhead: {100.0 * overhead:+.1f}% "
        f"(ceiling {100.0 * MAX_OVERHEAD:.0f}%)",
    )
    assert overhead <= MAX_OVERHEAD, (
        f"resilient dispatch costs {100.0 * overhead:.1f}% over the "
        f"plain pool on a fault-free sweep (ceiling "
        f"{100.0 * MAX_OVERHEAD:.0f}%)"
    )
