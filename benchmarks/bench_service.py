"""Service throughput floors — BENCH_service.json.

``repro serve`` answers the ``/select`` requests it reads in one poll
of its event loop with one ``predict_gflops_batch`` call, and that
call routes every tree of every format in one stacked pass
(``repro.ml.forest.ForestStack``).  This bench drives the real HTTP
stack (loopback sockets, keep-alive connections, the one-thread
event-loop server) with a duration-based randomized load from >= 8
concurrent clients, in two legs on the same fitted selector:

* ``batched`` — the production server (batched calls, stacked router);
* ``per_format`` — the same server with its predictions routed one
  format and one tree at a time (``tests/oracles/routing.py``), the
  routing the stacked router replaced.

It gates:

* batched sustained QPS >= ``MIN_SPEEDUP`` x the per-format server's, and
* every response of every leg bit-identical to the direct library
  calls (``select_batch`` / ``predict_gflops_batch``) for the same
  payloads — coalescing and routing must be invisible to every client.

Results (QPS, client-side p50/p99 latency, batch-size distribution)
land in ``benchmarks/results/BENCH_service.json``.

Standalone usage (the production server only):

    PYTHONPATH=../src python bench_service.py
"""

import http.client
import json
import os
import threading
import time

import numpy as np

from repro.core.table import SweepTable
from repro.ml import FormatSelector
from repro.service import ReproService, ServiceApp

from conftest import RESULTS_DIR, emit
from tests.oracles.routing import selector_predict_gflops_batch

BENCH_PATH = RESULTS_DIR / "BENCH_service.json"

# Acceptance floor: the production server (batched calls, stacked
# router) must beat the same server routing per format and per tree by
# at least this factor in sustained QPS.
MIN_SPEEDUP = 3.0

# The gate requires >= 8 concurrent clients; 12 keeps the measured
# speedup comfortably above the floor on noisy runners (batch sizes
# track in-flight concurrency, so more closed-loop clients deepen the
# batches without changing the bit-identity claim).
N_CLIENTS = max(8, int(os.environ.get("REPRO_SERVICE_CLIENTS", "12")))
DURATION_S = float(os.environ.get("REPRO_SERVICE_SECONDS", "3.0"))
N_TRAIN = 150

FORMATS = ["CSR", "CSR5", "SELL-C-s", "Merge", "COO", "DIA"]


def _training_rows(n=N_TRAIN, seed=1):
    """Per-format rows whose winner depends on structure."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        feats = {
            "matrix": f"m{i}",
            "mem_footprint_mb": float(rng.uniform(1, 1024)),
            "avg_nnz_per_row": float(rng.uniform(2, 200)),
            "skew_coeff": float(rng.uniform(0, 8000)),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        base = rng.uniform(10, 60, size=len(FORMATS))
        tilt = 1.0 if feats["skew_coeff"] > 2000 else -1.0
        for j, fmt in enumerate(FORMATS):
            rows.append({
                **feats, "format": fmt,
                "gflops": float(
                    base[j] + tilt * 10.0 * (j - len(FORMATS) / 2)
                ),
            })
    return rows


def _random_features(rng):
    """One /select payload over the matrix-size/sparsity ranges the
    paper's dataset spans (footprint follows from rows x density)."""
    n_rows = int(rng.integers(2_000, 200_000))
    avg_nnz = float(rng.uniform(2.0, 100.0))
    nnz = n_rows * avg_nnz
    footprint_mb = (nnz * 12.0 + (n_rows + 1) * 8.0) / 2**20
    return {
        "mem_footprint_mb": footprint_mb,
        "avg_nnz_per_row": avg_nnz,
        "skew_coeff": float(rng.uniform(0.0, 8000.0)),
        "cross_row_similarity": float(rng.uniform(0.0, 1.0)),
        "avg_num_neighbours": float(rng.uniform(0.0, 2.0)),
    }


def _fitted():
    table = SweepTable.from_rows(_training_rows())
    return FormatSelector(FORMATS).fit(table), table


class _PerFormatSelector(FormatSelector):
    """A fitted selector answering through per-format routing."""

    def predict_gflops_batch(self, features_seq):
        return selector_predict_gflops_batch(self, features_seq)


def _per_format(selector):
    oracle = _PerFormatSelector(selector.formats, selector.feature_keys)
    oracle._models = selector._models
    return oracle


def _run_load(selector, table, seed=7):
    """Serve for DURATION_S under N_CLIENTS keep-alive clients.

    Returns ``(qps, latencies_ms, records, server_stats)`` where
    ``records`` is every (payload, response) pair, for the bit-identity
    check against the direct library calls.
    """
    app = ServiceApp(selector, table)
    per_client = [([], []) for _ in range(N_CLIENTS)]
    start_barrier = threading.Barrier(N_CLIENTS + 1)
    stop = threading.Event()

    with ReproService(app) as svc:
        host, port = svc.address

        def client(idx):
            records, latencies = per_client[idx]
            rng = np.random.default_rng(seed * 1009 + idx)
            conn = http.client.HTTPConnection(host, port)
            try:
                start_barrier.wait()
                while not stop.is_set():
                    payload = _random_features(rng)
                    body = json.dumps({"features": payload}).encode()
                    t0 = time.perf_counter()
                    conn.request(
                        "POST", "/select", body,
                        {"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    data = resp.read()
                    latencies.append(
                        (time.perf_counter() - t0) * 1000.0
                    )
                    assert resp.status == 200, data
                    records.append((payload, json.loads(data)))
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        start_barrier.wait()
        t_start = time.perf_counter()
        time.sleep(DURATION_S)
        stop.set()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t_start
        server_stats = app.stats_snapshot()

    records = [r for recs, _ in per_client for r in recs]
    latencies = [l for _, lats in per_client for l in lats]
    return len(records) / elapsed, latencies, records, server_stats


def _check_bit_identity(selector, records):
    """Every served response must equal the direct library answer."""
    payloads = [payload for payload, _ in records]
    chosen = selector.select_batch(payloads)
    scores = selector.predict_gflops_batch(payloads)
    for i, (_, response) in enumerate(records):
        per_format = {
            fmt: float(scores[fmt][i]) for fmt in scores
        }
        assert response["format"] == chosen[i], (i, response)
        assert response["gflops"] == per_format, (i, response)
        assert response["predicted_gflops"] == per_format[chosen[i]]


def _percentiles(latencies):
    arr = np.sort(np.asarray(latencies))
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 3),
        "p99_ms": round(float(np.percentile(arr, 99)), 3),
        "max_ms": round(float(arr[-1]), 3),
    }


def test_service_micro_batching_throughput():
    selector, table = _fitted()

    qps_oracle, lat_oracle, rec_oracle, _ = _run_load(
        _per_format(selector), table
    )
    qps_batched, lat_batched, rec_batched, stats = _run_load(
        selector, table
    )

    # Throughput means nothing if coalescing or routing changed any
    # answer.
    for records in (rec_oracle, rec_batched):
        _check_bit_identity(selector, records)

    speedup = qps_batched / qps_oracle
    batcher = stats["batcher"]
    payload = {
        "n_clients": N_CLIENTS,
        "duration_s": DURATION_S,
        "n_formats": len(FORMATS),
        "per_format_qps": round(qps_oracle, 1),
        "batched_qps": round(qps_batched, 1),
        "speedup": round(speedup, 2),
        "per_format_latency": _percentiles(lat_oracle),
        "batched_latency": _percentiles(lat_batched),
        "mean_batch_size": batcher["mean_size"],
        "max_batch_size": batcher["max_size"],
        "bit_identical_responses": len(rec_oracle) + len(rec_batched),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)

    def row(label, qps, key):
        lat = payload[key]
        return (
            f"  {label:<11}{qps:7.1f} req/s   p50 {lat['p50_ms']:.1f}ms"
            f"  p99 {lat['p99_ms']:.1f}ms\n"
        )

    emit(
        "service_throughput",
        f"/select under {N_CLIENTS} keep-alive clients, "
        f"{DURATION_S:.0f}s per leg\n"
        + row("per-format:", qps_oracle, "per_format_latency")
        + row("batched:", qps_batched, "batched_latency")
        + f"  speedup:   {speedup:.1f}x over per-format routing  "
        f"(mean batch {batcher['mean_size']}, "
        f"max {batcher['max_size']})\n"
        f"  bit-identical responses: "
        f"{payload['bit_identical_responses']}",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"stacked router only {speedup:.1f}x over per-format routing "
        f"({qps_batched:.0f} vs {qps_oracle:.0f} QPS)"
    )


def main():
    selector, table = _fitted()
    qps, latencies, records, _ = _run_load(selector, table)
    _check_bit_identity(selector, records)
    pct = _percentiles(latencies)
    print(
        f"batched: {qps:,.1f} req/s over {DURATION_S:.0f}s with "
        f"{N_CLIENTS} clients (p50 {pct['p50_ms']:.1f}ms, "
        f"p99 {pct['p99_ms']:.1f}ms; {len(records)} responses "
        "bit-identical to direct calls)"
    )


if __name__ == "__main__":
    main()
