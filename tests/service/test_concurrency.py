"""Concurrency and lifecycle guarantees of the live service.

The load-bearing test: N threads hammering ``POST /select`` through
the micro-batcher receive responses bit-identical to serial direct
library calls — batching is invisible to every individual client.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.service import ReproService, ServiceApp

from .conftest import corpus_rows, feature_payloads, gate_app, wait_queued

N_THREADS = 12
REQUESTS_PER_THREAD = 6


def _post_select(url, features):
    req = urllib.request.Request(
        url + "/select",
        data=json.dumps({"features": features}).encode(),
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


class TestBatchedBitIdentity:
    def test_hammered_select_matches_serial_direct_calls(
        self, trained_selector, corpus_table
    ):
        app = ServiceApp(trained_selector, corpus_table, max_batch=64)
        # Hold the first flush until every other thread's first request
        # is queued, so coalescing is guaranteed even when the test
        # host is loaded; the bit-identity claim is timing-independent.
        gate = gate_app(app)
        payloads = feature_payloads(
            N_THREADS * REQUESTS_PER_THREAD, seed=42
        )
        # Serial ground truth straight from the library, no service.
        expected = []
        for features in payloads:
            scores = {
                fmt: float(v)
                for fmt, v in trained_selector
                .predict_gflops(features).items()
            }
            chosen = max(scores, key=scores.get)
            expected.append({
                "format": chosen,
                "predicted_gflops": scores[chosen],
                "gflops": scores,
            })

        got = [None] * len(payloads)
        errors = []
        with ReproService(app) as svc:
            def worker(thread_idx):
                lo = thread_idx * REQUESTS_PER_THREAD
                for offset in range(REQUESTS_PER_THREAD):
                    i = lo + offset
                    try:
                        got[i] = _post_select(svc.url, payloads[i])
                    except Exception as exc:  # noqa: BLE001
                        errors.append((i, exc))

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(N_THREADS)
            ]
            threads[0].start()
            assert gate.entered.wait(timeout=30)
            for t in threads[1:]:
                t.start()
            wait_queued(app._batcher, N_THREADS - 1)
            gate.open()
            for t in threads:
                t.join()
        # A request is counted once its reply is written, so a client
        # can return before its request is; leaving the block runs
        # stop(), which joins every handler thread first.
        stats = app.stats_snapshot()

        assert not errors
        # Bit-identical: == on floats round-tripped through JSON.
        assert got == expected
        # The run actually exercised coalescing, not 72 solo batches.
        assert stats["batcher"]["max_size"] > 1
        assert stats["endpoints"]["select"]["requests"] == len(payloads)
        assert stats["endpoints"]["select"]["errors"] == 0


class TestGracefulShutdown:
    def test_stop_waits_for_inflight_requests(
        self, trained_selector, corpus_table
    ):
        # One /select is held inside a flush and a second is queued
        # behind it when stop() begins; the drain must answer both.
        app = ServiceApp(trained_selector, corpus_table, max_batch=64)
        gate = gate_app(app)
        svc = ReproService(app).start()
        payloads = feature_payloads(2)
        result = {}

        def client(i):
            result[i] = _post_select(svc.url, payloads[i])

        clients = [
            threading.Thread(target=client, args=(i,)) for i in range(2)
        ]
        clients[0].start()
        assert gate.entered.wait(timeout=30)
        clients[1].start()
        wait_queued(app._batcher, 1)
        stopper = threading.Thread(target=svc.stop)
        stopper.start()   # must drain, not sever
        assert svc._stopped.wait(timeout=30)
        gate.open()
        stopper.join(timeout=30)
        for t in clients:
            t.join(timeout=5)
            assert not t.is_alive()
        assert not stopper.is_alive()
        assert [result[i]["format"] for i in range(2)] == [
            trained_selector.select(f) for f in payloads
        ]

    def test_sigterm_drains_subprocess(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.core.table import SweepTable
        from repro.ml import FormatSelector

        table_path = tmp_path / "corpus.npz"
        selector_path = tmp_path / "selector.npz"
        table = SweepTable.from_rows(corpus_rows(n=30))
        table.to_npz(table_path)
        FormatSelector(["Fast", "Bal"]).fit(table).to_npz(selector_path)

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--table", str(table_path),
                "--selector", str(selector_path),
                "--port", "0", "--access-log", "off",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            url = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving http://"):
                    url = line.split()[1]
                    break
            assert url, "server never printed its banner"
            body = json.load(urllib.request.urlopen(url + "/healthz"))
            assert body["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained and stopped" in out
