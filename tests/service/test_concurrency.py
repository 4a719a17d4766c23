"""Concurrency and lifecycle guarantees of the live service.

The load-bearing test: N threads hammering ``POST /select`` on their
own keep-alive connections receive responses bit-identical to serial
direct library calls — batching is invisible to every individual
client.
"""

import http.client
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

from .conftest import SETTLE_S, corpus_rows, feature_payloads, \
    hold_evaluate

N_THREADS = 12
REQUESTS_PER_THREAD = 6


def _connect(svc):
    """A keep-alive connection the server has accepted and served."""
    host, port = svc.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request("GET", "/healthz")
    resp = conn.getresponse()
    resp.read()
    assert resp.status == 200
    return conn


def _send_select(conn, features):
    conn.request(
        "POST", "/select", json.dumps({"features": features}).encode(),
        {"Content-Type": "application/json"},
    )


def _reply(conn):
    resp = conn.getresponse()
    return resp.status, resp.getheader("Connection"), json.loads(resp.read())


class TestBatchedBitIdentity:
    def test_hammered_select_matches_serial_direct_calls(
        self, trained_selector, corpus_table
    ):
        app = ServiceApp(trained_selector, corpus_table, max_batch=64)
        # Hold the first evaluate until every other thread's first
        # request is sent, so coalescing is guaranteed even when the
        # test host is loaded; the bit-identity claim is
        # timing-independent.
        gate = hold_evaluate(app)
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
        sent = [threading.Event() for _ in range(N_THREADS)]
        with ReproService(app) as svc:
            conns = [_connect(svc) for _ in range(N_THREADS)]

            def worker(thread_idx):
                conn = conns[thread_idx]
                lo = thread_idx * REQUESTS_PER_THREAD
                try:
                    for offset in range(REQUESTS_PER_THREAD):
                        i = lo + offset
                        _send_select(conn, payloads[i])
                        sent[thread_idx].set()
                        status, _, got[i] = _reply(conn)
                        assert status == 200, got[i]
                except Exception as exc:  # noqa: BLE001
                    errors.append((thread_idx, exc))
                finally:
                    sent[thread_idx].set()
                    conn.close()

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(N_THREADS)
            ]
            threads[0].start()
            assert gate.entered.wait(timeout=30)
            for t in threads[1:]:
                t.start()
            for event in sent:
                assert event.wait(timeout=30)
            time.sleep(SETTLE_S)
            gate.open()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        # A request is counted once its reply is written; leaving the
        # block runs stop(), which returns after the drain.
        stats = app.stats_snapshot()

        assert not errors
        # Bit-identical: == on floats round-tripped through JSON.
        assert got == expected
        # The held call made the other threads' first requests share
        # one evaluate.
        assert gate.sizes[:2] == [1, N_THREADS - 1]
        assert stats["batcher"]["max_size"] >= N_THREADS - 1
        assert stats["endpoints"]["select"]["requests"] == len(payloads)
        assert stats["endpoints"]["select"]["errors"] == 0


class TestGracefulShutdown:
    def test_stop_waits_for_inflight_requests(
        self, trained_selector, corpus_table
    ):
        # One /select is held inside an evaluate and a second is sent
        # behind it when stop() begins; the drain must answer both.
        app = ServiceApp(trained_selector, corpus_table, max_batch=64)
        gate = hold_evaluate(app)
        svc = ReproService(app).start()
        payloads = feature_payloads(2)
        conns = [_connect(svc) for _ in payloads]
        _send_select(conns[0], payloads[0])
        assert gate.entered.wait(timeout=30)
        _send_select(conns[1], payloads[1])
        stopper = threading.Thread(target=svc.stop)
        stopper.start()   # must drain, not sever
        assert svc._stopped.wait(timeout=30)
        time.sleep(SETTLE_S)
        gate.open()
        replies = []
        for conn in conns:
            replies.append(_reply(conn))
            conn.close()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert [status for status, _, _ in replies] == [200, 200]
        assert [body["format"] for _, _, body in replies] == [
            trained_selector.select(f) for f in payloads
        ]
        # The request read during the drain was told the connection
        # closes after its reply.
        assert replies[1][1] == "close"

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
