"""Shared fixtures: a tiny per-format corpus, a trained selector, and a
gate that holds the server's batched evaluate calls."""

import json
import socket
import threading

import numpy as np
import pytest

from repro.core.table import SweepTable
from repro.ml import FormatSelector
from repro.service import ServiceApp


def corpus_rows(n=60, seed=0):
    """Per-format rows with a crisp boundary on the skew feature."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        skew = float(rng.choice([1.0, 5000.0]))
        feats = {
            "matrix": f"m{i}",
            "device": "unit-dev",
            "mem_footprint_mb": float(rng.uniform(4, 512)),
            "avg_nnz_per_row": float(rng.uniform(5, 100)),
            "skew_coeff": skew,
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        fast = 100.0 if skew < 100 else 20.0
        rows.append({**feats, "format": "Fast", "gflops": fast})
        rows.append({**feats, "format": "Bal", "gflops": 60.0})
    return rows


@pytest.fixture(scope="session")
def corpus_table():
    return SweepTable.from_rows(corpus_rows())


@pytest.fixture(scope="session")
def trained_selector(corpus_table):
    return FormatSelector(["Fast", "Bal"]).fit(corpus_table)


@pytest.fixture
def app(trained_selector, corpus_table):
    return ServiceApp(trained_selector, corpus_table)


def feature_payloads(n, seed=0):
    """Deterministic /select feature dicts spanning the boundary."""
    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(n):
        payloads.append({
            "mem_footprint_mb": float(rng.uniform(4, 512)),
            "avg_nnz_per_row": float(rng.uniform(5, 100)),
            "skew_coeff": float(rng.choice([1.0, 5000.0])),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        })
    return payloads


# Time for requests sent while the loop is held at a Gate to reach the
# server's sockets before the gate opens.
SETTLE_S = 0.2


class Gate:
    """Stands in for ``app.evaluate`` and records every call's batch
    size; the first call blocks until :meth:`open`.

    ``evaluate`` runs on the server's event-loop thread, so while the
    first call is held the loop reads nothing: requests sent meanwhile
    (given :data:`SETTLE_S` to arrive) wait in their sockets and are
    all read in the loop's next poll, so tests coalesce requests
    without racing the server's reads.
    """

    def __init__(self, evaluate):
        self._evaluate = evaluate
        self.sizes = []
        self.entered = threading.Event()
        self._open = threading.Event()

    def __call__(self, features_seq):
        self.sizes.append(len(features_seq))
        if not self.entered.is_set():
            self.entered.set()
            self._open.wait(timeout=30)
        return self._evaluate(features_seq)

    def open(self) -> None:
        self._open.set()


def hold_evaluate(app, evaluate=None) -> Gate:
    """Route ``app``'s batched evaluate calls through a :class:`Gate`
    (around ``evaluate``, default the app's own)."""
    gate = Gate(evaluate or app.evaluate)
    app.evaluate = gate
    return gate


def expected_replies(selector, payloads):
    """What direct ``select_batch``/``predict_gflops_batch`` calls
    return for ``payloads``, in the shape of ``/select`` replies."""
    chosen = selector.select_batch(payloads)
    scores = selector.predict_gflops_batch(payloads)
    out = []
    for i, fmt in enumerate(chosen):
        per_format = {f: float(col[i]) for f, col in scores.items()}
        out.append({"format": fmt, "predicted_gflops": per_format[fmt],
                    "gflops": per_format})
    return out


def select_request(features) -> bytes:
    """One ``POST /select`` request for ``features``, as sent."""
    body = json.dumps({"features": features}).encode()
    return (b"POST /select HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


class RawClient:
    """A client on a plain socket, for what ``http.client`` will not
    send: pipelined requests, odd framing, one byte at a time."""

    def __init__(self, svc, timeout=30.0):
        self.sock = socket.create_connection(svc.address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self):
        """The next response: ``(status, headers, body)``, header
        names lower-cased."""
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        headers = {}
        while True:
            line = self.file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.file.read(int(headers.get("content-length", 0)))
        return status, headers, body

    def select_reply(self):
        status, _, body = self.reply()
        return status, json.loads(body)

    def at_eof(self) -> bool:
        """Whether the server has closed the connection (blocks until
        it sends more or closes)."""
        return self.file.read(1) == b""

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def connect(svc) -> RawClient:
    """A keep-alive connection the server has accepted and served."""
    client = RawClient(svc)
    client.send(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
    assert client.reply()[0] == 200
    return client
