"""Shared fixtures: a tiny per-format corpus, a trained selector, and a
gate that holds the batcher's first flush open."""

import threading
import time

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
    app = ServiceApp(trained_selector, corpus_table)
    yield app
    app.close()


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


class Gate:
    """An ``evaluate`` wrapper whose first call blocks until :meth:`open`.

    Requests submitted while that first flush is held queue up in the
    batcher (:func:`wait_queued`) and share the next flush once the gate
    opens, so tests coalesce requests without depending on timing.
    """

    def __init__(self, evaluate):
        self._evaluate = evaluate
        self.entered = threading.Event()
        self._open = threading.Event()

    def __call__(self, items):
        if not self.entered.is_set():
            self.entered.set()
            self._open.wait(timeout=30)
        return self._evaluate(items)

    def open(self) -> None:
        self._open.set()


def gate_app(app) -> Gate:
    """Hold ``app``'s next batched evaluate at a :class:`Gate`."""
    gate = Gate(app._batcher._evaluate)
    app._batcher._evaluate = gate
    return gate


def wait_queued(batcher, n, timeout=30.0) -> None:
    """Block until at least ``n`` requests wait in ``batcher``'s queue."""
    deadline = time.monotonic() + timeout
    while True:
        with batcher._cond:
            if len(batcher._pending) >= n:
                return
        assert time.monotonic() < deadline, f"{n} requests never queued"
        time.sleep(0.001)
