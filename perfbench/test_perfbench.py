"""Tests for the benchmark's own helpers (fast; no workload runs)."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import inputs, serve
from perfbench.common import summarize, tail_percentile
from perfbench.spans import Tracer, aggregate, layer_metrics


# -- the percentile rule -----------------------------------------------------
@pytest.mark.parametrize("n, pct", [
    (19, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9), (20000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_summary_reports_median_tail_and_count():
    s = summarize([float(v) for v in range(100, 0, -1)])
    assert s == {"n": 100, "p50": 50.5, "tail_pct": 90.0, "tail": 90.0}
    assert sum(1 for v in range(1, 101) if v > s["tail"]) == 10
    assert summarize([3.0, 1.0])["tail"] is None


# -- spans -------------------------------------------------------------------
def _span(layer, t0, t1, parent=None, outer=True, extra=None):
    return [layer, layer + ".fn", t0, t1, parent, 0, outer, extra]


def test_self_time_subtracts_direct_children_of_any_layer():
    engine = _span("engine", 0.0, 10.0)
    gen = _span("generator", 1.0, 5.0, engine)
    prof = _span("profile", 2.0, 3.5, gen)
    inner = _span("generator", 3.75, 4.75, gen, outer=False)
    score = _span("score", 6.0, 9.0, engine, extra={"cells": 7})
    agg = aggregate([prof, inner, gen, score, engine], [(0.0, 10.0)])
    assert agg["engine"]["self_s"] == 10.0 - 4.0 - 3.0
    # generator: 4 - 1.5 - 1 for the outer span, plus the inner's own 1
    assert agg["generator"]["self_s"] == 1.5 + 1.0
    assert agg["generator"]["calls"] == 1     # the nested call is inside
    assert agg["profile"]["self_s"] == 1.5
    assert agg["score"]["cells"] == 7
    assert agg["__coverage__"] == 1.0
    total = sum(v["self_s"] for k, v in agg.items() if k != "__coverage__")
    assert total == 10.0


def test_windows_select_spans_and_coverage_merges_threads():
    a = _span("table", 0.0, 2.0)
    b = _span("table", 1.0, 3.0)          # overlaps a (another thread)
    late = _span("table", 8.0, 9.0)
    agg = aggregate([a, b, late], [(0.0, 4.0)])
    assert agg["table"]["calls"] == 2
    assert agg["__coverage__"] == 0.75
    assert layer_metrics(agg)["table.calls"] == 2


def test_wrapper_records_nested_spans_and_counters():
    tracer = Tracer()

    def leaf(x):
        return [x] * 3

    def outer(x):
        return len(wrapped_leaf(x))

    wrapped_leaf = tracer.wrap("score", "leaf", leaf,
                               {"on_result": lambda a, r: {"cells": len(r)}})
    wrapped_outer = tracer.wrap("engine", "outer", outer)
    assert wrapped_outer(1) == 3
    leaf_span, outer_span = tracer.spans
    assert leaf_span[4] is outer_span and outer_span[4] is None
    assert leaf_span[7] == {"cells": 3}
    tracer.enabled = False
    assert wrapped_outer(2) == 3
    assert len(tracer.spans) == 2


def test_wrapper_counts_errors_and_reraises():
    tracer = Tracer()

    def refuse():
        raise ValueError("no")

    wrapped = tracer.wrap("formats", "refuse", refuse,
                          {"on_error": lambda exc: {"refused": 1}})
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans[0][7] == {"refused": 1}


def test_install_wraps_methods_and_reports_missing_targets():
    tracer = Tracer()
    from perfbench.spans import install
    from repro.core.table import SweepTable

    original = SweepTable.where
    install(tracer, targets=(
        ("table", "repro.core.table:SweepTable.where", {}),
        ("gone", "repro.core.table:SweepTable.no_such_method", {}),
        ("gone", "repro.no_such_module:f", {}),
    ))
    try:
        assert SweepTable.where is not original
        assert tracer.installed == {"table": ["SweepTable.where"]}
        assert tracer.missing == {"gone": ["SweepTable.no_such_method", "f"]}
    finally:
        tracer.uninstall()
    assert SweepTable.where is original


# -- seeded inputs -----------------------------------------------------------
def _queries(seed):
    return inputs.sweep_queries(seed, ["A", "B", "C"])


def test_same_seed_gives_byte_identical_inputs():
    for make in (lambda s: inputs.cold_round_specs(s, 3),
                 inputs.warm_specs, inputs.corpus_specs):
        assert repr(make(7)).encode() == repr(make(7)).encode()
        assert repr(make(7)) != repr(make(8))
    seq = [json.dumps([k, p, b.decode()]) for k, p, b in
           inputs.request_sequence(7, 0, _queries(7), n=500)]
    again = [json.dumps([k, p, b.decode()]) for k, p, b in
             inputs.request_sequence(7, 0, _queries(7), n=500)]
    assert seq == again
    assert seq != [json.dumps([k, p, b.decode()]) for k, p, b in
                   inputs.request_sequence(8, 0, _queries(8), n=500)]


def test_request_mix_and_distinct_queries():
    queries = _queries(3)
    assert len({tuple(sorted(q.items())) for q in queries}) == len(queries)
    assert len(queries) > 128      # more than the service's slice cache
    seq = inputs.request_sequence(3, 0, queries, n=4000)
    sweeps = sum(1 for kind, _, _ in seq if kind == "sweep")
    specs = sum(1 for kind, _, b in seq if kind == "select" and b"spec" in b)
    assert 0.07 < sweeps / len(seq) < 0.13
    assert 0.4 < specs / (len(seq) - sweeps) < 0.6


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    specs = [inputs.draw_spec(inputs._rng(5, 99), (0, 10.0, 0.0, None)),
             inputs.draw_spec(inputs._rng(5, 98), (0, 50.0, 100.0, None))]
    serve.build_corpus(specs, tmp_path / "a.npz")
    serve.build_corpus(specs, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


# -- the client ----------------------------------------------------------------
@pytest.mark.parametrize("nproc, want", [(1, 1), (2, 2), (64, 2), (None, 1)])
def test_client_never_exceeds_nproc(monkeypatch, nproc, want):
    monkeypatch.setattr(serve.os, "cpu_count", lambda: nproc)
    assert serve.client_connections() == want


def test_client_keeps_one_connection_per_thread(monkeypatch):
    monkeypatch.setattr(serve.os, "cpu_count", lambda: 1)
    peers, lock = set(), threading.Lock()

    class Stub(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _answer(self):
            length = int(self.headers.get("Content-Length") or 0)
            self.rfile.read(length)
            with lock:
                peers.add(self.client_address)
            body = b"{}"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _answer

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        queries = _queries(1)
        seqs = [inputs.request_sequence(1, k, queries, n=50)
                for k in range(serve.client_connections())]
        started = []
        real_thread = threading.Thread

        def counting_thread(*args, **kwargs):
            started.append(kwargs.get("name", ""))
            return real_thread(*args, **kwargs)

        monkeypatch.setattr(serve.threading, "Thread", counting_thread)
        records, t0, t1 = serve.drive(*server.server_address[:2], seqs, 0.3)
        monkeypatch.setattr(serve.threading, "Thread", real_thread)
        clients = [n for n in started if n.startswith("perfbench-client")]
        assert len(clients) == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert len(peers) == 1
    assert sum(len(r) for r in records) >= 3
    assert all(r[4] == 200 for recs in records for r in recs)
