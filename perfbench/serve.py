"""The ``serve`` workload: ``repro serve`` under a closed-loop client.

The server runs as a subprocess on a one-device, per-format corpus
table with the selector fitted at start-up and micro-batching at its
default; its access log goes to a file.  One client process drives it
over keep-alive connections, each waiting for its reply before sending
the next request, as a tuning tool asking which format to use does.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import inputs
from .common import (OUT_DIR, ROOT, SRC, HostWindow, Result, peak_rss_mb,
                     program_env, scratch_dir, stop_process, summarize)
from .spans import aggregate, layer_metrics, load_spans, service_metrics

SETUP_LAUNCHES = 3        # setup_s is the median over this many launches
MAX_CONNECTIONS = 2       # client connections, never more than nproc
TRACE_BLOCK_S = 1.0       # traced runs alternate untraced/traced blocks
CORPUS_STORE_KEEP = 16    # corpora kept in the per-seed store
READY_TIMEOUT_S = 120.0

_perf = time.perf_counter
_URL = re.compile(rb"serving (http://[0-9.]+:[0-9]+)")
_RESERVED = ("fmt", "limit", "offset", "columns")


def client_connections() -> int:
    """Client threads (one connection each): at most ``nproc``."""
    return max(1, min(MAX_CONNECTIONS, os.cpu_count() or 1))


# -- corpus ----------------------------------------------------------------
def _source_digest() -> str:
    """Digest of the program source, so a stored corpus is never reused
    by a different program."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build_corpus(specs, path: Path) -> None:
    """Sweep ``specs`` on the serving device (per-format rows) into
    ``path`` through the program's own table writer."""
    from repro.core.dataset import Dataset, sweep
    from repro.devices import TESTBEDS
    from repro.io import save_table

    table = sweep(Dataset(specs, name="corpus"),
                  [TESTBEDS[inputs.SERVE_DEVICE]], best_only=False)
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.npz")
    save_table(tmp, table)
    os.replace(tmp, path)


def corpus_path(seed: int) -> Tuple[Path, float]:
    """The seed's corpus, built once per seed and program; returns the
    path and the build time (0 when it was already stored)."""
    store = OUT_DIR / "corpus"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"seed{seed}-{_source_digest()}.npz"
    if path.exists():
        return path, 0.0
    t0 = _perf()
    build_corpus(inputs.corpus_specs(seed), path)
    built = _perf() - t0
    for old in sorted(store.glob("seed*.npz"),
                      key=lambda p: p.stat().st_mtime)[:-CORPUS_STORE_KEEP]:
        old.unlink(missing_ok=True)
    return path, built


# -- server ----------------------------------------------------------------
class Server:
    """One ``repro serve`` process (optionally under the tracing
    launcher); always stopped by :meth:`stop`."""

    def __init__(self, corpus: Path, scratch: Path, tag: str,
                 spans: Optional[Path] = None) -> None:
        self.log = scratch / f"server-{tag}.log"
        self.access_log = scratch / f"access-{tag}.log"
        argv = ["serve", "--table", str(corpus), "--port", "0",
                "--access-log", str(self.access_log)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                   str(spans), *argv]
        with open(self.log, "wb") as out:
            self.t_launch = _perf()
            self.proc = subprocess.Popen(cmd, stdout=out,
                                         stderr=subprocess.STDOUT,
                                         env=program_env(), cwd=ROOT)
        self.host = self.port = None
        self.t_ready = None

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` answers 200."""
        deadline = self.t_launch + READY_TIMEOUT_S
        while self.port is None:
            match = _URL.search(self.log.read_bytes())
            if match:
                url = match.group(1).decode()
                self.host, port = url[len("http://"):].rsplit(":", 1)
                self.port = int(port)
            elif self.proc.poll() is not None or _perf() > deadline:
                raise RuntimeError(
                    "server did not start: "
                    + self.log.read_text(errors="replace")[-2000:])
            else:
                time.sleep(0.002)
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    self.t_ready = _perf()
                    return self.t_ready - self.t_launch
            except OSError:
                pass
            if self.proc.poll() is not None or _perf() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        return stop_process(self.proc)


# -- client ----------------------------------------------------------------
def _connection_loop(host, port, seq, deadline, out: list) -> None:
    """Closed loop on one keep-alive connection until ``deadline``."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    i = 0
    try:
        while True:
            t0 = _perf()
            if t0 >= deadline:
                return
            kind, path, body = seq[i % len(seq)]
            try:
                if kind == "select":
                    conn.request("POST", path, body=body, headers={
                        "Content-Type": "application/json"})
                else:
                    conn.request("GET", path)
                resp = conn.getresponse()
                data, status = resp.read(), resp.status
            except (OSError, http.client.HTTPException) as exc:
                data, status = repr(exc).encode(), 0
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
            out.append((kind, i % len(seq), t0, _perf(), status, data))
            i += 1
    finally:
        conn.close()


def drive(host: str, port: int, seqs: List[list], seconds: float,
          on_tick=None) -> Tuple[List[list], float, float]:
    """Run one thread per sequence (one connection each) for ``seconds``.

    ``on_tick(now)`` is called from the calling thread every
    :data:`TRACE_BLOCK_S` until the deadline.  Returns the per-connection
    records and the start and end of the timed phase.
    """
    records: List[list] = [[] for _ in seqs]
    t_start = _perf()
    deadline = t_start + seconds
    threads = [
        threading.Thread(target=_connection_loop,
                         args=(host, port, seq, deadline, records[k]),
                         name=f"perfbench-client-{k}")
        for k, seq in enumerate(seqs)
    ]
    for t in threads:
        t.start()
    if on_tick is not None:
        tick = t_start
        while tick < deadline:
            on_tick(tick)
            tick = min(tick + TRACE_BLOCK_S, deadline)
            time.sleep(max(0.0, tick - _perf()))
    for t in threads:
        t.join(timeout=seconds + 60)
    ends = [r[3] for recs in records for r in recs]
    return records, t_start, max(ends) if ends else deadline


# -- output checks ---------------------------------------------------------
def _coerce(table, name: str, raw: str):
    if table.is_categorical(name):
        return raw
    kind = table.column(name).dtype.kind
    return int(raw) if kind in "iu" else float(raw)


def expected_slice(table, params: Dict[str, str]):
    """The ``/sweep`` answer computed with ``SweepTable`` directly: the
    parsed JSON object, or the CSV text."""
    columns = ([c for c in params["columns"].split(",") if c]
               if "columns" in params else table.names)
    sliced = table
    for name, raw in params.items():
        if name in _RESERVED:
            continue
        if "," in raw:
            sliced = sliced.where_in(
                name, [_coerce(table, name, v) for v in raw.split(",") if v])
        else:
            sliced = sliced.where(**{name: _coerce(table, name, raw)})
    total = len(sliced)
    offset = int(params.get("offset", "0"))
    stop = total if "limit" not in params else min(
        offset + int(params["limit"]), total)
    if offset or stop != total:
        sliced = sliced.select(np.arange(offset, max(offset, stop)))
    rows = [{c: row[c] for c in columns} for row in sliced.iter_rows()]
    if params.get("fmt", "json") == "csv":
        lines = [",".join(columns)]
        lines += [",".join(str(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    return {"total": total, "returned": len(rows), "rows": rows}


def _same(got, want) -> bool:
    """Equality of decoded JSON values where NaN equals NaN: a float
    that is bit-identical on both sides decodes to NaN on both."""
    if isinstance(got, float) and isinstance(want, float):
        return got == want or (got != got and want != want)
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            _same(a, b) for a, b in zip(got, want))
    return got == want


def check_responses(records, seqs, corpus: Path) -> Tuple[int, int, int]:
    """Count failed and wrong replies: ``/select`` against a selector
    fitted here with ``train_selector`` on the same corpus (device, seed
    and model as the server's defaults), ``/sweep`` against
    :func:`expected_slice`.  Also returns how many wrong ``/select``
    replies had every predicted GFLOPS right and only the chosen format
    differing from ``select_batch``."""
    from urllib.parse import parse_qsl, urlsplit

    from repro.io import load_table
    from repro.service import train_selector

    table = load_table(corpus)
    selector = train_selector(table)
    selects = sorted({(k, r[1]) for k, recs in enumerate(records)
                      for r in recs if r[0] == "select"})
    feats = [inputs.features_of(json.loads(seqs[k][i][2]))
             for k, i in selects]
    expected: Dict[tuple, dict] = {}
    if feats:
        scores = selector.predict_gflops_batch(feats)
        chosen = selector.select_batch(feats)
        for j, key in enumerate(selects):
            per_format = {f: float(scores[f][j]) for f in scores}
            expected[key] = {"format": chosen[j],
                             "predicted_gflops": per_format[chosen[j]],
                             "gflops": per_format}
    slices: Dict[str, object] = {}
    errors = wrong = choice_only = 0
    for k, recs in enumerate(records):
        for kind, i, _t0, _t1, status, data in recs:
            if status != 200:
                errors += 1
                continue
            if kind == "select":
                got, want = json.loads(data), expected[(k, i)]
                ok = _same(got, want)
                choice_only += (not ok) and _same(got.get("gflops"),
                                                  want["gflops"])
            else:
                path = seqs[k][i][1]
                if path not in slices:
                    params = dict(parse_qsl(urlsplit(path).query))
                    slices[path] = expected_slice(table, params)
                want = slices[path]
                ok = (data.decode() == want if isinstance(want, str)
                      else _same(json.loads(data), want))
            wrong += not ok
    return errors, wrong, choice_only


# -- the workload ------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool) -> Result:
    from repro.devices import TESTBEDS

    res = Result()
    corpus, built = corpus_path(seed)
    formats = list(TESTBEDS[inputs.SERVE_DEVICE].formats)
    queries = inputs.sweep_queries(seed, formats)
    seqs = [inputs.request_sequence(seed, k, queries)
            for k in range(client_connections())]
    res.note(f"  corpus: {corpus.relative_to(ROOT)}"
             + (f" (built in {built:.2f} s)" if built else " (stored)"))
    scratch = scratch_dir("serve")
    servers: List[Server] = []
    try:
        spans_path = (OUT_DIR / f"spans-serve-seed{seed}.json"
                      if trace else None)
        launches = 1 if trace else SETUP_LAUNCHES
        setup_times = []
        for k in range(launches):
            server = Server(corpus, scratch, str(k), spans=spans_path)
            servers.append(server)
            setup_times.append(server.wait_ready())
            if k < launches - 1:
                server.stop()
        server = servers[-1]

        blocks = []   # (start, traced) of each trace block

        def toggle(now):
            traced = len(blocks) % 2 == 1
            server.signal(signal.SIGUSR1 if traced else signal.SIGUSR2)
            blocks.append((now, traced))

        host = HostWindow()
        records, t_start, t_end = drive(
            server.host, server.port, seqs, seconds,
            on_tick=toggle if trace else None)
        host_counters = host.close()
        status, stats_body = server.get("/stats")
        stats = json.loads(stats_body) if status == 200 else {}
        peak_mb = peak_rss_mb(server.proc.pid)
        rc = server.stop()
        if rc != 0:
            res.fail(0, f"server exited {rc} after SIGTERM")

        flat = [r for recs in records for r in recs]
        res.attempted = len(flat)
        errors, wrong, choice_only = check_responses(records, seqs, corpus)
        if errors:
            res.fail(errors, f"{errors} requests failed (non-200 or "
                     "connection error)")
        if wrong:
            res.fail(wrong, f"{wrong} replies differ from the direct "
                     f"library result; in {choice_only} of them only the "
                     "chosen format differs from select_batch (see "
                     "perfbench/README.md, known defects)")
        res.note(f"  check: {len(flat) - errors - wrong}/{len(flat)} replies "
                 "equal select_batch/predict_gflops_batch or the "
                 "SweepTable slice")
        wall = t_end - t_start
        if not trace:
            log_bytes = server.access_log.stat().st_size
            log_lines = _count_lines(server.access_log)
            setup_s = statistics.median(setup_times)
            # Requests per second of the median one-second block: a
            # neighbour's burst in one block does not move it.
            per_second = [0] * max(1, int(wall))
            for r in flat:
                if r[3] - t_start < len(per_second):
                    per_second[int(r[3] - t_start)] += 1
            qps = statistics.median(per_second)
            res.metric("setup_s", setup_s, "s",
                       f"median of {len(setup_times)} launches to /healthz "
                       f"{[round(t, 3) for t in setup_times]}")
            res.metric("peak_rss_mb", peak_mb, "MB", "server process")
            res.metric("ops_per_s", qps, "1/s",
                       f"median of {len(per_second)} one-second blocks; "
                       f"{len(flat)} requests completed on "
                       f"{len(seqs)} connections, {wall:.2f} s")
            res.metric("disk_kb_per_op",
                       log_bytes / 1024.0 / max(log_lines, 1), "KB",
                       f"access-log bytes per logged request ({log_lines})")
            for kind, label in (("select", "/select"), ("sweep", "/sweep")):
                lat = summarize([(r[3] - r[2]) * 1000.0 for r in flat
                                 if r[0] == kind])
                tail = (f"p{lat['tail_pct']:g}={lat['tail']:.3f} ms"
                        if lat["tail"] is not None else "too few for a tail")
                res.note(f"  {label} client latency: p50="
                         f"{lat['p50'] or 0:.3f} ms, {tail}, n={lat['n']}")
        else:
            _serve_trace_report(res, spans_path, stats, records, blocks,
                                t_start, t_end, server)
        res.note(f"  host: {host_counters}")
        return res
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _serve_trace_report(res, spans_path, stats, records, blocks, t_start,
                        t_end, server) -> None:
    spans, doc = load_spans(spans_path)
    edges = [b[0] for b in blocks] + [t_end]
    windows = {True: [], False: []}
    for (start, traced), stop in zip(blocks, edges[1:]):
        windows[traced].append((start, stop))
    done = {True: 0, False: 0}
    for recs in records:
        for r in recs:
            for (start, traced), stop in zip(blocks, edges[1:]):
                if start <= r[3] < stop:
                    done[traced] += 1
                    break
    rate = {t: done[t] / max(sum(b - a for a, b in windows[t]), 1e-9)
            for t in (True, False)}
    agg = aggregate(spans, windows[True])
    setup = aggregate(spans, [(server.t_launch, server.t_ready)])
    values = layer_metrics(agg)
    values.update(layer_metrics(setup, prefix="setup."))
    values.update(service_metrics(agg))
    values["fit.self_s"] = setup.get("fit", {}).get("self_s", 0.0)
    values["load.self_s"] = setup.get("load", {}).get("self_s", 0.0)
    installed = dict(doc.get("installed", {}))
    missing = dict(doc.get("missing", {}))
    endpoints = stats.get("endpoints", {})
    if "batcher" in stats and "sweep_cache" in stats:
        installed["http"] = ["GET /stats"]
        sel, sw = endpoints.get("select", {}), endpoints.get("sweep", {})
        values["http.select.server_p50_ms"] = sel.get("p50_ms", 0.0)
        values["http.select.server_p99_ms"] = sel.get("p99_ms", 0.0)
        values["http.slice.server_p50_ms"] = sw.get("p50_ms", 0.0)
        values["http.slice.server_p99_ms"] = sw.get("p99_ms", 0.0)
        values["http.errors"] = sum(e.get("errors", 0)
                                    for e in endpoints.values())
        values["batcher.flushes"] = stats["batcher"].get("flushes", 0)
        values["batcher.mean_size"] = stats["batcher"].get("mean_size", 0.0)
        hits = stats["sweep_cache"].get("hits", 0)
        misses = stats["sweep_cache"].get("misses", 0)
        values["slice.hits"], values["slice.misses"] = hits, misses
        values["slice.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    else:
        missing["http"] = ["GET /stats batcher/sweep_cache fields"]
    values["trace.overhead_pct"] = (rate[False] / rate[True] - 1.0) * 100.0
    values["trace.coverage"] = agg["__coverage__"]
    res.note(f"  traced: {len(windows[True])} of {len(blocks)} "
             f"{TRACE_BLOCK_S:g}-s blocks ({done[True]} requests); "
             f"spans: {Path(spans_path).relative_to(ROOT)}")
    res.per_layer(values, installed, missing)
