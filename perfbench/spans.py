"""In-memory spans around the calls into each layer of the program.

The benchmark never edits the program: :func:`install` replaces the
layer entry points named in :data:`TARGETS` with timing wrappers, at the
place their callers look them up.  A method is wrapped on its class
(every class of the hierarchy that defines it, for the format
families); a module-level function is wrapped in every loaded ``repro``
module that holds it, which covers callers that imported it by name and
callers that import it lazily from its defining module.

A target that no longer exists is recorded as missing; a layer none of
whose targets exists is *absent*, which the report prints instead of
failing, so the benchmark survives the deletions the roadmap plans.

Each span records ``[layer, target, start, end, parent, op, outer,
extra]``.  ``outer`` is true when no enclosing span on the same thread
belongs to the same layer: calls and counters are taken from outer spans
only, so a layer that calls itself (``simulate_grid`` →
``_score_grid``) is counted once.  Self time is a span's duration minus
the durations of its direct children, of any layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import statistics
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "TARGETS", "install", "aggregate", "layer_metrics",
           "service_metrics", "load_spans", "PER_LAYER"]

_perf = time.perf_counter


def _proc_io(field: str) -> int:
    """``rchar``/``wchar`` of this process: bytes passed through read or
    write system calls, whatever file layout the program uses."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    return 0


def _refusals(exc) -> Optional[dict]:
    from repro.formats.base import FormatError

    return {"refused": 1} if isinstance(exc, FormatError) else None


def _cells(args, result) -> Optional[dict]:
    data = getattr(result, "data", None)
    return {"cells": len(data)} if data is not None else None


def _fetch(args, result) -> dict:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _stores(args, result) -> dict:
    return {"stores": 1}


def _samples(args, result) -> dict:
    return {"samples": len(args[1]) if len(args) > 1 else 0}


def _payload_bytes(args, result) -> dict:
    return {"read_bytes": len(result)}


# (layer, "module:qualname", options).  Options: ``skip`` lists modules
# whose own references stay unwrapped (the generator draws the
# representative's row lengths with ``row_length_profile`` itself; only
# the declared-scale regeneration by its callers is the profile stage);
# ``subclasses`` wraps every subclass that overrides the method; ``io``
# adds the process's read/write byte delta; ``on_result``/``on_error``
# return per-call counters.
TARGETS: Tuple[Tuple[str, str, dict], ...] = (
    ("generator", "repro.perfmodel.instance:MatrixInstance.from_spec", {}),
    ("generator", "repro.core.generator:structure_batch", {}),
    ("profile", "repro.core.generator:row_length_profile",
     {"skip": ("repro.core.generator",)}),
    ("features", "repro.core.features:extract_features", {}),
    ("formats", "repro.formats.base:SparseFormat.stats_from_csr",
     {"subclasses": True, "on_error": _refusals}),
    ("formats", "repro.formats.base:SparseFormat.stats_from_csr_batch",
     {"subclasses": True, "on_error": _refusals}),
    ("formats", "repro.formats.base:SparseFormat.stats_at_density_from_csr",
     {"subclasses": True, "on_error": _refusals}),
    ("imbalance", "repro.devices.parallel:imbalance_for_strategy", {}),
    ("imbalance", "repro.devices.parallel:imbalance_for_strategy_fast", {}),
    ("imbalance", "repro.devices.parallel:sell_chunk_widths", {}),
    ("score", "repro.perfmodel.batch:simulate_grid", {"on_result": _cells}),
    ("score", "repro.perfmodel.batch:_score_grid", {"on_result": _cells}),
    ("table", "repro.core.table:SweepTable.__init__", {}),
    ("table", "repro.core.table:SweepTable.concat", {}),
    ("table", "repro.core.table:SweepTable.where", {}),
    ("table", "repro.core.table:SweepTable.where_in", {}),
    ("table", "repro.core.table:SweepTable.select", {}),
    ("cache", "repro.pipeline.cache:InstanceCache.fetch",
     {"on_result": _fetch, "io": "rchar"}),
    ("cache", "repro.pipeline.cache:InstanceCache.store",
     {"on_result": _stores, "io": "wchar"}),
    ("pack", "repro.io.pack:Pack.read", {"on_result": _payload_bytes}),
    ("pack", "repro.io.pack:append_entries", {}),
    ("journal", "repro.pipeline.journal:RunJournal.write_shard",
     {"io": "wchar"}),
    ("journal", "repro.pipeline.journal:RunJournal.record_chunk",
     {"io": "wchar"}),
    ("predict", "repro.ml.selector:FormatSelector.predict_gflops_batch",
     {"on_result": _samples}),
    ("fit", "repro.ml.selector:FormatSelector.fit", {}),
    ("load", "repro.service.app:load_corpus", {}),
    ("batcher", "repro.service.batcher:MicroBatcher.submit", {}),
    ("slice", "repro.service.app:ServiceApp.sweep_query", {}),
)

class Tracer:
    """Span recorder; ``enabled`` switches recording without unwrapping
    (a disabled wrapper costs one attribute test per call)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = True
        self.op = None
        self.installed: Dict[str, List[str]] = {}
        self.missing: Dict[str, List[str]] = {}
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> Tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.depth = [], {}
        return local.stack, local.depth

    def wrap(self, layer: str, target: str, fn, opts: Optional[dict] = None):
        opts = opts or {}
        io_field = opts.get("io")
        on_result = opts.get("on_result")
        on_error = opts.get("on_error")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, depth = tracer._stack()
            outer = not depth.get(layer)
            op = tracer.op if tracer.op is not None else threading.get_ident()
            rec = [layer, target, 0.0, 0.0, stack[-1] if stack else None,
                   op, outer, None]
            io0 = _proc_io(io_field) if io_field and outer else None
            stack.append(rec)
            depth[layer] = depth.get(layer, 0) + 1
            try:
                rec[2] = _perf()
                result = fn(*args, **kwargs)
                rec[3] = _perf()
            except BaseException as exc:
                rec[3] = _perf()
                if outer and on_error is not None:
                    rec[7] = on_error(exc)
                raise
            else:
                if outer and on_result is not None:
                    rec[7] = on_result(args, result)
                return result
            finally:
                stack.pop()
                depth[layer] -= 1
                if io0 is not None:
                    rec[7] = dict(rec[7] or {})
                    key = "read_bytes" if io_field == "rchar" else "written_bytes"
                    rec[7][key] = _proc_io(io_field) - io0
                tracer.spans.append(rec)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str, target: str, extra: Optional[dict] = None):
        """A span the harness opens itself (the ``engine`` layer);
        ``extra`` may be filled in before the block exits."""
        if not self.enabled:
            yield extra
            return
        stack, depth = self._stack()
        rec = [layer, target, 0.0, 0.0, stack[-1] if stack else None,
               self.op, not depth.get(layer), extra]
        stack.append(rec)
        depth[layer] = depth.get(layer, 0) + 1
        rec[2] = _perf()
        try:
            yield extra
        finally:
            rec[3] = _perf()
            stack.pop()
            depth[layer] -= 1
            self.spans.append(rec)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write every span, parents as indices."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [
            [r[0], r[1], r[2], r[3],
             index.get(id(r[4])) if r[4] is not None else None,
             r[5], r[6], r[7]]
            for r in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "installed": self.installed,
                       "missing": self.missing}, fh)


def load_spans(path) -> Tuple[List[list], dict]:
    """Spans written by :meth:`Tracer.dump`, parents re-linked."""
    with open(path) as fh:
        doc = json.load(fh)
    spans = doc.pop("spans")
    for rec in spans:
        if rec[4] is not None:
            rec[4] = spans[rec[4]]
    return spans, doc


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except Exception:  # noqa: BLE001 — a broken module is not ours
            continue


def _program_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _subclasses(cls) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _install_one(tracer: Tracer, layer: str, spec: str, opts: dict) -> bool:
    modname, qualname = spec.split(":")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return False
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        original = getattr(module, attr, None)
        if original is None or getattr(original, "__wrapped_by_perfbench__",
                                       False):
            return False
        wrapper = tracer.wrap(layer, qualname, original, opts)
        skip = set(opts.get("skip", ()))
        hit = False
        for mod in _program_modules():
            if mod.__name__ in skip:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    tracer._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
                    hit = True
        return hit
    cls = getattr(module, owner_name, None)
    if not isinstance(cls, type):
        return False
    classes = _subclasses(cls) if opts.get("subclasses") else [cls]
    hit = False
    for klass in classes:
        raw = vars(klass).get(attr)
        if raw is None:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(tracer.wrap(layer, qualname, raw.__func__, opts))
        elif callable(raw):
            new = tracer.wrap(layer, qualname, raw, opts)
        else:
            continue
        tracer._undo.append((klass, attr, raw))
        setattr(klass, attr, new)
        hit = True
    return hit


def install(tracer: Tracer, targets: Iterable = TARGETS) -> Tracer:
    """Wrap every target that exists; record the rest as missing."""
    _import_all()
    for layer, spec, opts in targets:
        done = _install_one(tracer, layer, spec, opts)
        bucket = tracer.installed if done else tracer.missing
        bucket.setdefault(layer, []).append(spec.split(":")[1])
    return tracer


# -- aggregation -------------------------------------------------------------
def _in_windows(t: float, windows: Sequence[Tuple[float, float]]) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def aggregate(spans: Sequence[list],
              windows: Sequence[Tuple[float, float]]) -> dict:
    """Per-layer totals over the spans that start inside ``windows``.

    Returns ``{layer: {"calls", "self_s", "durations", <counters>}}``
    plus ``"__coverage__"``: the share of the windows' length covered by
    some outermost (parentless) span, overlapping threads merged.
    """
    child_time: Dict[int, float] = {}
    for rec in spans:
        if rec[4] is not None:
            child_time[id(rec[4])] = (
                child_time.get(id(rec[4]), 0.0) + rec[3] - rec[2]
            )
    out: Dict[str, dict] = {}
    roots: List[Tuple[float, float]] = []
    for rec in spans:
        layer, target, t0, t1, parent, _op, outer, extra = rec
        if not _in_windows(t0, windows):
            continue
        entry = out.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                       "durations": [], "by_target": {},
                                       "target_calls": {}})
        entry["self_s"] += (t1 - t0) - child_time.get(id(rec), 0.0)
        if parent is None:
            roots.append((t0, t1))
        if not outer:
            continue
        entry["calls"] += 1
        entry["durations"].append(t1 - t0)
        entry["by_target"][target] = (
            entry["by_target"].get(target, 0.0) + t1 - t0
        )
        entry["target_calls"][target] = (
            entry["target_calls"].get(target, 0) + 1
        )
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value
    covered = 0.0
    total = sum(hi - lo for lo, hi in windows)
    for lo, hi in windows:
        clipped = sorted((max(a, lo), min(b, hi)) for a, b in roots
                         if b > lo and a < hi)
        end = lo
        for a, b in clipped:
            if b > end:
                covered += b - max(a, end)
                end = b
    out["__coverage__"] = covered / total if total > 0 else 0.0
    return out


# Per-layer metric names, units and the direction that is better.  Every
# traced run reports all of them; a layer that does no work on a
# workload reports zeros, an absent layer is marked in the text report.
_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("generator.calls", "count", "lower"),
    ("generator.self_s", "s", "lower"),
    ("profile.calls", "count", "lower"),
    ("profile.self_s", "s", "lower"),
    ("features.calls", "count", "lower"),
    ("features.self_s", "s", "lower"),
    ("formats.calls", "count", "lower"),
    ("formats.refused", "count", "lower"),
    ("formats.self_s", "s", "lower"),
    ("imbalance.calls", "count", "lower"),
    ("imbalance.self_s", "s", "lower"),
    ("score.cells", "count", "higher"),
    ("score.self_s", "s", "lower"),
    ("table.calls", "count", "lower"),
    ("table.self_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.read_mb", "MB", "lower"),
    ("cache.read_s", "s", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.written_mb", "MB", "lower"),
    ("cache.write_s", "s", "lower"),
    ("pack.reads", "count", "lower"),
    ("pack.read_mb", "MB", "lower"),
    ("pack.self_s", "s", "lower"),
    ("journal.writes", "count", "lower"),
    ("journal.written_mb", "MB", "lower"),
    ("journal.self_s", "s", "lower"),
    ("engine.chunks", "count", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.degraded", "count", "lower"),
    ("engine.self_s", "s", "lower"),
)

_SERVICE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("http.select.server_p50_ms", "ms", "lower"),
    ("http.select.server_p99_ms", "ms", "lower"),
    ("http.slice.server_p50_ms", "ms", "lower"),
    ("http.slice.server_p99_ms", "ms", "lower"),
    ("http.errors", "count", "lower"),
    ("batcher.flushes", "count", "lower"),
    ("batcher.mean_size", "count", "higher"),
    ("batcher.submit_p50_ms", "ms", "lower"),
    ("predict.calls", "count", "lower"),
    ("predict.samples", "count", "higher"),
    ("predict.flush_p50_ms", "ms", "lower"),
    ("predict.self_s", "s", "lower"),
    ("fit.self_s", "s", "lower"),
    ("load.self_s", "s", "lower"),
    ("slice.hits", "count", "higher"),
    ("slice.misses", "count", "lower"),
    ("slice.hit_ratio", "ratio", "higher"),
    ("slice.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    _LAYER_METRICS
    + _SERVICE_METRICS
    + tuple(("setup." + name, unit, better)
            for name, unit, better in _LAYER_METRICS)
)

_MB = 1024.0 * 1024.0


def _median_ms(durations: Sequence[float]) -> float:
    return statistics.median(durations) * 1000.0 if durations else 0.0


def layer_metrics(agg: dict, prefix: str = "") -> Dict[str, float]:
    """The sweep-layer metrics (:data:`_LAYER_METRICS`) from one
    :func:`aggregate` result, names optionally prefixed."""
    def get(layer, key, default=0):
        return agg.get(layer, {}).get(key, default)

    hits, misses = get("cache", "hits"), get("cache", "misses")
    by_target = agg.get("cache", {}).get("by_target", {})
    values = {
        "generator.calls": get("generator", "calls"),
        "generator.self_s": get("generator", "self_s"),
        "profile.calls": get("profile", "calls"),
        "profile.self_s": get("profile", "self_s"),
        "features.calls": get("features", "calls"),
        "features.self_s": get("features", "self_s"),
        "formats.calls": get("formats", "calls"),
        "formats.refused": get("formats", "refused"),
        "formats.self_s": get("formats", "self_s"),
        "imbalance.calls": get("imbalance", "calls"),
        "imbalance.self_s": get("imbalance", "self_s"),
        "score.cells": get("score", "cells"),
        "score.self_s": get("score", "self_s"),
        "table.calls": get("table", "calls"),
        "table.self_s": get("table", "self_s"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.read_mb": get("cache", "read_bytes") / _MB,
        "cache.read_s": by_target.get("InstanceCache.fetch", 0.0),
        "cache.stores": get("cache", "stores"),
        "cache.written_mb": get("cache", "written_bytes") / _MB,
        "cache.write_s": by_target.get("InstanceCache.store", 0.0),
        "pack.reads": agg.get("pack", {}).get("target_calls", {}).get(
            "Pack.read", 0),
        "pack.read_mb": get("pack", "read_bytes") / _MB,
        "pack.self_s": get("pack", "self_s"),
        "journal.writes": get("journal", "calls"),
        "journal.written_mb": get("journal", "written_bytes") / _MB,
        "journal.self_s": get("journal", "self_s"),
        "engine.chunks": get("engine", "chunks"),
        "engine.retries": get("engine", "retries"),
        "engine.degraded": get("engine", "degraded"),
        "engine.self_s": get("engine", "self_s"),
    }
    return {prefix + name: value for name, value in values.items()}


def service_metrics(agg: dict) -> Dict[str, float]:
    """The span-derived service metrics (the rest come from ``/stats``)."""
    def get(layer, key, default=0):
        return agg.get(layer, {}).get(key, default)

    return {
        "batcher.submit_p50_ms": _median_ms(get("batcher", "durations", [])),
        "predict.calls": get("predict", "calls"),
        "predict.samples": get("predict", "samples"),
        "predict.flush_p50_ms": _median_ms(get("predict", "durations", [])),
        "predict.self_s": get("predict", "self_s"),
        "slice.self_s": get("slice", "self_s"),
    }
