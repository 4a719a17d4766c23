"""The ``sweep-cold`` and ``sweep-warm`` workloads.

Both reach the program only through ``Dataset`` + ``sweep()`` with no
engine-selection argument (serial, default engine), so they keep
measuring whatever path the program takes by default.
"""

from __future__ import annotations

import inspect
import shutil
import statistics
import sys
import time
from typing import Optional

from . import inputs
from .common import (HostSpeed, HostWindow, Result, dir_bytes,
                     median_spawn_ready, peak_rss_mb, scratch_dir)
from .spans import Tracer, aggregate, layer_metrics

# Set-up repetitions; setup_s is their median.
COLD_SETUP_PROBES = 5
WARM_SETUP_REPEATS = 3
# Output checks: sweep-cold re-scores this many sampled cells.
COLD_CHECK_SPECS = 5
COLD_CHECK_CELLS_PER_SPEC = 5

_perf = time.perf_counter


def _devices():
    from repro.devices import TESTBEDS

    return list(TESTBEDS.values())


def _sweep(dataset, devices, tracer: Optional[Tracer], **kwargs):
    """``sweep()`` with a RunReport when the program accepts one; traced
    runs wrap the call in the ``engine`` span."""
    from repro.core.dataset import sweep

    report = None
    if "report" in inspect.signature(sweep).parameters:
        from repro.pipeline.report import RunReport

        report = kwargs["report"] = RunReport()
    if tracer is None or not tracer.enabled:
        return sweep(dataset, devices, **kwargs)
    extra = {}
    with tracer.span("engine", "sweep", extra):
        table = sweep(dataset, devices, **kwargs)
        if report is not None:
            extra.update(chunks=report.chunks_completed,
                         retries=report.total_retries,
                         degraded=len(report.chunks_degraded))
    return table


def setup_probe(seed: int) -> None:
    """What sweep-cold sets up before its timed phase: imports + specs."""
    from repro.core.dataset import Dataset, sweep  # noqa: F401
    import repro.pipeline  # noqa: F401

    _devices()
    for r in range(4):
        inputs.cold_round_specs(seed, r)


def _trace_report(res: Result, tracer: Tracer, windows, setup_windows,
                  overhead_pct: float) -> None:
    agg = aggregate(tracer.spans, windows)
    values = layer_metrics(agg)
    if setup_windows:
        values.update(layer_metrics(aggregate(tracer.spans, setup_windows),
                                    prefix="setup."))
    values["trace.overhead_pct"] = overhead_pct
    values["trace.coverage"] = agg["__coverage__"]
    res.note(f"  traced: {len(windows)} sweeps, paired with as many "
             "untraced ones")
    res.per_layer(values, tracer.installed, tracer.missing)


# -- sweep-cold ------------------------------------------------------------
def run_cold(seed: int, seconds: float, tracer: Optional[Tracer]) -> Result:
    from repro.core.dataset import Dataset

    res = Result()
    devices = _devices()
    speed = HostSpeed()
    if tracer is None:
        setup_s, probes = median_spawn_ready(
            [sys.executable, "-m", "perfbench.run", "--probe-setup",
             "--seed", str(seed)], COLD_SETUP_PROBES)
    scratch = scratch_dir("sweep-cold")
    try:
        speed.bracket("timed", 1.0)
        host = HostWindow()
        rounds = []          # (specs, dataset name, table, traced)
        op_times, disk_bytes, n_specs = [], 0, 0
        traced_t, untraced_t, windows = 0.0, 0.0, []
        t_start = _perf()
        r = 0
        while _perf() - t_start < seconds:
            specs = inputs.cold_round_specs(seed, r)
            # Traced runs sweep each round twice, traced and untraced, in
            # alternating order, so the overhead is a paired comparison.
            modes = [False] if tracer is None else (
                [False, True] if r % 2 == 0 else [True, False])
            for traced in modes:
                # One dataset name per round: names seed the simulated
                # measurement noise, so both sweeps must produce one table.
                name = f"cold{r}"
                run_dir = scratch / f"run-{name}-{int(traced)}"
                if tracer is not None:
                    tracer.enabled, tracer.op = traced, r
                t0 = _perf()
                try:
                    table = _sweep(Dataset(specs, name=name), devices,
                                   tracer, best_only=False,
                                   run_dir=str(run_dir))
                except Exception as exc:  # noqa: BLE001 — counted
                    table = None
                    res.fail(len(specs), f"round {r}: "
                             f"{type(exc).__name__}: {exc}")
                t1 = _perf()
                if tracer is not None:
                    tracer.enabled = False
                if traced:
                    traced_t += t1 - t0
                    windows.append((t0, t1))
                else:
                    untraced_t += t1 - t0
                    op_times.append((t0, t1))
                    n_specs += len(specs)
                    disk_bytes += dir_bytes(run_dir)
                shutil.rmtree(run_dir, ignore_errors=True)
                rounds.append((specs, name, table, traced))
                speed.bracket("timed", 0.3)
            r += 1
        host_counters = host.close()
        speed.bracket("timed", 1.0)
        res.attempted = n_specs
        _check_cold(res, seed, rounds, devices)
        if tracer is None:
            wall = sum(t1 - t0 for t0, t1 in op_times)
            # Each round's time in reference-host seconds, by the probes
            # taken around it.
            host_wall = sum(
                (t1 - t0) / speed.factor_near("timed", (t0 + t1) / 2,
                                              (t1 - t0) / 2 + 1.0)
                for t0, t1 in op_times)
            res.metric("setup_s", setup_s, "s",
                       f"median of {len(probes)} spawn-to-ready probes "
                       f"{[round(t, 3) for t in probes]}")
            res.metric("peak_rss_mb", peak_rss_mb(), "MB", "run process")
            res.metric("ops_per_s", n_specs / host_wall, "1/s",
                       f"raw {n_specs / wall:.4f}: {n_specs} specs scored "
                       f"in {len(op_times)} journalled sweeps, {wall:.2f} s")
            res.metric("disk_kb_per_op", disk_bytes / 1024.0 / n_specs,
                       "KB", "run-dir bytes per spec")
        else:
            overhead = (traced_t / untraced_t - 1.0) * 100.0
            _trace_report(res, tracer, windows, [], overhead)
        res.note(f"  host: {host_counters}; {speed.note()}")
        return res
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _check_cold(res: Result, seed: int, rounds, devices) -> None:
    """Re-score sampled cells through ``MatrixInstance.from_spec`` +
    ``simulate_spmv`` under the sweep's row names: ``gflops`` and
    ``watts`` must match bit for bit; traced and untraced sweeps of one
    round must produce equal tables."""
    from repro.core.dataset import Dataset
    from repro.perfmodel.instance import MatrixInstance
    from repro.perfmodel.simulator import simulate_spmv

    by_dev = {d.name: d for d in devices}
    rng = inputs.check_rng(seed)
    untraced = [(s, n, t) for s, n, t, traced in rounds
                if t is not None and not traced]
    if not untraced:
        return
    max_nnz = Dataset([]).max_nnz
    picks = []
    for _ in range(COLD_CHECK_SPECS):
        specs, name, table = untraced[int(rng.integers(len(untraced)))]
        picks.append((specs, name, table, int(rng.integers(len(specs)))))
    checked = bad = 0
    for specs, name, table, i in picks:
        label = f"{name}[{i}]"
        rows = table.where(matrix=label)
        if not len(rows):
            res.fail(1, f"{label}: no rows in the sweep table")
            continue
        inst = MatrixInstance.from_spec(specs[i], max_nnz=max_nnz, name=label)
        chosen = rng.choice(len(rows), size=min(COLD_CHECK_CELLS_PER_SPEC,
                                                len(rows)), replace=False)
        all_rows = rows.to_rows()
        wrong = 0
        for k in sorted(int(c) for c in chosen):
            row = all_rows[k]
            m = simulate_spmv(inst, row["format"], by_dev[row["device"]])
            checked += 1
            if m.gflops != row["gflops"] or m.watts != row["watts"]:
                wrong += 1
        if wrong:
            bad += wrong
            res.fail(1, f"{label}: {wrong} re-scored cells differ")
    pairs = {}
    for specs, name, table, traced in rounds:
        pairs.setdefault(name, {})[traced] = table
    for name, pair in pairs.items():
        if len(pair) == 2 and None not in pair.values():
            if pair[False] != pair[True]:
                res.fail(len(inputs.COLD_ROUND),
                         f"{name}: traced sweep differs from untraced")
    res.note(f"  check: {checked - bad}/{checked} re-scored cells match "
             "bit for bit")


# -- sweep-warm ------------------------------------------------------------
def run_warm(seed: int, seconds: float, tracer: Optional[Tracer]) -> Result:
    from repro.core.dataset import Dataset

    res = Result()
    devices = _devices()
    specs = inputs.warm_specs(seed)
    speed = HostSpeed()
    scratch = scratch_dir("sweep-warm")
    try:
        repeats = 1 if tracer is not None else WARM_SETUP_REPEATS
        setup_times, setup_tables, setup_windows = [], [], []
        cache = None
        if tracer is not None:
            tracer.enabled, tracer.op = True, "setup"
        for k in range(repeats):
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)
            cache = scratch / f"cache{k}"
            speed.bracket("setup", 0.4)
            t0 = _perf()
            table = _sweep(Dataset(specs, name="warm"), devices, tracer,
                           best_only=True, cache_dir=str(cache))
            t1 = _perf()
            setup_times.append(t1 - t0)
            setup_windows.append((t0, t1))
            setup_tables.append(table)
        speed.bracket("setup", 0.4)
        if tracer is not None:
            tracer.enabled = False
        reference = setup_tables[0]
        if any(t != reference for t in setup_tables[1:]):
            res.fail(len(specs), "set-up sweeps disagree")
        cache_bytes = dir_bytes(cache)

        speed.bracket("timed", 0.5)
        host = HostWindow()
        tables, op_times = [], []
        traced_t, untraced_t, windows = 0.0, 0.0, []
        t_start = _perf()
        i = 0
        while _perf() - t_start < seconds:
            # A fresh Dataset per re-sweep and sweep(cache_dir=...) opening
            # the cache afresh, as a new `repro sweep --cache-dir` would:
            # the in-memory layer never answers.
            modes = [False] if tracer is None else (
                [False, True] if i % 2 == 0 else [True, False])
            for traced in modes:
                if tracer is not None:
                    tracer.enabled, tracer.op = traced, i
                t0 = _perf()
                try:
                    table = _sweep(Dataset(specs, name="warm"), devices,
                                   tracer, best_only=True,
                                   cache_dir=str(cache))
                except Exception as exc:  # noqa: BLE001 — counted
                    table = None
                    res.fail(len(specs), f"re-sweep {i}: "
                             f"{type(exc).__name__}: {exc}")
                t1 = _perf()
                if tracer is not None:
                    tracer.enabled = False
                if traced:
                    traced_t += t1 - t0
                    windows.append((t0, t1))
                else:
                    untraced_t += t1 - t0
                    op_times.append((t0, t1))
                tables.append(table)
                speed.between_ops("timed")
            i += 1
        host_counters = host.close()
        speed.bracket("timed", 1.0)
        res.attempted = len(specs) * len(tables)
        wrong = sum(1 for t in tables if t is not None and t != reference)
        if wrong:
            res.fail(wrong * len(specs),
                     f"{wrong} re-sweeps differ from the set-up table")
        res.note(f"  check: {len(tables) - wrong}/{len(tables)} re-sweep "
                 "tables equal the set-up table")
        if tracer is None:
            setup_s = statistics.median(setup_times)
            # Specs per second of the median re-sweep, each re-sweep in
            # reference-host seconds by the probes of the 2 s around it:
            # one slow re-sweep (a neighbour's burst) does not move it.
            times = [t1 - t0 for t0, t1 in op_times]
            host_times = [
                (t1 - t0) / speed.factor_near("timed", (t0 + t1) / 2, 2.0)
                for t0, t1 in op_times]
            rate = len(specs) / statistics.median(times)
            res.metric("setup_s", setup_s / speed.factor("setup"), "s",
                       f"raw {setup_s:.4f} s: median of {len(setup_times)} "
                       "cold write-back sweeps "
                       f"{[round(t, 3) for t in setup_times]}")
            res.metric("peak_rss_mb", peak_rss_mb(), "MB", "run process")
            res.metric("ops_per_s",
                       len(specs) / statistics.median(host_times), "1/s",
                       f"raw {rate:.4f}: {len(specs)} specs per re-sweep, "
                       f"median of {len(times)} re-sweeps "
                       f"({sum(times):.2f} s)")
            res.metric("disk_kb_per_op", cache_bytes / 1024.0 / len(specs),
                       "KB", f"cache-dir bytes per spec "
                       f"({cache_bytes / 2**20:.1f} MB)")
        else:
            overhead = (traced_t / untraced_t - 1.0) * 100.0
            _trace_report(res, tracer, windows, setup_windows, overhead)
        res.note(f"  host: {host_counters}; {speed.note()}")
        return res
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
