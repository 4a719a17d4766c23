"""Helpers shared by the workloads: paths, percentiles, host counters,
process hygiene and the result line."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything a run leaves behind (spans, the per-seed corpus store,
# per-run scratch directories) lives here, inside the checkout.
OUT_DIR = ROOT / ".perfbench"

# Tail percentiles tried from the highest down; a percentile is reported
# only when at least MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def require_program() -> None:
    """Put the checkout's program source first on ``sys.path``.

    Exits 2 when the checkout holds no program (``src/repro``), so a
    benchmark copied without the program never prints a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {SRC / 'repro'}; run from "
            "the root of a full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's program and this
    package importable, unbuffered output."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- percentiles ---------------------------------------------------------
def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def _rank(pct: float, n: int) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def tail_percentile(n: int) -> Optional[float]:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`MIN_BEYOND` of ``n`` samples above its nearest rank."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median and the highest supported tail percentile, with ``n``."""
    values = sorted(samples)
    n = len(values)
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(values) if values else None,
        "tail_pct": pct,
        "tail": nearest_rank(values, pct) if pct is not None else None,
    }


# -- host and process counters -------------------------------------------
def _loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def _steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class HostWindow:
    """Load average and CPU-steal ticks over the timed phase, so a run
    disturbed by neighbours can be told apart."""

    def __init__(self) -> None:
        self.load_start = _loadavg()
        self.steal_start = _steal_ticks()

    def close(self) -> dict:
        return {
            "load1_start": self.load_start,
            "load1_end": _loadavg(),
            "steal_ticks": _steal_ticks() - self.steal_start,
        }


# Host speed.  On a shared machine the same fixed loop runs up to ~40%
# slower from one ten-minute stretch to the next, far more than the
# bounds a regression gate can use.  The sweeps' timed work is one
# CPU-bound process, and so is a fixed probe that does not touch the
# program (interpreter loops, dict updates, NumPy sort/cumsum/unique, an
# 8 MB copy and CRC, JSON parsing): sweep runs time the probe before,
# between and after their operations and report the work in
# reference-host seconds, raw seconds divided by the host factor (median
# probe time over REFERENCE_PROBE_S).  Process start-up and the
# two-process serving loop (which waits on the batch window and the
# network) do not scale with the probe, so their times stay raw.
REFERENCE_PROBE_S = 0.030
PROBE_EVERY_S = 0.5


def _probe_once(data: np.ndarray, blob: bytes, doc: str) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    counts: Dict[int, int] = {}
    for i in range(15_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + 1
    np.cumsum(np.sort(data))
    np.unique((data * 1000.0).astype(np.int64))
    zlib.crc32(bytes(memoryview(blob)))
    json.loads(doc)
    return time.perf_counter() - t0


class HostSpeed:
    """Times the fixed probe, per phase (``"setup"``, ``"timed"``), so
    each metric is normalised by the host speed of its own phase and,
    within the timed phase, of its own stretch of it.  A factor is >1
    on a slower host."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._args = (
            rng.random(300_000),
            rng.integers(0, 256, size=8 << 20, dtype=np.uint8).tobytes(),
            json.dumps({str(i): [i * 0.5, "x" * 8] for i in range(3000)}),
        )
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self._last = 0.0

    def _probe(self, phase: str) -> None:
        took = _probe_once(*self._args)
        self._last = time.perf_counter()
        self.samples.setdefault(phase, []).append((self._last, took))

    def bracket(self, phase: str, seconds: float) -> None:
        """Probe back to back for ``seconds`` (nothing else running)."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._probe(phase)

    def between_ops(self, phase: str) -> None:
        """One probe if :data:`PROBE_EVERY_S` passed since the last."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._probe(phase)

    def factor(self, phase: str) -> float:
        return statistics.median(
            took for _, took in self.samples[phase]) / REFERENCE_PROBE_S

    def factor_near(self, phase: str, t: float, window: float) -> float:
        """The factor from the phase's probes within ``window`` seconds
        of ``t``; the whole phase's when fewer than 5 are that close."""
        near = [took for at, took in self.samples[phase]
                if abs(at - t) <= window]
        if len(near) < 5:
            return self.factor(phase)
        return statistics.median(near) / REFERENCE_PROBE_S

    def note(self) -> str:
        return "host factor " + ", ".join(
            f"{phase} {self.factor(phase):.4f} ({len(v)} probes)"
            for phase, v in self.samples.items())


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def dir_bytes(path) -> int:
    """Bytes of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(root, name)).st_size
            except FileNotFoundError:
                continue
    return total


def scratch_dir(tag: str) -> Path:
    """A fresh per-run scratch directory inside the checkout."""
    path = OUT_DIR / f"tmp-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait, then SIGKILL: the child has ended on return."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def median_spawn_ready(argv: List[str], count: int) -> Tuple[float, List[float]]:
    """Spawn ``argv`` ``count`` times; each child prints one line when it
    is ready.  Returns the median and all spawn-to-ready times."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                env=program_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            if proc.wait(timeout=120) != 0 or not line.strip():
                raise RuntimeError(f"set-up probe {argv} failed")
        finally:
            proc.stdout.close()
            stop_process(proc)
        times.append(ready - t0)
    return statistics.median(times), times


# -- result ------------------------------------------------------------
class Result:
    """One run's outcome: counts, metrics and a text report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.lines.append(
            f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()
        )

    def per_layer(self, values: Dict[str, float],
                  installed: Dict[str, List[str]],
                  missing: Dict[str, List[str]]) -> None:
        """Every per-layer metric: zero where the workload does no work
        in a layer, marked absent where the layer no longer exists."""
        from .spans import PER_LAYER

        absent = sorted(set(missing) - set(installed))
        for layer in absent:
            self.note(f"  layer {layer}: absent "
                      f"({', '.join(missing[layer])} not found)")
        for layer in sorted(set(missing) & set(installed)):
            self.note(f"  layer {layer}: {', '.join(missing[layer])} "
                      "not found; the rest is traced")
        for name, unit, _better in PER_LAYER:
            parts = name.split(".")
            layer = parts[1] if parts[0] == "setup" else parts[0]
            self.metric(name, values.get(name, 0.0), unit,
                        "absent" if layer in absent else "")

    def note(self, text: str) -> None:
        self.lines.append(text)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.checks_ok = False
        self.lines.append(f"  FAILED ({ops} ops): {why}")

    def emit(self) -> None:
        """The text report, then the one-line JSON result (last line)."""
        for line in self.lines:
            print(line)
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"  {'error_rate':<34} {error_rate:>14.6g} ratio  "
              f"({self.failed} of {self.attempted} ops)")
        print(json.dumps({
            "correct": bool(self.checks_ok and self.failed == 0
                            and self.attempted > 0),
            "attempted": int(max(self.attempted, 1)),
            "failed": int(self.failed if self.attempted else 1),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }), flush=True)
