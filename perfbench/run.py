"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 25
    python3 perfbench/run.py --workload serve --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is the JSON result (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it are the
text report: every metric with its unit and sample count, the error
rate, the output checks and the host's load and CPU steal over the timed
phase.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import OUT_DIR, require_program  # noqa: E402

WORKLOADS = ("sweep-cold", "sweep-warm", "serve")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    # Child mode for sweep-cold's setup_s: import and build specs, then
    # print one line.
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p


def _run_all(args) -> int:
    """Each workload in its own fresh process; the last line maps each
    workload to its result."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{workload}: no result (exit {proc.returncode})")
            results[workload] = None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload is None and not args.probe_setup:
        _parser().error("--workload is required")
    require_program()
    # A run stopped with SIGTERM unwinds through the finally blocks that
    # stop the server and remove the scratch directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.probe_setup:
        from perfbench import sweeps

        sweeps.setup_probe(args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return _run_all(args)

    tracer = None
    if args.trace and args.workload != "serve":
        from perfbench.spans import Tracer, install

        tracer = install(Tracer())
        tracer.enabled = False
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.workload == "sweep-cold":
        from perfbench.sweeps import run_cold

        result = run_cold(args.seed, args.seconds, tracer)
    elif args.workload == "sweep-warm":
        from perfbench.sweeps import run_warm

        result = run_warm(args.seed, args.seconds, tracer)
    else:
        from perfbench.serve import run_serve

        result = run_serve(args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        result.note(f"  spans: {path.relative_to(ROOT)}")
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
