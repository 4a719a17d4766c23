"""Run what ``repro serve`` runs, with the benchmark's layer wrappers.

    python3 perfbench/serve_launcher.py SPANS.json serve --table t.npz ...

Installs the wrappers of :mod:`perfbench.spans` in this (server)
process, then calls the program's CLI entry point with the remaining
arguments.  Recording starts enabled, so start-up (corpus load, fit) is
traced; SIGUSR1 enables and SIGUSR2 disables recording, which lets the
client alternate traced and untraced blocks against one server.  The
spans are written after the SIGTERM drain, when the CLI returns.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import require_program  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    require_program()
    from perfbench.spans import Tracer, install

    tracer = install(Tracer())
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    from repro.cli import main as repro_main

    rc = repro_main(cli_args)
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
