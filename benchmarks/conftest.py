"""Shared fixtures for the figure/table benches.

Sweeps are the expensive part, so they run once per session and are shared
by every bench; the ``benchmark`` fixture then times the (cheap, repeated)
analysis step of each figure.  Dataset size follows ``REPRO_SCALE``
(tiny/small/medium/large, default tiny) — larger scales sharpen the
boxplots at proportional cost.

Each bench writes its regenerated rows/series to
``benchmarks/results/<name>.txt`` and prints them (visible with ``-s``).

The sweeps run through the pipeline engine: ``REPRO_JOBS`` fans them out
over worker processes (0 = auto-detect cores) and ``REPRO_CACHE_DIR``
persists per-spec scoring records so repeat bench runs start warm.
Both leave the measurement rows byte-identical to a serial, uncached
sweep.

Importing this module also puts the repo root on ``sys.path``, so the
benches that time a production path against its reference
implementation can import it from ``tests.oracles`` after their
``from conftest import ...`` line, under pytest and standalone alike.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

SCALE = os.environ.get("REPRO_SCALE", "tiny")
MAX_NNZ = int(os.environ.get("REPRO_MAX_NNZ", "80000"))
JOBS = int(os.environ.get("REPRO_JOBS", "1"))
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None


def emit(name: str, text: str) -> str:
    """Print a bench's regenerated artefact and persist it."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


@pytest.fixture(scope="session")
def paper_dataset():
    """The Table-I artificial dataset at the configured scale."""
    return Dataset(build_dataset_specs(SCALE), max_nnz=MAX_NNZ, name=SCALE)


@pytest.fixture(scope="session")
def dataset_sweep(paper_dataset):
    """Best-format measurements on all nine devices (Fig 2-6, 9)."""
    return sweep(
        paper_dataset, list(TESTBEDS.values()), best_only=True,
        jobs=JOBS, cache_dir=CACHE_DIR,
    )


@pytest.fixture(scope="session")
def formats_sweep(paper_dataset):
    """Per-format measurements on one device per class (Fig 7)."""
    devices = [
        TESTBEDS["AMD-EPYC-24"],
        TESTBEDS["Tesla-V100"],
        TESTBEDS["Alveo-U280"],
    ]
    return sweep(
        paper_dataset, devices, best_only=False,
        jobs=JOBS, cache_dir=CACHE_DIR,
    )


N_FRIENDS = int(os.environ.get("REPRO_FRIENDS", "5"))


@pytest.fixture(scope="session")
def validation_results():
    """Table III surrogates + friends, best-format perf on all devices.

    Returns ``{device: {matrix_id: (surrogate_gflops, [friend_gflops...],
    surrogate_instance)}}``; devices where a matrix fails entirely (FPGA
    capacity) omit that id, as in the paper.
    """
    from repro.core.validation import VALIDATION_SUITE, friend_specs, surrogate_spec
    from repro.perfmodel import MatrixInstance, simulate_best

    out = {dev: {} for dev in TESTBEDS}
    for vm in VALIDATION_SUITE:
        surrogate = MatrixInstance.from_spec(
            surrogate_spec(vm), max_nnz=60_000, name=vm.name
        )
        friends = [
            MatrixInstance.from_spec(fs, max_nnz=60_000,
                                     name=f"{vm.name}~{k}")
            for k, fs in enumerate(
                friend_specs(vm, n_friends=N_FRIENDS, seed=7)
            )
        ]
        for dev_name, dev in TESTBEDS.items():
            base = simulate_best(surrogate, dev)
            if base is None:
                continue
            fr = [
                m.gflops
                for m in (simulate_best(f, dev) for f in friends)
                if m is not None
            ]
            if not fr:
                continue
            out[dev_name][vm.id] = (base.gflops, fr, surrogate)
    return out
