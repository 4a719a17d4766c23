"""Sweep execution pipeline: sharding, persistence, caching, resilience.

The pipeline industrialises the dataset sweep that every figure/table
bench and the CLI run: :func:`run_sweep` partitions specs into chunks,
runs them through one chunk loop — in-process at ``jobs=1``, across a
self-healing worker crew otherwise (per-chunk deadlines, capped-backoff
retries, pool-death detection, in-process degradation) — and merges
results deterministically;
:class:`InstanceCache` content-keys each
:class:`~repro.core.generator.MatrixSpec` and persists its scoring
record (features, per-format statistics, SIMD and imbalance memos) so
warm sweeps skip generation entirely — quarantining, never trusting,
corrupt records.  :class:`RunJournal` makes long sweeps resumable
(``repro sweep --resume``), :class:`FaultPlan` injects deterministic
chaos for the resilience suites, and :class:`RunReport` accounts every
incident for ``repro sweep --health-json``.
"""

from .cache import CACHE_VERSION, InstanceCache, spec_key
from .engine import resolve_jobs, run_sweep
from .faults import Fault, FaultPlan, InjectedFaultError, corrupt_file
from .journal import RunJournal, sweep_config
from .report import (
    ChunkFailedError,
    ChunkTimeoutError,
    ResumeError,
    RunReport,
    SweepError,
    WorkerCrashError,
)

__all__ = [
    "CACHE_VERSION",
    "InstanceCache",
    "spec_key",
    "resolve_jobs",
    "run_sweep",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "corrupt_file",
    "RunJournal",
    "sweep_config",
    "RunReport",
    "SweepError",
    "WorkerCrashError",
    "ChunkTimeoutError",
    "ChunkFailedError",
    "ResumeError",
]
