"""Sharded, fault-tolerant sweep execution.

:func:`run_sweep` is the dataset-scale execution engine behind
:func:`repro.core.dataset.sweep`: it partitions spec indices into
contiguous chunks, runs them through one chunk loop — in-process at
``jobs=1``, on a self-managed worker crew at ``jobs > 1`` — and merges
the per-chunk results back in index order.  Each chunk is scored in
passes of at most ``_SUB_CHUNK`` specs.  Fresh bounds give a crew
``_CHUNKS_PER_JOB`` chunks per worker; in-process, a sweep of up to
``_CHUNKS_PER_JOB × _SUB_CHUNK`` specs gets one pass per chunk and a
larger one ``_CHUNKS_PER_JOB`` chunks.  Resumed bounds come from the
journal and may span several passes.  Chunks are columnar
:class:`~repro.core.table.SweepTable` slices — workers ship typed
column arrays, not dict lists — and the merge is
:meth:`SweepTable.concat`, which preserves first-seen category order
across chunk boundaries, so the merged table is row-for-row identical
regardless of ``jobs``, cache state, faults or resume history.

The crew has per-chunk deadlines, capped exponential-backoff retries
on respawned workers, pool-death detection and graceful degradation: a
chunk that keeps failing is re-executed in-process by the same function
that runs every chunk at ``jobs=1``, so one poisoned chunk slows the
sweep instead of aborting it.  Chunk execution is a pure function of
``(dataset, bounds, args)``, so every retry and fallback produces the
same chunk table — the golden resilience suite pins bit-identity under
every injected-fault scenario.

``run_dir`` makes a run resumable: completed chunks are journalled with
their table shards in one pack (:mod:`repro.pipeline.journal`) and
``run_sweep(..., resume=True)`` skips them.  ``faults`` arms a
deterministic :class:`~repro.pipeline.faults.FaultPlan` (also via the
``REPRO_FAULTS`` environment variable) for the chaos suites.  A
:class:`~repro.pipeline.report.RunReport` passed via ``report=`` is
filled with retries, timeouts, degraded chunks, quarantined cache
entries and per-phase wall-clock.

Every chunk is scored straight from its specs
(:func:`~repro.core.dataset.fused_spec_table`).  With a cache, each
sub-chunk first fetches its specs' scoring records, derives only what
they lack, and writes back the records that grew.  Workers share one
:class:`~repro.pipeline.cache.InstanceCache` pack; records are
content-keyed and appended under a lock, so the only cost of a cache
race is a redundant rescoring, never a corrupt record — and a corrupt
record found on disk is quarantined and rescored, never trusted.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.dataset import Dataset, SweepTable, fused_spec_table
from ..devices.base import Device
from .cache import InstanceCache
from .faults import FaultPlan
from .journal import RunJournal, sweep_config
from .report import ChunkFailedError, RunReport

__all__ = ["run_sweep", "resolve_jobs"]

# Chunks per worker: small enough to load-balance uneven spec costs,
# large enough to amortise task dispatch and the per-chunk journal
# appends.  In-process there is nothing to balance, so a fresh sweep
# gets no more chunks than it has ``_SUB_CHUNK``-spec passes.
_CHUNKS_PER_JOB = 4

# Sub-chunk size: specs scored per vectorised grid evaluation — large
# enough to amortise the batch setup, small enough for responsive
# progress reporting.
_SUB_CHUNK = 16

# Resilient dispatch policy defaults.  Retries are per chunk, across all
# incident kinds; after ``max_retries`` re-dispatches the chunk degrades
# to an in-process re-execution.
_DEFAULT_MAX_RETRIES = 2
_BACKOFF_BASE = 0.05   # seconds; doubled per retry of the same chunk
_BACKOFF_CAP = 2.0
_POLL_INTERVAL = 0.2   # parent event-loop wake-up ceiling


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``0``/``None``/negative auto-detects."""
    if jobs is None or jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


def _chunk_bounds(n: int, n_chunks: int) -> List[tuple]:
    """Contiguous ``[lo, hi)`` index ranges covering ``range(n)``."""
    n_chunks = max(1, min(n_chunks, n))
    bounds = []
    for c in range(n_chunks):
        lo = (c * n) // n_chunks
        hi = ((c + 1) * n) // n_chunks
        if hi > lo:
            bounds.append((lo, hi))
    return bounds


def _chunk_table(
    dataset: Dataset,
    lo: int,
    hi: int,
    devices: Sequence[Device],
    best_only: bool,
    formats,
    seed: int,
    cache: Optional[InstanceCache],
    precision: str,
    progress_put: Optional[Callable[[int], None]] = None,
) -> SweepTable:
    """Columnar table for specs ``lo..hi`` with cache write-back, scored
    in ``_SUB_CHUNK``-sized vectorised grid passes.

    Each sub-chunk goes through one fused spec-to-grid pass seeded with
    its specs' cached scoring records (a spec with a complete record
    generates nothing); records that grew are written back after
    scoring.  Crew workers and the in-process path share this function
    verbatim, so a chunk's table is identical no matter where (or how
    many times) it executes.
    """
    parts: List[SweepTable] = []
    for sub_lo in range(lo, hi, _SUB_CHUNK):
        sub_hi = min(sub_lo + _SUB_CHUNK, hi)
        specs = dataset.specs[sub_lo:sub_hi]
        records = None
        if cache is not None:
            records = [cache.fetch(spec, dataset.max_nnz) for spec in specs]
        part = fused_spec_table(
            dataset, sub_lo, sub_hi, devices,
            best_only=best_only, formats=formats, seed=seed,
            precision=precision, records=records,
        )
        if cache is not None:
            cache.store(specs, dataset.max_nnz, records)
        parts.append(part)
        if progress_put is not None:
            progress_put(sub_hi - sub_lo)
    return parts[0] if len(parts) == 1 else SweepTable.concat(parts)


# -- resilient dispatch ------------------------------------------------------
def _worker_main(worker_id, task_conn, result_conn, init_args, fault_spec,
                 want_progress) -> None:
    """Crew worker loop: receive ``(chunk_id, lo, hi, attempt)`` tasks,
    send ``("ok", ...)``/``("error", ...)`` results (plus ``progress``
    ticks) back on a dedicated pipe.  ``None`` is the shutdown sentinel.
    """
    (specs, max_nnz, name, devices, best_only, formats, seed, cache_dir,
     precision) = init_args
    cache = InstanceCache(cache_dir) if cache_dir else None
    dataset = Dataset(specs, max_nnz=max_nnz, name=name)
    plan = FaultPlan.from_spec(fault_spec)
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if task is None:
            return
        chunk_id, lo, hi, attempt = task
        try:
            if plan is not None:
                keys = None
                if cache_dir and plan.matching(chunk_id, attempt,
                                               kinds=("corrupt",)):
                    from .cache import spec_key
                    keys = [
                        spec_key(dataset.specs[i], dataset.max_nnz)
                        for i in range(lo, hi)
                    ]
                plan.fire(chunk_id, attempt, cache_dir=cache_dir,
                          keys=keys)
            put = None
            if want_progress:
                def put(count, _cid=chunk_id):
                    result_conn.send(("progress", _cid, count))
            table = _chunk_table(dataset, lo, hi, devices, best_only,
                                 formats, seed, cache, precision,
                                 progress_put=put)
            quarantined = cache.quarantined if cache is not None else 0
            result_conn.send(("ok", chunk_id, table, quarantined))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            try:
                result_conn.send(
                    ("error", chunk_id, f"{type(exc).__name__}: {exc}")
                )
            except (OSError, ValueError):
                os._exit(1)


class _ChunkState:
    """Dispatch bookkeeping for one chunk: attempt count + backoff."""

    __slots__ = ("chunk_id", "lo", "hi", "attempts", "eligible_at")

    def __init__(self, chunk_id: int, lo: int, hi: int):
        self.chunk_id = chunk_id
        self.lo = lo
        self.hi = hi
        self.attempts = 0
        self.eligible_at = 0.0

    @property
    def size(self) -> int:
        return self.hi - self.lo


class _CrewWorker:
    """One crew process plus its task/result pipes."""

    def __init__(self, ctx, uid, init_args, fault_spec, want_progress):
        self.uid = uid
        task_recv, self.task_send = ctx.Pipe(duplex=False)
        self.result_recv, result_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(uid, task_recv, result_send, init_args, fault_spec,
                  want_progress),
            daemon=True,
        )
        self.process.start()
        # Close the worker-side ends in the parent so fds aren't leaked.
        task_recv.close()
        result_send.close()
        self.chunk: Optional[_ChunkState] = None
        self.deadline: Optional[float] = None

    def assign(self, state: _ChunkState, now: float,
               chunk_timeout: Optional[float]) -> None:
        self.chunk = state
        self.deadline = (
            now + chunk_timeout if chunk_timeout is not None else None
        )
        self.task_send.send(
            (state.chunk_id, state.lo, state.hi, state.attempts)
        )

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        """Graceful shutdown request (sentinel); never raises."""
        try:
            self.task_send.send(None)
        except (OSError, ValueError):
            pass

    def kill(self) -> None:
        """Hard teardown: terminate, escalate to SIGKILL, reap, close."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(2.0)
            if self.process.is_alive():
                self.process.kill()
        self.process.join(2.0)
        for conn in (self.task_send, self.result_recv):
            try:
                conn.close()
            except OSError:
                pass


class _ProgressMeter:
    """Monotonic sweep progress under retries.

    Workers report sub-chunk spec counts; retried chunks re-report, so
    per-chunk tallies are capped at the chunk size and the published
    total (which includes resumed chunks) only ever grows, reaching
    exactly ``n`` on completion.
    """

    def __init__(self, sizes: Dict[int, int], n: int, base: int,
                 progress: Optional[Callable[[int, int], None]]):
        self._acc = {cid: 0 for cid in sizes}
        self._sizes = sizes
        self._n = n
        self._done = base
        self._progress = progress
        if progress is not None and base:
            progress(base, n)

    def add(self, chunk_id: int, count: int) -> None:
        if self._progress is None or chunk_id not in self._acc:
            return
        before = min(self._acc[chunk_id], self._sizes[chunk_id])
        self._acc[chunk_id] += count
        after = min(self._acc[chunk_id], self._sizes[chunk_id])
        if after > before:
            self._done += after - before
            self._progress(self._done, self._n)

    def complete(self, chunk_id: int) -> None:
        self.add(chunk_id, self._sizes.get(chunk_id, 0))


class _ResilientDispatch:
    """Parent-side event loop for the resilient worker crew."""

    def __init__(self, ctx, jobs, init_args, plan, want_progress,
                 chunk_timeout, max_retries, report, meter,
                 run_local, on_chunk_done,
                 backoff_base=_BACKOFF_BASE, backoff_cap=_BACKOFF_CAP):
        self.ctx = ctx
        self.jobs = jobs
        self.init_args = init_args
        self.fault_spec = plan.to_spec() if plan is not None else None
        self.want_progress = want_progress
        self.chunk_timeout = chunk_timeout
        self.max_retries = max_retries
        self.report = report
        self.meter = meter
        self.run_local = run_local
        self.on_chunk_done = on_chunk_done
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.workers: List[_CrewWorker] = []
        self._uid = 0
        self._spawned = 0
        # Final cache-quarantine tallies per worker generation (workers
        # report cumulative counts with each completed chunk).
        self._quarantine: Dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------
    def _spawn(self) -> _CrewWorker:
        self._uid += 1
        if self._spawned >= self.jobs:
            # Every spawn beyond the initial crew is a replacement for a
            # crashed, hung or wedged worker.
            self.report.worker_respawns += 1
        self._spawned += 1
        worker = _CrewWorker(self.ctx, self._uid, self.init_args,
                             self.fault_spec, self.want_progress)
        return worker

    def _retire(self, worker: _CrewWorker) -> None:
        worker.kill()
        if worker in self.workers:
            self.workers.remove(worker)

    def close(self) -> None:
        """Tear the crew down unconditionally — no zombie processes, no
        dangling pipes, whatever state the dispatch loop died in."""
        for worker in self.workers:
            worker.stop()
        deadline = time.monotonic() + 2.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in list(self.workers):
            self._retire(worker)
        self.report.cache_quarantined += sum(self._quarantine.values())

    # -- failure policy --------------------------------------------------
    def _fail(self, worker: _CrewWorker, kind: str, detail: str,
              pending: deque, degraded: List[_ChunkState]) -> None:
        state = worker.chunk
        worker.chunk = None
        worker.deadline = None
        state.attempts += 1
        self.report.record_incident(
            kind, state.chunk_id, state.attempts - 1, detail
        )
        if state.attempts > self.max_retries:
            degraded.append(state)
            self.report.record_degraded(state.chunk_id)
        else:
            state.eligible_at = time.monotonic() + min(
                self.backoff_base * 2 ** (state.attempts - 1),
                self.backoff_cap,
            )
            pending.append(state)

    # -- message handling ------------------------------------------------
    def _drain(self, worker: _CrewWorker, pending: deque,
               degraded: List[_ChunkState]) -> None:
        """Consume every buffered message from one worker's pipe."""
        while True:
            try:
                if not worker.result_recv.poll(0):
                    return
                message = worker.result_recv.recv()
            except (EOFError, OSError):
                return
            tag = message[0]
            if tag == "progress":
                _, chunk_id, count = message
                self.meter.add(chunk_id, count)
            elif tag == "ok":
                _, _, table, quarantined = message
                self._quarantine[worker.uid] = int(quarantined)
                state = worker.chunk
                worker.chunk = None
                worker.deadline = None
                self.on_chunk_done(state, table)
            elif worker.chunk is not None:
                # "error": the worker caught a chunk exception and
                # stays alive for the next assignment.
                _, chunk_id, detail = message
                self._fail(worker, "error", detail, pending, degraded)

    # -- main loop -------------------------------------------------------
    def run(self, states: List[_ChunkState]) -> None:
        """Run ``states`` to completion; every finished chunk goes to
        ``on_chunk_done``."""
        pending: deque = deque(sorted(states, key=lambda s: s.chunk_id))
        degraded: List[_ChunkState] = []
        try:
            while pending or any(w.chunk is not None for w in self.workers):
                now = time.monotonic()
                # Retire idle workers that died on their own (e.g. a
                # crash fault firing after the result was sent).
                for worker in list(self.workers):
                    if worker.chunk is None and not worker.alive():
                        self._retire(worker)
                # Assign eligible chunks to idle (or newly spawned)
                # workers.
                eligible = sorted(
                    (s for s in pending if s.eligible_at <= now),
                    key=lambda s: s.chunk_id,
                )
                idle = [w for w in self.workers if w.chunk is None]
                for state in eligible:
                    if idle:
                        worker = idle.pop(0)
                    elif len(self.workers) < self.jobs:
                        worker = self._spawn()
                        self.workers.append(worker)
                    else:
                        break
                    pending.remove(state)
                    worker.assign(state, now, self.chunk_timeout)
                # Wait for results (bounded by the nearest deadline or
                # backoff expiry so hangs are noticed promptly).
                timeout = _POLL_INTERVAL
                for worker in self.workers:
                    if worker.deadline is not None:
                        timeout = min(timeout, worker.deadline - now)
                for state in pending:
                    timeout = min(timeout, state.eligible_at - now)
                timeout = max(0.005, timeout)
                conns = [w.result_recv for w in self.workers]
                if conns:
                    ready = _conn_wait(conns, timeout)
                else:
                    time.sleep(timeout)
                    ready = []
                by_conn = {w.result_recv: w for w in self.workers}
                for conn in ready:
                    worker = by_conn.get(conn)
                    if worker is not None:
                        self._drain(worker, pending, degraded)
                # Crash detection: an assigned worker that died mid-chunk.
                # Buffered messages are drained first — the result may
                # have made it out before the process died.
                for worker in list(self.workers):
                    if worker.chunk is not None and not worker.alive():
                        self._drain(worker, pending, degraded)
                        if worker.chunk is not None:
                            self._fail(
                                worker, "crash",
                                "worker process died (exitcode "
                                f"{worker.process.exitcode})",
                                pending, degraded,
                            )
                        self._retire(worker)
                # Deadline enforcement: kill and replace hung workers.
                if self.chunk_timeout is not None:
                    now = time.monotonic()
                    for worker in list(self.workers):
                        if (worker.chunk is not None
                                and worker.deadline is not None
                                and now >= worker.deadline):
                            self._fail(
                                worker, "timeout",
                                f"chunk {worker.chunk.chunk_id} "
                                f"exceeded the {self.chunk_timeout}s "
                                "deadline",
                                pending, degraded,
                            )
                            self._retire(worker)
            # Graceful degradation: chunks that failed every retry run
            # in-process — same chunk function, same table.
            if degraded:
                with self.report.phase("degraded"):
                    for state in sorted(degraded,
                                        key=lambda s: s.chunk_id):
                        self.on_chunk_done(state, self.run_local(state))
        finally:
            self.close()


def run_sweep(
    dataset: Dataset,
    devices: Sequence[Device],
    best_only: bool = True,
    formats=None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    cache: Optional[InstanceCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    precision: str = "fp64",
    run_dir: Optional[str] = None,
    resume: bool = False,
    faults: Optional[Union[str, FaultPlan]] = None,
    chunk_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    report: Optional[RunReport] = None,
) -> SweepTable:
    """Sharded, cached, fault-tolerant sweep (see module docstring).

    ``cache`` takes precedence over ``cache_dir``; with ``jobs != 1`` the
    cache must be directory-backed, so pass ``cache_dir`` (each worker
    opens its own handle onto the shared directory).  ``precision``
    scores every cell at fp64 (default) or fp32 — the experiment runner
    sweeps one precision slice at a time.

    Resilience controls: ``run_dir`` journals completed chunks, their
    shards in one ``shards.rpak`` pack, for ``resume=True``;
    ``chunk_timeout`` is the per-chunk deadline
    in seconds for crew workers (``None`` → no deadline);
    ``max_retries`` caps re-dispatches per chunk before the in-process
    fallback; ``faults`` arms a deterministic :class:`FaultPlan` (spec
    string or instance; default: the ``REPRO_FAULTS`` environment
    variable) — crew workers fire every kind, the in-process path only
    ``stop``; ``report`` is a :class:`RunReport` filled in place.  A
    non-positive ``chunk_timeout`` or a negative ``max_retries`` raises
    :class:`ValueError` before any work starts.

    ``progress`` fires monotonically as specs complete — per completed
    ``_SUB_CHUNK``-sized sub-chunk, and never backwards across retries;
    the callback must tolerate being invoked from the dispatch loop.
    """
    rep = report if report is not None else RunReport()
    journal_holder: List[Optional[RunJournal]] = [None]
    try:
        with rep.phase("total"):
            table = _run_sweep_inner(
                dataset, devices, best_only, formats, seed, jobs,
                cache_dir, cache, progress, precision,
                run_dir, resume, faults, chunk_timeout,
                max_retries, rep, journal_holder,
            )
        rep.status = "complete"
        if journal_holder[0] is not None:
            journal_holder[0].record_end("complete")
        return table
    except KeyboardInterrupt:
        rep.status = "interrupted"
        if journal_holder[0] is not None:
            journal_holder[0].record_end("interrupted")
        raise
    except BaseException:
        rep.status = "failed"
        if journal_holder[0] is not None:
            journal_holder[0].record_end("failed")
        raise


def _run_sweep_inner(
    dataset, devices, best_only, formats, seed, jobs, cache_dir, cache,
    progress, precision, run_dir, resume, faults,
    chunk_timeout, max_retries, rep, journal_holder,
) -> SweepTable:
    if resume and run_dir is None:
        raise ValueError("resume=True requires run_dir")
    if chunk_timeout is not None and not chunk_timeout > 0:
        raise ValueError(
            "chunk_timeout (--chunk-timeout) must be a positive number "
            f"of seconds, got {chunk_timeout}"
        )
    if max_retries is None:
        max_retries = _DEFAULT_MAX_RETRIES
    elif max_retries < 0:
        raise ValueError(
            f"max_retries (--max-retries) must be >= 0, got {max_retries}"
        )
    n = len(dataset)
    jobs = min(resolve_jobs(jobs), max(n, 1))
    if cache is None and cache_dir is not None:
        cache = InstanceCache(cache_dir)
    if isinstance(faults, FaultPlan):
        plan = faults
    else:
        plan = FaultPlan.from_spec(
            faults or os.environ.get("REPRO_FAULTS")
        )
    rep.engine = {
        "jobs": jobs, "precision": precision,
        "n_specs": n, "max_retries": max_retries,
        "chunk_timeout": chunk_timeout,
        "journalled": run_dir is not None, "resumed": bool(resume),
    }

    # -- chunk bounds: journalled on resume, fresh otherwise -------------
    journal: Optional[RunJournal] = None
    completed: Dict[int, SweepTable] = {}
    n_chunks = jobs * _CHUNKS_PER_JOB
    if jobs == 1:
        n_chunks = min(n_chunks, -(-n // _SUB_CHUNK))
    bounds = _chunk_bounds(n, n_chunks)
    if run_dir is not None:
        config = sweep_config(dataset, devices, best_only, formats, seed,
                              precision)
        if resume:
            journal = RunJournal.load(run_dir)
            journal.check_config(config)
            bounds = journal.bounds
            with rep.phase("resume_load"):
                completed = journal.completed_chunks()
            rep.chunks_resumed = len(completed)
        else:
            journal = RunJournal.create(run_dir, config, bounds)
        journal_holder[0] = journal
    rep.chunks_total = len(bounds)
    states = [
        _ChunkState(chunk_id, lo, hi)
        for chunk_id, (lo, hi) in enumerate(bounds)
        if chunk_id not in completed
    ]
    base = sum(hi - lo for cid, (lo, hi) in enumerate(bounds)
               if cid in completed)
    meter = _ProgressMeter({s.chunk_id: s.size for s in states}, n, base,
                           progress)
    results: Dict[int, SweepTable] = dict(completed)

    def on_chunk_done(state: _ChunkState, table: SweepTable) -> None:
        """Every finished chunk, wherever it ran, lands here."""
        results[state.chunk_id] = table
        rep.chunks_completed += 1
        meter.complete(state.chunk_id)
        if journal is not None:
            journal.write_shard(state.chunk_id, table)
            journal.record_chunk(
                state.chunk_id, state.lo, state.hi, state.attempts
            )
        if plan is not None and plan.stop_after(state.chunk_id):
            raise KeyboardInterrupt(
                f"injected stop after chunk {state.chunk_id}"
            )

    def run_local(state: _ChunkState) -> SweepTable:
        return _chunk_table(
            dataset, state.lo, state.hi, devices, best_only, formats, seed,
            cache, precision,
            progress_put=functools.partial(meter.add, state.chunk_id),
        )

    try:
        with rep.phase("dispatch"):
            if jobs == 1:
                for state in states:
                    on_chunk_done(state, run_local(state))
            else:
                if cache is not None and cache_dir is None:
                    cache_dir = str(cache.root)
                # ``fork`` keeps start-up cheap where available; ``spawn``
                # elsewhere.
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"
                )
                init_args = (
                    dataset.specs, dataset.max_nnz, dataset.name,
                    list(devices), best_only, formats, seed, cache_dir,
                    precision,
                )
                _ResilientDispatch(
                    ctx, jobs, init_args, plan, progress is not None,
                    chunk_timeout, max_retries, rep, meter, run_local,
                    on_chunk_done,
                ).run(states)
    finally:
        # The parent handle serves the in-process path and degraded crew
        # chunks; crew workers report their own counts.
        if cache is not None:
            rep.cache_quarantined += cache.quarantined

    missing = [cid for cid in range(len(bounds)) if cid not in results]
    if missing:
        raise ChunkFailedError(
            f"chunks {missing} produced no result; the sweep cannot "
            "be merged"
        )
    with rep.phase("merge"):
        return SweepTable.concat(
            [results[chunk_id] for chunk_id in sorted(results)]
        )
