"""Reference parallel dispatch: a plain ``multiprocessing.Pool``.

Before the resilient worker crew became the only parallel dispatcher, a
sweep could fan its chunks out over a plain pool: the same chunk bounds
and the same chunk function, but no retries, deadlines, journal or
fault injection.  :func:`pool_sweep` is that dispatch path, minus its
progress reporting, so the crew's tables can be compared with it and its
fault-free overhead timed against it (``benchmarks/bench_resilience.py``).
"""

import multiprocessing
from typing import Optional, Sequence

from repro.core.dataset import Dataset, SweepTable
from repro.pipeline.cache import InstanceCache
from repro.pipeline.engine import (
    _CHUNKS_PER_JOB, _chunk_bounds, _chunk_table, resolve_jobs,
)

# Worker-side state, initialised once per pool process.
_WORKER: dict = {}


def _init_worker(specs, max_nnz, name, devices, best_only, formats, seed,
                 cache_dir, precision) -> None:
    cache = InstanceCache(cache_dir) if cache_dir else None
    _WORKER["dataset"] = Dataset(specs, max_nnz=max_nnz, name=name)
    _WORKER["args"] = (
        devices, best_only, formats, seed, cache, precision
    )


def _run_chunk(task):
    chunk_id, (lo, hi) = task
    return chunk_id, _chunk_table(_WORKER["dataset"], lo, hi,
                                  *_WORKER["args"])


def pool_sweep(
    dataset: Dataset,
    devices: Sequence,
    jobs: int = 2,
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    precision: str = "fp64",
) -> SweepTable:
    """Sweep ``dataset`` over a plain pool of ``jobs`` workers.

    Teardown is unconditional: the pool is terminated and joined in a
    ``finally``, so a worker exception or Ctrl-C never leaves a zombie
    pool behind.
    """
    n = len(dataset)
    jobs = min(resolve_jobs(jobs), max(n, 1))
    bounds = _chunk_bounds(n, jobs * _CHUNKS_PER_JOB)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    init_args = (
        dataset.specs, dataset.max_nnz, dataset.name, list(devices),
        best_only, formats, seed, cache_dir, precision,
    )
    results = {}
    pool = ctx.Pool(processes=jobs, initializer=_init_worker,
                    initargs=init_args)
    try:
        for chunk_id, table in pool.imap_unordered(
            _run_chunk, list(enumerate(bounds))
        ):
            results[chunk_id] = table
    finally:
        pool.terminate()
        pool.join()
    return SweepTable.concat([results[c] for c in sorted(results)])
