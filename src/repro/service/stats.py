"""Thread-safe request statistics for the service (``GET /stats``).

Counters plus a fixed-size latency window per endpoint; percentiles are
computed on demand from the window, so a long-running server reports
*recent* p50/p99 rather than an all-time average that no longer
describes current behaviour.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

import numpy as np

__all__ = ["ServiceStats"]

# Latencies kept per endpoint.  4096 samples bound both memory and the
# percentile cost while still covering several seconds at the QPS the
# bench sustains.
LATENCY_WINDOW = 4096


class _Window:
    """Fixed-size ring of the most recent latency samples (ms)."""

    __slots__ = ("buf", "n", "i")

    def __init__(self) -> None:
        self.buf = np.empty(LATENCY_WINDOW, dtype=np.float64)
        self.n = 0   # filled samples
        self.i = 0   # next write slot

    def add(self, ms: float) -> None:
        self.buf[self.i] = ms
        self.i = (self.i + 1) % LATENCY_WINDOW
        self.n = min(self.n + 1, LATENCY_WINDOW)

    def percentiles(self) -> Dict[str, float]:
        if self.n == 0:
            return {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        window = self.buf[: self.n]
        p50, p99 = np.percentile(window, [50.0, 99.0])
        return {
            "p50_ms": round(float(p50), 3),
            "p99_ms": round(float(p99), 3),
            "max_ms": round(float(window.max()), 3),
        }


class ServiceStats:
    """Counters and latency windows of one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._windows: Dict[str, _Window] = {}
        self._batch_flushes = 0
        self._batched_requests = 0
        self._max_batch = 0
        self._cache_hits = 0
        self._cache_misses = 0

    # -- recording -----------------------------------------------------
    def observe(self, endpoint: str, ms: float,
                error: bool = False) -> None:
        """One handled request: latency plus outcome."""
        with self._lock:
            self._requests[endpoint] = (
                self._requests.get(endpoint, 0) + 1
            )
            if error:
                self._errors[endpoint] = (
                    self._errors.get(endpoint, 0) + 1
                )
            window = self._windows.get(endpoint)
            if window is None:
                window = self._windows[endpoint] = _Window()
            window.add(ms)

    def record_batch(self, size: int) -> None:
        """One batched evaluate of ``size`` ``/select`` requests."""
        with self._lock:
            self._batch_flushes += 1
            self._batched_requests += size
            self._max_batch = max(self._max_batch, size)

    def record_cache(self, hit: bool) -> None:
        """One ``/sweep`` slice-cache probe."""
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> dict:
        """One consistent JSON-safe view (the ``/stats`` body)."""
        with self._lock:
            endpoints = {}
            for name in sorted(self._requests):
                entry = {
                    "requests": self._requests[name],
                    "errors": self._errors.get(name, 0),
                }
                entry.update(self._windows[name].percentiles())
                endpoints[name] = entry
            flushes = self._batch_flushes
            mean_size = (
                self._batched_requests / flushes if flushes else 0.0
            )
            return {
                "uptime_s": round(
                    time.monotonic() - self._started, 3
                ),
                "endpoints": endpoints,
                "batcher": {
                    "flushes": flushes,
                    "requests": self._batched_requests,
                    "mean_size": round(mean_size, 3),
                    "max_size": self._max_batch,
                },
                "sweep_cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                },
            }
