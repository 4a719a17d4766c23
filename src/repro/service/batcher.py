"""Micro-batching request coalescer.

Concurrent ``/select`` requests land here one at a time; the batcher
issues **one** batched evaluate per flush over everything queued (up to
a max batch size), demuxing the per-request results back to the
waiting handler threads.  A flush starts as soon as the flusher is
free, and requests that arrive during a flush form the next batch, so
a lone request never waits and concurrent ones still share a call.

The contract that makes this safe is the library's: the selector's
batch paths are bit-identical per entry to the scalar calls for every
batch size, so coalescing changes *when* work happens but never *what*
any request receives — a request batched with 63 strangers gets exactly
the bytes a solo call would have produced.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

__all__ = ["MicroBatcher"]


class _Pending:
    __slots__ = ("item", "event", "result", "error")

    def __init__(self, item) -> None:
        self.item = item
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Coalesce concurrent calls into batched ``evaluate`` invocations.

    Parameters
    ----------
    evaluate:
        ``evaluate(items) -> results`` with ``len(results) ==
        len(items)`` and result ``i`` depending only on item ``i``.
    max_batch:
        The most requests one flush evaluates; the rest wait for the
        next flush.
    stats:
        Optional :class:`~repro.service.stats.ServiceStats`; every
        flush records its batch size.
    """

    def __init__(
        self,
        evaluate: Callable[[Sequence], List],
        max_batch: int = 64,
        stats=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._evaluate = evaluate
        self.max_batch = max_batch
        self._stats = stats
        self._cond = threading.Condition()
        self._pending: List[_Pending] = []
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # -- caller side ---------------------------------------------------
    def submit(self, item):
        """Block until the batch containing ``item`` is evaluated and
        return this item's result (exceptions from ``evaluate``
        propagate to every caller of the failed batch)."""
        pending = _Pending(item)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._pending.append(pending)
            self._cond.notify_all()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending.result

    def close(self) -> None:
        """Flush whatever is queued, then stop the flusher thread.

        Idempotent; ``submit`` raises afterwards.  Called by the
        server's graceful-shutdown path after the listener has drained.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()

    # -- flusher thread ------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
            self._flush(batch)

    def _flush(self, batch: List[_Pending]) -> None:
        try:
            results = self._evaluate([p.item for p in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"evaluate returned {len(results)} results for "
                    f"{len(batch)} items"
                )
            for pending, result in zip(batch, results):
                pending.result = result
        except BaseException as exc:  # demuxed to every waiter
            for pending in batch:
                pending.error = exc
        finally:
            if self._stats is not None:
                self._stats.record_batch(len(batch))
            for pending in batch:
                pending.event.set()
