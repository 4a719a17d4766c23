"""MicroBatcher unit tests: coalescing, demux, errors, lifecycle."""

import threading
import time

import pytest

from repro.service import MicroBatcher

from .conftest import Gate, wait_queued


class _Recorder:
    """evaluate() stub that records every batch it receives."""

    def __init__(self, fn=None):
        self.batches = []
        self.lock = threading.Lock()
        self.fn = fn or (lambda item: item * 10)

    def __call__(self, items):
        with self.lock:
            self.batches.append(list(items))
        return [self.fn(item) for item in items]


def _submit_concurrently(batcher, gate, items):
    """Fire one submit() per thread; return results in item order.

    ``items[0]`` goes first and its flush is held at ``gate`` until
    every other item is queued, so the rest share flushes."""
    results = [None] * len(items)
    errors = []

    def worker(i, item):
        try:
            results[i] = batcher.submit(item)
        except BaseException as exc:  # noqa: BLE001 — collected
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, item))
        for i, item in enumerate(items)
    ]
    threads[0].start()
    assert gate.entered.wait(timeout=30)
    for t in threads[1:]:
        t.start()
    wait_queued(batcher, len(items) - 1)
    gate.open()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    return results, errors


class TestValidation:
    def test_rejects_zero_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda items: items, max_batch=0)


class TestCoalescing:
    def test_single_submit_returns_its_result(self):
        evaluate = _Recorder()
        batcher = MicroBatcher(evaluate)
        try:
            assert batcher.submit(7) == 70
        finally:
            batcher.close()
        assert evaluate.batches == [[7]]

    def test_concurrent_submits_coalesce_and_demux(self):
        evaluate = _Recorder()
        gate = Gate(evaluate)
        batcher = MicroBatcher(gate, max_batch=64)
        try:
            items = list(range(16))
            results, errors = _submit_concurrently(batcher, gate, items)
        finally:
            batcher.close()
        assert not errors
        assert results == [item * 10 for item in items]
        # The first flush held the gate; the 15 queued behind it share
        # one flush, demuxed back in submit order.
        assert [len(b) for b in evaluate.batches] == [1, 15]

    def test_max_batch_caps_flush_size(self):
        evaluate = _Recorder()
        gate = Gate(evaluate)
        batcher = MicroBatcher(gate, max_batch=4)
        try:
            results, errors = _submit_concurrently(
                batcher, gate, list(range(10))
            )
        finally:
            batcher.close()
        assert not errors
        assert results == [item * 10 for item in range(10)]
        assert [len(b) for b in evaluate.batches] == [1, 4, 4, 1]

    def test_zero_window_flushes_immediately(self):
        """No window holds a batch open: each lone submit is its own
        flush."""
        evaluate = _Recorder()
        batcher = MicroBatcher(evaluate)
        try:
            assert batcher.submit(3) == 30
            assert batcher.submit(4) == 40
        finally:
            batcher.close()
        assert evaluate.batches == [[3], [4]]


class TestErrors:
    def test_evaluate_exception_reaches_every_waiter(self):
        def boom(items):
            raise RuntimeError("model exploded")

        gate = Gate(boom)
        batcher = MicroBatcher(gate)
        try:
            results, errors = _submit_concurrently(
                batcher, gate, list(range(5))
            )
        finally:
            batcher.close()
        assert results == [None] * 5
        assert len(errors) == 5
        assert all("model exploded" in str(e) for e in errors)

    def test_wrong_result_count_is_an_error(self):
        batcher = MicroBatcher(lambda items: [])
        try:
            with pytest.raises(RuntimeError, match="0 results"):
                batcher.submit(1)
        finally:
            batcher.close()


class TestLifecycle:
    def test_close_drains_queued_work(self):
        evaluate = _Recorder()
        gate = Gate(evaluate)
        batcher = MicroBatcher(gate, max_batch=2)
        results, errors = [], []

        def worker(item):
            try:
                results.append(batcher.submit(item))
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        threads[0].start()
        assert gate.entered.wait(timeout=30)
        for t in threads[1:]:
            t.start()
        wait_queued(batcher, 5)
        # close() begins while one flush is held and five requests wait.
        closer = threading.Thread(target=batcher.close)
        closer.start()
        deadline = time.monotonic() + 30
        while not batcher._closed:
            assert time.monotonic() < deadline, "close() never began"
            time.sleep(0.001)
        gate.open()
        closer.join(timeout=30)
        assert not closer.is_alive()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert not errors
        assert sorted(results) == [i * 10 for i in range(6)]
        assert [len(b) for b in evaluate.batches] == [1, 2, 2, 1]

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda items: list(items))
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda items: list(items))
        batcher.close()
        batcher.close()

    def test_records_batch_sizes(self):
        from repro.service import ServiceStats

        stats = ServiceStats()
        batcher = MicroBatcher(lambda items: list(items), stats=stats)
        try:
            batcher.submit(1)
            batcher.submit(2)
        finally:
            batcher.close()
        snap = stats.snapshot()["batcher"]
        assert snap["flushes"] == 2
        assert snap["requests"] == 2
