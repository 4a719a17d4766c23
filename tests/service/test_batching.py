"""Batching guarantees of the one-loop server.

The event loop is the batcher: the ``/select`` requests read in one
poll share one ``ServiceApp.evaluate`` call per ``max_batch`` slice,
and a lone request never waits.  The tests hold one evaluate call at a
:class:`~tests.service.conftest.Gate`, which holds the whole loop, so
requests sent meanwhile are read together once it opens.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import ReproService, ServiceApp

from .conftest import SETTLE_S, connect, expected_replies, \
    feature_payloads, hold_evaluate, select_request


def _held_round(svc, gate, payloads):
    """Send ``payloads[0]`` and hold its evaluate; send the rest on
    their own connections meanwhile; open the gate.  Returns every
    ``(status, body)`` in payload order."""
    clients = [connect(svc) for _ in payloads]
    try:
        clients[0].send(select_request(payloads[0]))
        assert gate.entered.wait(timeout=30)
        for client, features in zip(clients[1:], payloads[1:]):
            client.send(select_request(features))
        time.sleep(SETTLE_S)
        gate.open()
        return [client.select_reply() for client in clients]
    finally:
        for client in clients:
            client.close()


class TestValidation:
    def test_rejects_zero_max_batch(self, trained_selector, corpus_table):
        with pytest.raises(ValueError, match="max_batch"):
            ServiceApp(trained_selector, corpus_table, max_batch=0)


class TestCoalescing:
    def test_lone_request_is_its_own_call(self, app):
        gate = hold_evaluate(app)
        gate.open()
        with ReproService(app) as svc:
            client = connect(svc)
            client.send(select_request(feature_payloads(1)[0]))
            status, _ = client.select_reply()
            client.close()
        assert status == 200
        assert gate.sizes == [1]

    def test_sequential_requests_never_wait_for_company(self, app):
        gate = hold_evaluate(app)
        gate.open()
        with ReproService(app) as svc:
            client = connect(svc)
            for features in feature_payloads(3):
                client.send(select_request(features))
                assert client.select_reply()[0] == 200
            client.close()
        assert gate.sizes == [1, 1, 1]

    def test_requests_during_held_call_share_the_next_one(
            self, app, trained_selector):
        n = 8
        gate = hold_evaluate(app)
        payloads = feature_payloads(n, seed=5)
        with ReproService(app) as svc:
            replies = _held_round(svc, gate, payloads)
            stats = app.stats_snapshot()
        assert gate.sizes == [1, n - 1]
        assert stats["batcher"]["max_size"] == n - 1
        assert stats["batcher"]["flushes"] == 2
        assert stats["batcher"]["requests"] == n
        assert [status for status, _ in replies] == [200] * n
        # Bit-identical: == on floats round-tripped through JSON.
        assert [body for _, body in replies] == expected_replies(
            trained_selector, payloads)

    def test_max_batch_slices_the_queue(self, trained_selector,
                                        corpus_table):
        app = ServiceApp(trained_selector, corpus_table, max_batch=4)
        gate = hold_evaluate(app)
        payloads = feature_payloads(11, seed=6)
        with ReproService(app) as svc:
            replies = _held_round(svc, gate, payloads)
        # The held call, then the ten requests read meanwhile.
        assert gate.sizes == [1, 4, 4, 2]
        assert [body for _, body in replies] == expected_replies(
            trained_selector, payloads)

    def test_pipelined_requests_share_one_call(self, app, trained_selector):
        gate = hold_evaluate(app)
        gate.open()
        payloads = feature_payloads(5, seed=7)
        with ReproService(app) as svc:
            client = connect(svc)
            client.send(b"".join(select_request(f) for f in payloads))
            got = [client.select_reply()[1] for _ in payloads]
            client.close()
        assert gate.sizes == [5]
        assert got == expected_replies(trained_selector, payloads)


class TestErrors:
    def test_failed_evaluate_answers_its_batch_with_500(self, app):
        calls = []
        evaluate = app.evaluate

        def flaky(features_seq):
            calls.append(len(features_seq))
            if len(calls) == 2:
                raise RuntimeError("model exploded")
            return evaluate(features_seq)

        gate = hold_evaluate(app, flaky)
        payloads = feature_payloads(6, seed=8)
        with ReproService(app) as svc:
            replies = _held_round(svc, gate, payloads)
            # The loop keeps serving after the failed call.
            client = connect(svc)
            client.send(select_request(payloads[0]))
            after = client.select_reply()
            client.close()
            stats = app.stats_snapshot()
        assert calls == [1, 5, 1]
        assert replies[0][0] == 200
        assert [status for status, _ in replies[1:]] == [500] * 5
        assert all(body == {"error": "RuntimeError: model exploded"}
                   for _, body in replies[1:])
        assert after == replies[0]
        assert stats["endpoints"]["select"]["errors"] == 5
        assert stats["batcher"]["flushes"] == 3


class TestLifecycle:
    def test_stop_during_held_call_answers_everything_queued(
            self, app, trained_selector):
        gate = hold_evaluate(app)
        payloads = feature_payloads(4, seed=9)
        svc = ReproService(app).start()
        clients = [connect(svc) for _ in range(3)]
        clients[0].send(select_request(payloads[0]))
        assert gate.entered.wait(timeout=30)
        clients[1].send(select_request(payloads[1]))
        # Two pipelined requests on the third connection.
        clients[2].send(select_request(payloads[2])
                        + select_request(payloads[3]))
        stopper = threading.Thread(target=svc.stop)
        stopper.start()
        assert svc._stopped.wait(timeout=30)
        time.sleep(SETTLE_S)
        gate.open()
        replies = [clients[0].reply(), clients[1].reply(),
                   clients[2].reply(), clients[2].reply()]
        # Read during the drain: the last reply owed on each
        # connection closes it.
        assert clients[1].at_eof() and clients[2].at_eof()
        for client in clients:
            client.close()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert [status for status, _, _ in replies] == [200] * 4
        assert [h.get("connection") for _, h, _ in replies[1:]] == [
            "close", None, "close"]
        assert [json.loads(body) for _, _, body in replies] == (
            expected_replies(trained_selector, payloads))
        assert gate.sizes == [1, 3]

    def test_stop_refuses_new_connections(self, app):
        svc = ReproService(app).start()
        host, port = svc.address
        svc.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=5).close()

    def test_stop_is_idempotent(self, app):
        svc = ReproService(app).start()
        svc.stop()
        svc.stop()

    def test_stats_count_each_call(self, app):
        with ReproService(app) as svc:
            client = connect(svc)
            for features in feature_payloads(2):
                client.send(select_request(features))
                client.reply()
            client.close()
        snap = app.stats_snapshot()["batcher"]
        assert snap["flushes"] == 2
        assert snap["requests"] == 2
