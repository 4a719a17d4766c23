"""HTTP/1.1 behaviour of the one-loop server, one test per rule.

The rules are the ones ``http.server`` kept before the server moved to
one event loop: pipelining, partial reads, flow control, framing
errors, ``Expect: 100-continue``, connection close and idle timeout.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import ReproService
from repro.service import http as service_http

from .conftest import RawClient, connect, expected_replies, \
    feature_payloads, select_request


@pytest.fixture
def service(app):
    with ReproService(app) as svc:
        yield svc


def test_pipelined_requests_answered_in_order(service, trained_selector):
    features = feature_payloads(1, seed=11)[0]
    client = RawClient(service)
    client.send(b"GET /healthz HTTP/1.1\r\n\r\n"
                + select_request(features)
                + b"GET /sweep?limit=1&columns=matrix HTTP/1.1\r\n\r\n"
                + b"GET /nope HTTP/1.1\r\n\r\n")
    replies = [client.reply() for _ in range(4)]
    client.close()
    assert [status for status, _, _ in replies] == [200, 200, 200, 404]
    assert json.loads(replies[0][2])["status"] == "ok"
    assert json.loads(replies[1][2]) == expected_replies(
        trained_selector, [features])[0]
    assert json.loads(replies[2][2])["returned"] == 1


def test_request_one_byte_per_write_is_served(service, trained_selector):
    features = feature_payloads(1, seed=12)[0]
    client = RawClient(service)
    for byte in select_request(features):
        client.send(bytes([byte]))
        time.sleep(0.0005)
    status, body = client.select_reply()
    client.close()
    assert status == 200
    assert body == expected_replies(trained_selector, [features])[0]


def test_client_that_never_reads_stalls_nothing(service, app):
    """A client pipelining large replies it never reads is paused: the
    server stops reading from it, so it neither grows the server's
    buffers nor delays another connection."""
    request = b"GET /sweep HTTP/1.1\r\n\r\n"
    stalled = RawClient(service)
    stalled.sock.setblocking(False)
    chunk = request * 2048
    sent = 0
    idle_since = time.monotonic()
    while time.monotonic() - idle_since < 0.5:
        try:
            sent += stalled.sock.send(chunk)
            idle_since = time.monotonic()
        except BlockingIOError:
            time.sleep(0.01)
    # Another connection is served at once.
    other = connect(service)
    t0 = time.monotonic()
    other.send(b"GET /stats HTTP/1.1\r\n\r\n")
    status, _, body = other.reply()
    assert status == 200 and time.monotonic() - t0 < 2.0
    answered = json.loads(body)["endpoints"]["sweep"]["requests"]
    # The server read a bounded prefix of what the client sent, and
    # reads no more while the client does not read its replies.
    assert answered * 10 < sent // len(request)
    time.sleep(0.3)
    assert app.stats_snapshot()["endpoints"]["sweep"]["requests"] == \
        answered
    other.close()
    stalled.close()


def test_malformed_request_line_is_400_then_close(service):
    client = RawClient(service)
    client.send(b"NONSENSE\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
    status, headers, body = client.reply()
    assert status == 400
    assert headers["connection"] == "close"
    assert "bad request line" in json.loads(body)["error"]
    assert client.at_eof()
    client.close()


@pytest.mark.parametrize("request_bytes, named", [
    (b"DELETE /select HTTP/1.1\r\n\r\n", "DELETE"),
    (b"POST /select HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", "Transfer-Encoding"),
])
def test_unsupported_method_is_501(service, request_bytes, named):
    client = RawClient(service)
    client.send(request_bytes)
    status, _, body = client.reply()
    assert status == 501
    assert named in json.loads(body)["error"]
    assert client.at_eof()
    client.close()


@pytest.mark.parametrize("length", [b"abc", b"-5", b"1.5"])
def test_bad_content_length_is_400(service, length):
    client = RawClient(service)
    client.send(b"POST /select HTTP/1.1\r\nContent-Length: " + length
                + b"\r\n\r\n{}")
    status, _, body = client.reply()
    assert status == 400
    assert "Content-Length" in json.loads(body)["error"]
    assert client.at_eof()
    client.close()


def test_body_over_limit_is_400_before_buffering(service):
    client = RawClient(service)
    # Only the head is sent: the answer must not wait for the body.
    client.send(b"POST /select HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (service_http.MAX_BODY_BYTES + 1))
    status, _, body = client.reply()
    assert status == 400
    assert "exceeds" in json.loads(body)["error"]
    assert client.at_eof()
    client.close()


def test_header_block_over_64k_is_431(service):
    client = RawClient(service)
    client.send(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * (service_http.MAX_HEADER_BYTES + 1))
    status, _, _ = client.reply()
    assert status == 431
    client.close()


def test_expect_100_continue_gets_interim_reply(service, trained_selector):
    features = feature_payloads(1, seed=13)[0]
    body = json.dumps({"features": features}).encode()
    client = RawClient(service)
    client.send(b"POST /select HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
    assert client.file.readline() == b"HTTP/1.1 100 Continue\r\n"
    assert client.file.readline() == b"\r\n"
    client.send(body)
    status, reply = client.select_reply()
    client.close()
    assert status == 200
    assert reply == expected_replies(trained_selector, [features])[0]


@pytest.mark.parametrize("request_bytes", [
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
])
def test_close_after_reply(service, request_bytes):
    client = RawClient(service)
    client.send(request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n")
    status, headers, _ = client.reply()
    assert status == 200
    assert headers["connection"] == "close"
    assert client.at_eof()
    client.close()


def test_half_closed_client_gets_its_replies(service, trained_selector):
    features = feature_payloads(1, seed=14)[0]
    client = RawClient(service)
    client.send(select_request(features) + b"GET /healthz HTTP/1.1\r\n\r\n")
    client.sock.shutdown(socket.SHUT_WR)
    assert client.select_reply() == (
        200, expected_replies(trained_selector, [features])[0])
    assert client.reply()[0] == 200
    assert client.at_eof()
    client.close()


def test_idle_keep_alive_connection_closes(app, monkeypatch):
    monkeypatch.setattr(service_http, "IDLE_TIMEOUT_S", 0.2)
    with ReproService(app) as svc:
        client = connect(svc)
        t0 = time.monotonic()
        assert client.at_eof()
        assert 0.1 < time.monotonic() - t0 < 5.0
        client.close()


def test_keep_alive_connections_add_no_thread(service):
    before = threading.active_count()
    clients = [connect(service) for _ in range(32)]
    try:
        assert threading.active_count() == before
        for client in clients:
            client.send(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert all(client.reply()[0] == 200 for client in clients)
        assert threading.active_count() == before
    finally:
        for client in clients:
            client.close()
