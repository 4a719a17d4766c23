"""HTTP/1.1 front end on one asyncio event loop, with graceful drain.

Endpoints
---------
``POST /select``   features or MatrixSpec -> chosen format + GFLOPS
``GET  /sweep``    filtered slices of the loaded table (JSON/CSV)
``GET  /healthz``  liveness + loaded-corpus summary
``GET  /stats``    request counts, batch sizes, p50/p99 latency

One thread serves every connection.  Each connection is an
:class:`asyncio.Protocol` that parses pipelined requests out of its
buffer; ``/sweep``, ``/healthz`` and ``/stats`` are answered inline,
and ``/select`` payloads are parsed and queued.  One ``call_soon``
flush per loop iteration answers everything queued, one
``ServiceApp.evaluate`` call per ``max_batch`` slice, so the requests
that arrive in one poll share a predict call and a lone request never
waits.  A connection's ready replies leave in one ``transport.write``,
in request order.

Shutdown is graceful: SIGTERM (and SIGINT under ``repro serve``) stops
accepting, every request already read is answered, a connection closes
after the reply to its last request and an idle one after
:data:`IDLE_TIMEOUT_S`, and the process exits 0.  Every request emits
one structured JSON log line.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import socket
import threading
import time
from collections import deque
from datetime import datetime, timezone
from email.utils import formatdate
from http import HTTPStatus
from typing import List, Optional, TextIO, Tuple
from urllib.parse import parse_qsl, urlsplit

from .._version import __version__
from .app import BadRequest, ServiceApp

__all__ = ["ReproService"]

# Maximum accepted request body; a feature dict is a few hundred bytes,
# so anything larger is a client bug, rejected before it is buffered.
MAX_BODY_BYTES = 1 << 20
# Longest request line plus headers (http.server's line limit).
MAX_HEADER_BYTES = 64 * 1024
# An idle keep-alive connection closes after this long, so a draining
# server waits seconds, not forever, for clients that never hang up.
IDLE_TIMEOUT_S = 5.0
# Ready replies are written once this many bytes have collected, so a
# client pipelining large /sweep requests is paused early.
_WRITE_CHUNK = 64 * 1024

_SERVER = f"repro-serve/{__version__}"
_JSON = "application/json"
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_VERSION = re.compile(r"HTTP/([0-9]+)\.([0-9]+)")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_ENDPOINTS = ["POST /select", "GET /sweep", "GET /healthz", "GET /stats"]


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


class _Request:
    """One request and its place in its connection's reply order.

    Parsed from the head; ``body`` is ``None`` until the reply is ready.
    ``endpoint`` is ``None`` for replies that are not logged: framing
    errors and ``100 Continue``."""

    __slots__ = ("t0", "method", "target", "length", "close", "expect",
                 "endpoint", "status", "ctype", "body")

    def __init__(self, t0=0.0, method="", target="", length=0,
                 close=False, expect=False) -> None:
        self.t0 = t0
        self.method = method
        self.target = target
        self.length = length
        self.close = close
        self.expect = expect
        self.endpoint: Optional[str] = None
        self.status = 0
        self.ctype = _JSON
        self.body: Optional[bytes] = None

    def fill(self, status: int, body: bytes, ctype: str = _JSON) -> None:
        self.status, self.body, self.ctype = status, body, ctype


class _Reject(Exception):
    """A request that cannot be framed: answered, then the connection
    closes (the stdlib server's ``send_error``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_head(text: str, t0: float) -> _Request:
    """Request line + headers -> :class:`_Request`, or :class:`_Reject`."""
    lines = text.split("\n")
    words = lines[0].split()
    if len(words) != 3:
        raise _Reject(400, f"bad request line {lines[0].strip()!r}")
    method, target, version = words
    match = _VERSION.fullmatch(version)
    if match is None:
        raise _Reject(400, f"bad request version {version!r}")
    version_number = (int(match[1]), int(match[2]))
    if version_number >= (2, 0):
        raise _Reject(505, f"unsupported HTTP version {version!r}")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise _Reject(400, f"malformed header line {line.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise _Reject(400, f"Content-Length {raw!r} is not a "
                      "non-negative integer")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise _Reject(400, f"body of {length} bytes exceeds the "
                      f"{MAX_BODY_BYTES}-byte limit")
    if "transfer-encoding" in headers:
        raise _Reject(501, "Transfer-Encoding bodies are not supported; "
                      "send Content-Length")
    if method not in ("GET", "POST"):
        raise _Reject(501, f"unsupported method {method!r}")
    connection = headers.get("connection", "").lower()
    if version_number >= (1, 1):
        close = connection == "close"
        expect = headers.get("expect", "").lower() == "100-continue"
    else:
        close = connection != "keep-alive"
        expect = False
    return _Request(t0, method, target, length, close, expect)


class _Connection(asyncio.Protocol):
    """One client connection: framing, reply order, flow control."""

    def __init__(self, service: "ReproService") -> None:
        self._service = service
        self._loop = service._loop
        self._buf = bytearray()
        self._scan = 0      # where the search for a head's end resumes
        self._head: Optional[_Request] = None  # its body is pending
        self._owed: deque = deque()  # requests not yet answered, in order
        self._out: List[bytes] = []  # rendered replies, not yet written
        self._out_size = 0
        self._last = False        # no request after this one is read
        self._paused = False      # the transport's write buffer is full
        self._eof = False
        self._lost = False
        self._client = ""
        self._active = 0.0        # loop time of the last progress
        self._timer: Optional[asyncio.TimerHandle] = None
        self.transport: Optional[asyncio.Transport] = None

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        peer = transport.get_extra_info("peername")
        self._client = peer[0] if peer else ""
        self._service._connections.add(self)
        self._active = self._loop.time()
        self._timer = self._loop.call_later(IDLE_TIMEOUT_S, self._on_idle)

    def data_received(self, data: bytes) -> None:
        self._active = self._loop.time()
        self._buf += data
        self._process()

    def eof_received(self) -> bool:
        # A half-closed client still gets the replies it is owed.
        self._eof = True
        return bool(self._owed)

    def pause_writing(self) -> None:
        # A client that does not read its replies is not read from.
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._active = self._loop.time()
        self.transport.resume_reading()
        self._process()

    def connection_lost(self, exc) -> None:
        self._lost = True
        self._timer.cancel()
        self._service._connections.discard(self)
        self._service._maybe_done()

    # -- framing -------------------------------------------------------
    def _process(self) -> None:
        """Read and dispatch every complete request in the buffer."""
        buf = self._buf
        while buf and not (self._paused or self._last or self._lost):
            req = self._head
            if req is None:
                try:
                    req = self._next_head()
                except _Reject as exc:
                    self._reject(exc.status, str(exc))
                    break
                if req is None:
                    break
            if len(buf) < req.length:
                if req.expect:
                    req.expect = False
                    interim = _Request()
                    interim.fill(100, _CONTINUE)
                    self._owed.append(interim)
                self._head = req
                break
            self._head = None
            body = bytes(buf[:req.length])
            del buf[:req.length]
            self._dispatch(req, body)
            self._collect()
            if self._out_size >= _WRITE_CHUNK:
                self._send()
        self.write_ready()

    def _next_head(self) -> Optional[_Request]:
        buf = self._buf
        match = _HEAD_END.search(buf, self._scan)
        if match is None:
            if len(buf) > MAX_HEADER_BYTES:
                raise _Reject(431, "request line and headers exceed "
                              f"{MAX_HEADER_BYTES} bytes")
            self._scan = max(0, len(buf) - 3)
            return None
        self._scan = 0
        if match.start() > MAX_HEADER_BYTES:
            raise _Reject(431, "request line and headers exceed "
                          f"{MAX_HEADER_BYTES} bytes")
        text = buf[:match.start()].decode("latin-1")
        del buf[:match.end()]
        return _parse_head(text, time.perf_counter())

    def _reject(self, status: int, message: str) -> None:
        reply = _Request(close=True)
        reply.fill(status, _json({"error": message}))
        self._owed.append(reply)
        self._last = True
        self._buf.clear()

    def _dispatch(self, req: _Request, body: bytes) -> None:
        req.endpoint = "unknown"
        self._owed.append(req)
        self._last = req.close
        service = self._service
        app = service.app
        url = urlsplit(req.target)
        try:
            if req.method == "POST":
                if url.path == "/select":
                    req.endpoint = "select"
                    if not body:
                        raise BadRequest("empty body; POST a JSON object")
                    try:
                        payload = json.loads(body)
                    except json.JSONDecodeError as exc:
                        raise BadRequest(f"malformed JSON: {exc}") from exc
                    service._enqueue(self, req, app.parse_select(payload))
                    return
            elif url.path == "/healthz":
                req.endpoint = "healthz"
                req.fill(200, _json(app.healthz()))
                return
            elif url.path == "/stats":
                req.endpoint = "stats"
                req.fill(200, _json(app.stats_snapshot()))
                return
            elif url.path == "/sweep":
                req.endpoint = "sweep"
                req.fill(200, *app.sweep_query(dict(parse_qsl(url.query))))
                return
            req.fill(404, _json({
                "error": f"no such endpoint {req.target!r}",
                "endpoints": _ENDPOINTS,
            }))
        except BadRequest as exc:
            req.fill(400, _json({"error": str(exc)}))
        except Exception as exc:  # noqa: BLE001 — must answer anyway
            req.fill(500, _json({"error": f"{type(exc).__name__}: {exc}"}))

    # -- replies -------------------------------------------------------
    def _collect(self) -> None:
        """Render the ready replies at the head of the order."""
        owed = self._owed
        service = self._service
        while owed and owed[0].body is not None:
            req = owed.popleft()
            if self._lost:
                req.status = 499   # the client went away first
                service._log(req, self._client)
                continue
            # While draining, the reply that leaves nothing owed and
            # nothing read closes the connection.
            close = req.close or (
                service.draining and not owed and not self._buf
                and self._head is None)
            self._out.append(service._render(req, close))
            self._out_size += len(self._out[-1])
            service._log(req, self._client)
            if close:
                self._last = True
                owed.clear()
                self._buf.clear()
                break

    def _send(self) -> None:
        if self._out:
            out, self._out, self._out_size = self._out, [], 0
            self.transport.write(out[0] if len(out) == 1 else b"".join(out))

    def write_ready(self) -> None:
        """Write every ready reply at the head of the order in one
        ``transport.write``, then close if the last one said so."""
        self._collect()
        self._send()
        if not self._owed and (self._last or self._eof) and not self._lost:
            self.transport.close()

    def _on_idle(self) -> None:
        idle = self._loop.time() - self._active
        if idle < IDLE_TIMEOUT_S or (self._owed and not self._paused):
            self._timer = self._loop.call_later(
                max(IDLE_TIMEOUT_S - idle, 0.01), self._on_idle)
        elif self.transport.get_write_buffer_size():
            self.transport.abort()   # its client stopped reading
        else:
            self.transport.close()


class ReproService:
    """Service lifecycle: bind, serve, drain.

    ``start()`` serves from a background thread (tests, benches);
    ``run()`` serves in the calling thread with signal-driven graceful
    shutdown (the ``repro serve`` foreground path).  Either way one
    event-loop thread serves every connection, and both finish by
    draining: stop accepting, answer every request already read, close
    each connection after its last reply or its idle timeout.
    """

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: Optional[TextIO] = None,
    ) -> None:
        self.app = app
        self.access_log = access_log
        self.draining = False
        # The stdlib default backlog of 5 drops SYNs when a client fleet
        # connects at once; the kernel retry then shows up as ~1s latency
        # outliers on first contact.
        self._sock = socket.create_server((host, port), backlog=128)
        self._address = self._sock.getsockname()[:2]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Future] = None
        self._connections = set()
        self._pending: list = []  # (connection, req, features)
        self._flush_scheduled = False
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._date = (0, "")

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` — port 0 resolves at bind time."""
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- background mode (tests, benches) ------------------------------
    def start(self) -> "ReproService":
        self._open()
        self._thread = threading.Thread(
            target=self._serve, name="repro-serve", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain, callable from any thread; idempotent."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._loop is None:
            self._sock.close()   # never served
            return
        self._loop.call_soon_threadsafe(self._drain)
        if self._thread is not None:
            self._thread.join()

    # -- foreground mode (repro serve) ---------------------------------
    def run(self, handle_signals=(signal.SIGTERM, signal.SIGINT)) -> None:
        """Serve until a signal arrives, then drain and return."""
        self._open()
        previous = {}
        for signum in handle_signals:
            previous[signum] = signal.getsignal(signum)
            self._loop.add_signal_handler(signum, self._drain)
        try:
            self._serve()
        finally:
            self._stopped.set()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the loop --------------------------------------------------------
    def _open(self) -> None:
        loop = self._loop = asyncio.new_event_loop()
        self._done = loop.create_future()
        self._server = loop.run_until_complete(loop.create_server(
            lambda: _Connection(self), sock=self._sock))

    def _serve(self) -> None:
        try:
            self._loop.run_until_complete(self._done)
        finally:
            self._server.close()
            self._loop.close()

    def _drain(self) -> None:
        if not self.draining:
            self.draining = True
            self._server.close()   # stop accepting
            self._maybe_done()

    def _maybe_done(self) -> None:
        if (self.draining and not self._connections and not self._pending
                and not self._done.done()):
            self._done.set_result(None)

    def _enqueue(self, conn: _Connection, req: _Request,
                 features) -> None:
        self._pending.append((conn, req, features))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Answer every queued ``/select``, one evaluate per
        ``max_batch`` slice, then write each connection's replies."""
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        app = self.app
        for lo in range(0, len(pending), app.max_batch):
            batch = pending[lo:lo + app.max_batch]
            try:
                results = app.evaluate([features for _, _, features in batch])
            except Exception as exc:  # noqa: BLE001 — answer the batch
                body = _json({"error": f"{type(exc).__name__}: {exc}"})
                for _, req, _ in batch:
                    req.fill(500, body)
            else:
                for (_, req, _), result in zip(batch, results):
                    req.fill(200, _json(result))
            app.stats.record_batch(len(batch))
        for conn in dict.fromkeys(conn for conn, _, _ in pending):
            conn.write_ready()
        self._maybe_done()

    # -- rendering and logging -------------------------------------------
    def _render(self, req: _Request, close: bool) -> bytes:
        if req.status == 100:
            return req.body
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))
        head = (
            f"HTTP/1.1 {req.status} {HTTPStatus(req.status).phrase}\r\n"
            f"Server: {_SERVER}\r\nDate: {self._date[1]}\r\n"
            f"Content-Type: {req.ctype}\r\n"
            f"Content-Length: {len(req.body)}\r\n"
        )
        if close:
            head += "Connection: close\r\n"
        return (head + "\r\n").encode("latin-1") + req.body

    def _log(self, req: _Request, client: str) -> None:
        if req.endpoint is None:
            return
        ms = (time.perf_counter() - req.t0) * 1000.0
        self.app.stats.observe(req.endpoint, ms, error=req.status >= 400)
        if self.access_log is None:
            return
        line = json.dumps({
            "ts": datetime.now(timezone.utc).isoformat(),
            "method": req.method,
            "path": req.target,
            "status": req.status,
            "dur_ms": round(ms, 3),
            "client": client,
        }, sort_keys=True)
        try:
            self.access_log.write(line + "\n")
            self.access_log.flush()
        except ValueError:
            pass  # log stream already closed during teardown
