"""Store service: pluggable backend contract, TCP server, remote client.

Any ``Backend`` can be served over the wire or driven by the bench replayer;
the remote client keeps the same contract, so a benchmark cannot tell a
local store from a served one apart from latency.

Per-connection ordering: ``StoreServer``, one thread running one
``selectors`` loop over every connection, answers a connection's requests
strictly in arrival order, one response frame per request frame. Requests on
different connections interleave arbitrarily. The remote client keeps one
connection per calling thread, so concurrent workers never share a socket.
Each end reads a connection through one ``protocol.FrameReader``, so a
frame that arrives whole costs one ``recv``. The loop's sockets are
non-blocking, and it takes every frame through ``protocol.read_frame``. A
turn on a connection answers one frame; it reads on only while the
connection is the only one and no other socket is ready. A connection left
holding a whole frame, or a reply its socket refused, is watched for write,
so the selector returns to it at once and connections interleave frame by
frame: none holds the loop while others wait or ``stop()`` does.

The module counts the process's open connections, both ends: a served one
while the loop holds it, a client one from connect until dropped or closed.
While the count is 1, ``protocol.read_frame`` polls for up to
``protocol.POLL_S`` before it sleeps or, in the server's loop, selects, which
costs that much CPU per wait.

Transport failures (connect/reset/timeout/undecodable response) raise
TransportError; they are never reported as a miss.
"""

from __future__ import annotations

import socket
import struct
import threading
from contextlib import suppress
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector, SelectorKey
from time import monotonic
from typing import Protocol

from . import protocol as wire
from .store import BadRangeError, IndexStats, check_scan

_UNLIMITED = 0xFFFFFFFF  # u32 max_results sentinel: effectively no truncation


class TransportError(Exception):
    """The remote exchange failed (network, timeout, or decode error)."""


class Backend(Protocol):
    """The store contract every backend keeps; tests/test_contract.py checks it.

    ``put`` returns the replaced value or None, ``get`` the value or None,
    ``delete`` whether the key was present, and ``scan`` at most ``max_results``
    (None: all) entries with start <= key < end_exclusive, in key order; it
    raises ``BadRangeError`` if start >= end_exclusive and ``ValueError`` if
    ``max_results`` < 0, and counts neither. ``stats`` counts puts, gets, scans,
    deletes and resident entries; only the in-process store keeps the cache
    fields. A served backend must not block: ``StoreServer`` calls it on its
    one loop thread."""

    def put(self, key: bytes, value: int) -> int | None: ...

    def get(self, key: bytes) -> int | None: ...

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]: ...

    def delete(self, key: bytes) -> bool: ...

    def stats(self) -> IndexStats: ...


class StoreServer:
    """A store service: one thread runs one ``selectors`` loop over every socket and calls
    the backend, which therefore must not block; stop() drains in-flight requests."""

    DRAIN_S = 5.0  # how long stop() lets connections finish before cutting them off

    def __init__(self, address: tuple[str, int], backend: Backend):
        self.backend = backend
        self._listener = socket.create_server(address)
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._wake, self._notify = socket.socketpair()  # stop() writes a byte to _notify
        self._sel = DefaultSelector()
        self._sel.register(self._listener, EVENT_READ)
        self._sel.register(self._wake, EVENT_READ)
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "StoreServer":
        self._thread.start()
        return self

    def _run(self) -> None:
        """Serve until stop(), drain for up to ``DRAIN_S``, close what is left."""
        sel, deadline = self._sel, None
        while sel.get_map() and (deadline is None or monotonic() < deadline):
            for key, _ in sel.select(None if deadline is None else deadline - monotonic()):
                if key.data is not None:
                    self._serve(key, deadline is None and wire._open_connections == 1)
                elif key.fileobj is self._wake:  # stop()
                    deadline = monotonic() + self.DRAIN_S
                    sel.unregister(self._wake)
                    sel.unregister(self._listener)
                    for conn in sel.get_map().values():  # idle ones see EOF, busy ones still reply
                        with suppress(OSError):
                            conn.fileobj.shutdown(socket.SHUT_RD)
                elif deadline is None:  # the listener, unless stop() came in the same select
                    self._accept()
        for key in list(sel.get_map().values()):
            self._close(key.fileobj)

    def _accept(self) -> None:
        try:
            sock = self._listener.accept()[0]
        except OSError:
            return  # the peer gave up before it was accepted
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wire.count_connections(1)
        self._sel.register(sock, EVENT_READ, (wire.FrameReader(sock, bytearray()), b""))

    def _serve(self, key: SelectorKey, alone: bool) -> None:
        """Send what the socket refused last turn, or else answer one frame; what a full
        socket buffer refuses waits in the key. The turn reads on, polling first like a
        client, only while ``alone`` holds (not draining, one counted connection) and no
        other socket is ready. A whole frame left buffered sets write interest."""
        sock, (reader, out) = key.fileobj, key.data
        try:
            while not out or (not (out := out[sock.send(out):]) and alone
                              and all(k is key for k, _ in self._sel.select(0))):
                if (frame := wire.read_frame(reader)) is None:
                    return self._close(sock)
                out = self._respond(*frame)
        except BlockingIOError:
            pass  # recv would wait, or send found the buffer full
        except wire.ProtocolError as exc:  # framing is lost past an oversized header
            with suppress(OSError):
                sock.send(wire.error_response_frame(exc.opcode, wire.ST_BAD_REQUEST))
            return self._close(sock)
        except OSError:
            return self._close(sock)  # reset, or closed mid-frame
        events = EVENT_WRITE if out or wire.frame_ready(reader.buf) else EVENT_READ
        if EVENT_WRITE in (events, key.events):
            self._sel.modify(sock, events, (reader, out))

    def _respond(self, opcode: int, payload: bytes) -> bytes:
        try:
            req = wire.decode_request(opcode, payload)
        except wire.ProtocolError:
            return wire.error_response_frame(opcode, wire.ST_BAD_REQUEST)
        op = wire._OPS[opcode]
        try:
            result = getattr(self.backend, op.method)(*req[1:])
            resp = (opcode, op.absent if result is None else wire.ST_OK, result)
            return wire.encode_frame(opcode, wire.encode_response(resp))
        except BadRangeError:
            return wire.error_response_frame(opcode, wire.ST_BAD_REQUEST)
        except Exception:
            return wire.error_response_frame(opcode, wire.ST_INTERNAL)

    def _close(self, sock: socket.socket) -> None:
        self._sel.unregister(sock)
        wire.count_connections(-1)  # before the peer can see the close
        sock.close()

    def stop(self) -> None:
        """Stop accepting, shut reading down on every connection and wait while the loop
        drains them for up to ``DRAIN_S``; a server never started only closes its sockets."""
        if self._thread.is_alive():
            self._notify.send(b"\0")
            self._thread.join()
        for sock in (self._listener, self._wake, self._notify):
            sock.close()
        self._sel.close()

    def __enter__(self) -> "StoreServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(address: tuple[str, int], backend: Backend) -> StoreServer:
    """Bind and start serving the backend, which must not block (see
    ``StoreServer``); returns the running handle.

    Bind failures propagate as OSError. Use port 0 to let the OS pick, then
    read the actual port from handle.address.
    """
    return StoreServer(address, backend).start()


class RemoteBackend:
    """Backend adapter speaking the wire protocol over TCP.

    One connection per calling thread; an op maps to exactly one
    request/response exchange. Safe for concurrent use by multiple workers;
    after close(), the next call from any thread opens a fresh connection.
    ``timeout`` (seconds, positive and at most ``threading.TIMEOUT_MAX``,
    CPython's largest socket timeout) bounds the connect, each send and each
    recv, not the whole call: kernel socket timeouts, which spare a
    ``poll`` per send and recv. A wait for a reply that polls first (see the
    module docstring) may last ``protocol.POLL_S`` plus the timeout.
    """

    def __init__(self, host: str, port: int, timeout: float = 1.0):
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be positive and at most {threading.TIMEOUT_MAX:g}"
                             f" s, got {timeout!r}")
        self._addr = (host, port)
        self._timeout = timeout
        # A zero timeval means "wait forever" to the kernel, so round up to 1 us.
        usec = max(1, round(timeout * 1e6))
        self._timeval = struct.pack("ll", *divmod(usec, 1_000_000))
        self._local = threading.local()
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

    def _connect(self) -> wire.FrameReader:
        """Open this thread's connection, on first use or after a drop."""
        try:
            sock = socket.create_connection(self._addr, timeout=self._timeout)
        except OSError as exc:
            raise TransportError(f"connect to {self._addr} failed: {exc}") from exc
        sock.settimeout(None)
        for opt in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            sock.setsockopt(socket.SOL_SOCKET, opt, self._timeval)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = wire.FrameReader(sock, bytearray())
        with self._conns_lock:
            self._conns.add(sock)
            wire.count_connections(1)
            self._local.reader = reader
        return reader

    def _drop(self, sock: socket.socket) -> None:
        self._local.reader = None
        with self._conns_lock:
            if sock in self._conns:  # close() may have counted it out already
                self._conns.remove(sock)
                wire.count_connections(-1)
        with suppress(OSError):
            sock.close()

    def _call(self, *req):
        """One exchange of the request (opcode, *fields); returns the backend
        method's result that the reply carries."""
        frame = wire.encode_request(req)
        reader = getattr(self._local, "reader", None) or self._connect()
        try:
            reader.sock.sendall(frame)
            reply = wire.read_frame(reader)
            if reply is None:
                raise ConnectionError("connection closed by server")
            if reply[0] != frame[4]:  # the request's opcode byte, after the u32 length
                raise wire.ProtocolError(f"response opcode {reply[0]} != request {frame[4]}")
            _, status, result = wire.decode_response(*reply)
        except (OSError, wire.ProtocolError) as exc:
            self._drop(reader.sock)
            raise TransportError(f"exchange failed: {exc}") from exc
        if status == wire.ST_INTERNAL:
            raise TransportError("server reported an internal error")
        if status == wire.ST_BAD_REQUEST:
            raise TransportError("server rejected the request as malformed")
        return result

    def put(self, key: bytes, value: int) -> int | None:
        return self._call(wire.OP_PUT, key, value)

    def get(self, key: bytes) -> int | None:
        return self._call(wire.OP_GET, key)

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]:
        check_scan(start, end_exclusive, max_results)
        mx = _UNLIMITED if max_results is None or max_results > _UNLIMITED else max_results
        return list(self._call(wire.OP_SCAN, start, end_exclusive, mx))

    def delete(self, key: bytes) -> bool:
        return self._call(wire.OP_DELETE, key)

    def stats(self) -> IndexStats:
        return self._call(wire.OP_STATS)

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, set()
            wire.count_connections(-len(conns))
            self._local = threading.local()  # every thread's next call reconnects
        for sock in conns:
            with suppress(OSError):
                sock.close()

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_hostport(text: str) -> tuple[str, int]:
    """'host:port' -> (host, port); ValueError if either part is missing."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {text!r}")
    return host, int(port)


def connect(endpoint: str | tuple[str, int], timeout: float = 1.0) -> RemoteBackend:
    """Remote backend for 'host:port' (or a (host, port) tuple)."""
    host, port = parse_hostport(endpoint) if isinstance(endpoint, str) else endpoint
    return RemoteBackend(host, port, timeout)
