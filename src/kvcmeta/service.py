"""Store service: pluggable backend contract, TCP server, remote client.

Any object with the five operations below (put/get/scan/delete/stats, with
HybridMetaStore's semantics) can be served over the wire or driven by the
bench replayer; the remote client itself satisfies the same contract, so a
benchmark cannot tell a local store from a served one apart from latency.

Per-connection ordering: ``StoreServer``, one ``ThreadingTCPServer`` that
serves each connection on its own thread, answers a connection's requests
strictly in arrival order, one response frame per request frame. Requests on
different connections interleave arbitrarily. The remote client keeps one
connection per calling thread, so concurrent workers never share a socket.
Each end reads a connection through one ``protocol.FrameReader``, so a
frame that arrives whole costs one ``recv``.

The module counts the process's open connections, both ends: a served one
while its thread serves it, a client one from connect until dropped or closed.
While the count is 1, ``protocol.read_frame`` polls for up to
``protocol.POLL_S`` before it sleeps, which costs that much CPU per wait.

Transport failures (connect/reset/timeout/undecodable response) raise
TransportError; they are never reported as a miss.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from contextlib import suppress
from typing import Protocol, runtime_checkable

from . import protocol as wire
from .store import BadRangeError, IndexStats

_UNLIMITED = 0xFFFFFFFF  # u32 max_results sentinel: effectively no truncation


class TransportError(Exception):
    """The remote exchange failed (network, timeout, or decode error)."""


@runtime_checkable
class Backend(Protocol):
    """The abstract store contract shared by all backends."""

    def put(self, key: bytes, value: int) -> int | None: ...

    def get(self, key: bytes) -> int | None: ...

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]: ...

    def delete(self, key: bytes) -> bool: ...

    def stats(self) -> IndexStats: ...


class StoreServer(socketserver.ThreadingTCPServer):
    """A store service with one thread per connection; stop() drains
    in-flight requests."""

    allow_reuse_address = True
    daemon_threads = False
    block_on_close = True
    DRAIN_S = 5.0  # how long stop() lets connections finish before cutting them off
    POLL_S = 0.05  # how often the accept loop checks for stop(); bounds its latency

    def __init__(self, address: tuple[str, int], backend: Backend):
        self.backend = backend
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()
        super().__init__(address, None)  # finish_request serves, not a handler class
        self._acceptor = threading.Thread(target=self.serve_forever, args=(self.POLL_S,),
                                          daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> "StoreServer":
        self._acceptor.start()
        return self

    def process_request(self, request, client_address) -> None:
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()
        super().shutdown_request(request)

    def finish_request(self, sock, client_address) -> None:
        """Answer the connection's frames in order until EOF, reset or stop()."""
        wire.count_connections(1)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # An accepted socket has a CPython timeout only under socket.setdefaulttimeout.
            reader = wire.FrameReader(sock, bytearray(), sock.gettimeout() is None)
            sendall, respond = sock.sendall, self._respond
            try:
                while (frame := wire.read_frame(reader)) is not None:
                    sendall(respond(*frame))
            except wire.ProtocolError as exc:
                # Framing cannot be trusted past an oversized header; reject and drop.
                sendall(wire.error_response_frame(exc.opcode, wire.ST_BAD_REQUEST))
        except OSError:
            return  # reset, closed mid-frame, or shut down by stop()
        finally:
            wire.count_connections(-1)

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

    def stop(self) -> None:
        """Stop accepting, then shut reading down on every open connection:
        idle ones see EOF and busy ones send their reply. After ``DRAIN_S``,
        shut writing down too, which ends a connection thread blocked on a
        peer that does not read. A server never started only closes its
        socket."""
        started = self._acceptor.is_alive()
        if started:
            self.shutdown()  # no new connections after this returns
        with self._open_changed:
            for how in (socket.SHUT_RD, socket.SHUT_RDWR):
                for sock in self._open:
                    try:
                        sock.shutdown(how)
                    except OSError:
                        pass
                self._open_changed.wait_for(lambda: not self._open, self.DRAIN_S)
        self.server_close()  # joins the connection threads
        if started:
            self._acceptor.join(timeout=10.0)

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(address: tuple[str, int], backend: Backend) -> StoreServer:
    """Bind and start serving the backend; returns the running handle.

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
        reader = wire.FrameReader(sock, bytearray(), True)
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
        if start >= end_exclusive:
            raise BadRangeError("scan start must be < end_exclusive")
        mx = _UNLIMITED if max_results is None else max_results
        if not 0 <= mx <= _UNLIMITED:
            raise ValueError("max_results out of u32 range")
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
