"""Store service: pluggable backend contract, TCP server, remote client.

Any object with the five operations below (put/get/scan/delete/stats, with
HybridMetaStore's semantics) can be served over the wire or driven by the
bench replayer; the remote client itself satisfies the same contract, so a
benchmark cannot tell a local store from a served one apart from latency.

Per-connection ordering: the server answers each connection's requests
strictly in arrival order, one response frame per request frame. Requests on
different connections interleave arbitrarily. The remote client keeps one
connection per calling thread, so concurrent workers never share a socket.

Transport failures (connect/reset/timeout/undecodable response) raise
TransportError; they are never reported as a miss.
"""

from __future__ import annotations

import socket
import socketserver
import threading
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


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        sock = self.request
        backend = self.server.backend
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            try:
                while (frame := wire.read_frame(sock)) is not None:
                    sock.sendall(self._respond(backend, *frame))
            except wire.ProtocolError as exc:
                # Framing cannot be trusted past an oversized header; reject and drop.
                sock.sendall(wire.error_response_frame(exc.opcode, wire.ST_BAD_REQUEST))
        except OSError:
            return  # reset, closed mid-frame, or shut down by stop()

    @staticmethod
    def _respond(backend: Backend, opcode: int, payload: bytes) -> bytes:
        try:
            req = wire.decode_request(opcode, payload)
        except wire.ProtocolError:
            return wire.error_response_frame(opcode, wire.ST_BAD_REQUEST)
        op = wire._OPS[opcode]
        try:
            result = getattr(backend, op.method)(*req.__dict__.values())  # fields in order
            resp = op.response(op.status_of(result), result)
            return wire.encode_frame(opcode, wire.encode_response(resp))
        except BadRangeError:
            return wire.error_response_frame(opcode, wire.ST_BAD_REQUEST)
        except Exception:
            return wire.error_response_frame(opcode, wire.ST_INTERNAL)


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = False
    block_on_close = True

    def __init__(self, address, handler, backend: Backend):
        self.backend = backend
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()
        super().shutdown_request(request)

    def close_connections(self, drain_s: float) -> None:
        """Shut reading down on every open connection: idle handlers see EOF
        and busy ones send their reply. After ``drain_s``, shut writing down
        too, which ends handlers blocked on a peer that does not read."""
        with self._open_changed:
            for how in (socket.SHUT_RD, socket.SHUT_RDWR):
                for sock in self._open:
                    try:
                        sock.shutdown(how)
                    except OSError:
                        pass
                self._open_changed.wait_for(lambda: not self._open, drain_s)


class StoreServer:
    """A running store service; stop() drains in-flight requests."""

    DRAIN_S = 5.0  # how long stop() lets handlers finish before cutting them off
    POLL_S = 0.05  # how often the accept loop checks for stop(); bounds its latency

    def __init__(self, address: tuple[str, int], backend: Backend):
        self._server = _TcpServer(address, _Handler, backend)
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(self.POLL_S,), daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "StoreServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()  # no new connections after this returns
        self._server.close_connections(self.DRAIN_S)
        self._server.server_close()  # joins the handler threads
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "StoreServer":
        return self

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
    request/response exchange. Safe for concurrent use by multiple workers.
    """

    def __init__(self, host: str, port: int, timeout: float = 1.0):
        self._addr = (host, port)
        self._timeout = timeout
        self._local = threading.local()
        self._conns: list[socket.socket] = []
        self._conns_lock = threading.Lock()

    def _conn(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None:
            try:
                sock = socket.create_connection(self._addr, timeout=self._timeout)
            except OSError as exc:
                raise TransportError(f"connect to {self._addr} failed: {exc}") from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.sock = sock
            with self._conns_lock:
                self._conns.append(sock)
        return sock

    def _drop(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            self._local.sock = None
            with self._conns_lock:
                if sock in self._conns:
                    self._conns.remove(sock)

    def _call(self, req: wire.Request):
        """One exchange; returns the backend method's result that the reply carries."""
        frame = wire.encode_request(req)
        sock = self._conn()
        try:
            sock.sendall(frame)
            reply = wire.read_frame(sock)
        except (OSError, wire.ProtocolError) as exc:
            self._drop()
            raise TransportError(f"exchange failed: {exc}") from exc
        if reply is None:
            self._drop()
            raise TransportError("connection closed by server")
        opcode, payload = reply
        if opcode != frame[4]:  # the request's opcode byte, after the u32 length
            self._drop()
            raise TransportError(f"response opcode {opcode} != request {frame[4]}")
        try:
            resp = wire.decode_response(opcode, payload)
        except wire.ProtocolError as exc:
            self._drop()
            raise TransportError(f"response decode failed: {exc}") from exc
        status, result = resp.__dict__.values()  # set by the dataclass __init__
        if status == wire.ST_INTERNAL:
            raise TransportError("server reported an internal error")
        if status == wire.ST_BAD_REQUEST:
            raise TransportError("server rejected the request as malformed")
        return result

    def put(self, key: bytes, value: int) -> int | None:
        return self._call(wire.PutRequest(key, value))

    def get(self, key: bytes) -> int | None:
        return self._call(wire.GetRequest(key))

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]:
        if start >= end_exclusive:
            raise BadRangeError("scan start must be < end_exclusive")
        mx = _UNLIMITED if max_results is None else max_results
        if not 0 <= mx <= _UNLIMITED:
            raise ValueError("max_results out of u32 range")
        return list(self._call(wire.ScanRequest(start, end_exclusive, mx)))

    def delete(self, key: bytes) -> bool:
        return self._call(wire.DeleteRequest(key))

    def stats(self) -> IndexStats:
        return self._call(wire.StatsRequest())

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass

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
