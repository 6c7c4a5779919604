"""Binary wire protocol for the store service.

Frames are length-prefixed: a big-endian u32 payload byte count, one opcode
byte, then the payload (at most 16 MiB). Every request frame yields exactly
one response frame on the same connection, carrying the request's opcode; the
first response payload byte is a status code. One ``FrameReader`` per end
reads a connection, so a frame that arrives whole costs one ``recv``.

``read_frame`` is the one place a client connection waits, and the one way
the server's loop takes a frame; ``frame_ready`` tells the loop whether a
connection's buffer holds one. While ``service`` counts one open connection
in the process, both ends, a wait polls with non-blocking ``recv`` for
``POLL_S`` before it sleeps in one blocking ``recv``, since a metadata op's
reply comes sooner than a sleeping thread wakes; on the server's non-blocking
sockets that ``recv`` raises ``BlockingIOError`` and the loop selects
instead. (On a socket with a CPython timeout, a non-blocking ``recv`` still
waits in CPython's ``poll``, so it reads as a blocking one.) The cost is CPU,
at most ``POLL_S`` per wait, so an idle connection costs almost nothing.
Beside other connections a polling thread would keep the GIL from threads
with work, so every wait sleeps at once.

Messages are plain tuples. A request is (opcode, *fields) and a response is
(opcode, status, result), where result is the return value of the
``Backend`` method the request names. One row of ``_OPS`` defines an opcode:
its request layout, that method, the status of a ``None`` return value, and
the codec of the response body.

Request payloads (all integers big-endian, keys fixed 32 bytes, values u64):

    PUT    = 1   key(32) value(8)
    GET    = 2   key(32)
    SCAN   = 3   start(32) end_exclusive(32) max_results(u32)
    DELETE = 4   key(32)
    STATS  = 5   (empty)

Response payloads, after the status byte (OK=0, NOT_FOUND=1, BAD_REQUEST=2,
INTERNAL=3):

    PUT    -> had_previous(u8), then old value(8) iff 1
    GET    -> value(8) on OK; empty on NOT_FOUND
    SCAN   -> count(u32), then count x (key(32) value(8))
    DELETE -> removed(u8)
    STATS  -> 8 x u64 counters in IndexStats field order

NOT_FOUND is GET-only: it answers a GET of an absent key, and a response of
any other opcode that carries it is malformed. Error statuses (BAD_REQUEST,
INTERNAL) carry the status byte only.
"""

from __future__ import annotations

import socket
import struct
import threading
from time import perf_counter
from typing import Any, Callable, NamedTuple

from .store import IndexStats, KEY_BYTES

MAX_PAYLOAD = 16 * 1024 * 1024

OP_PUT = 1
OP_GET = 2
OP_SCAN = 3
OP_DELETE = 4
OP_STATS = 5

ST_OK = 0
ST_NOT_FOUND = 1
ST_BAD_REQUEST = 2
ST_INTERNAL = 3
_ERRORS = (ST_BAD_REQUEST, ST_INTERNAL)
_STATUS = tuple(bytes([status]) for status in range(ST_INTERNAL + 1))  # status byte

_HEADER = struct.Struct(">IB")
_RECV_BYTES = 64 * 1024  # per recv; below glibc's default mmap threshold
# How long a wait polls before it sleeps. On 2 cores a loopback round trip
# costs 29-31 us at p50 when both ends sleep in recv and 10-14 us when both
# poll, and a store op adds a few us, so 50 us catches a reply or the next
# request of a busy peer while bounding what an idle one burns per wait.
POLL_S = 50e-6
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_STATS = struct.Struct(">8Q")
_KEY = f"{KEY_BYTES}s"
_ENTRY = struct.Struct(f">{_KEY}Q")


class ProtocolError(ValueError):
    """A frame or payload violates the wire format.

    ``opcode`` is the offending frame's opcode when its header was read.
    """

    def __init__(self, message: str, opcode: int | None = None):
        super().__init__(message)
        self.opcode = opcode


# Constructors of the message tuples that perfbench/micro.py calls; an error
# response's result is None.

def GetRequest(key): return (OP_GET, key)
def GetResponse(status, value=None): return (OP_GET, status, value)
def ScanResponse(status, entries=None): return (OP_SCAN, status, entries)


def _check_key(key: bytes) -> None:
    if len(key) != KEY_BYTES:
        raise ProtocolError(f"key must be {KEY_BYTES} bytes, got {len(key)}")


# Response bodies: each pair maps a Backend method's return value to and from
# the bytes after the status byte; a decoder may raise struct.error.

def _encode_put(old_value: int | None) -> bytes:
    return b"\x00" if old_value is None else b"\x01" + _U64.pack(old_value)


def _decode_put(body: bytes) -> int | None:
    if body == b"\x00":
        return None
    if body[:1] != b"\x01":
        raise ProtocolError("malformed PUT response")
    return _U64.unpack(body[1:])[0]


def _encode_get(value: int | None) -> bytes:
    return b"" if value is None else _U64.pack(value)


def _decode_get(body: bytes) -> int | None:
    return _U64.unpack(body)[0] if body else None


def _encode_scan(entries) -> bytes:
    parts = [_U32.pack(len(entries))]
    for key, value in entries:
        if len(key) != KEY_BYTES:  # the struct code would pad or cut it silently
            _check_key(key)
        parts.append(_ENTRY.pack(key, value))
    return b"".join(parts)


def _decode_scan(body: bytes) -> tuple[tuple[bytes, int], ...]:
    if len(body) != _U32.size + _U32.unpack_from(body)[0] * _ENTRY.size:
        raise ProtocolError("SCAN response length mismatch")
    return tuple(_ENTRY.iter_unpack(body[_U32.size:]))


def _encode_delete(removed: bool) -> bytes:
    return b"\x01" if removed else b"\x00"


def _decode_delete(body: bytes) -> bool:
    if body not in (b"\x00", b"\x01"):
        raise ProtocolError("malformed DELETE response")
    return body == b"\x01"


def _encode_stats(stats: IndexStats) -> bytes:
    return _STATS.pack(*stats)  # fields in wire order


def _decode_stats(body: bytes) -> IndexStats:
    return IndexStats(*_STATS.unpack(body))


class _Op(NamedTuple):
    """One opcode: request layout, server method and the response body codec."""

    payload: struct.Struct  # request payload, one code per field in field order
    header: bytes  # request frame header, fixed since the payload size is
    keys: tuple[int, ...]  # request tuple positions that must hold KEY_BYTES
    method: str  # the Backend method called with the request's fields
    absent: int  # the status of a None return value; any other value is OK
    encode_body: Callable[[Any], bytes]
    decode_body: Callable[[bytes], Any]


def _op(opcode: int, layout: tuple[str, ...], method: str, absent: int,
        encode_body: Callable[[Any], bytes], decode_body: Callable[[bytes], Any]) -> _Op:
    """Table row; ``layout`` is each request field's struct code, in field order."""
    keys = tuple(i for i, code in enumerate(layout, 1) if code == _KEY)
    payload = struct.Struct(">" + "".join(layout))
    return _Op(payload, _HEADER.pack(payload.size, opcode), keys, method, absent,
               encode_body, decode_body)


_OPS = {
    OP_PUT: _op(OP_PUT, (_KEY, "Q"), "put", ST_OK, _encode_put, _decode_put),
    OP_GET: _op(OP_GET, (_KEY,), "get", ST_NOT_FOUND, _encode_get, _decode_get),
    OP_SCAN: _op(OP_SCAN, (_KEY, _KEY, "I"), "scan", ST_OK, _encode_scan, _decode_scan),
    OP_DELETE: _op(OP_DELETE, (_KEY,), "delete", ST_OK, _encode_delete, _decode_delete),
    OP_STATS: _op(OP_STATS, (), "stats", ST_OK, _encode_stats, _decode_stats),
}


def encode_frame(opcode: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _HEADER.pack(len(payload), opcode) + payload


def _frame_end(buf: bytes) -> tuple[int, int]:
    """(opcode, end) of the frame at the head of buf; ProtocolError(opcode) if oversized."""
    length, opcode = _HEADER.unpack_from(buf)
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame length {length} exceeds {MAX_PAYLOAD}", opcode)
    return opcode, _HEADER.size + length


# Connections ``service`` counts that are open in this process, both ends.
_open_connections = 0
_open_lock = threading.Lock()


def count_connections(delta: int) -> None:
    """Add delta to the count of open connections that read_frame consults."""
    global _open_connections
    with _open_lock:
        _open_connections += delta


class FrameReader(NamedTuple):
    """A connection's socket and the bytes received past the last frame read."""

    sock: socket.socket
    buf: bytearray


def _recv(reader: FrameReader) -> bytes:
    """One recv's bytes; polls first while the process has one counted
    connection. The socket's kernel timeout still bounds the blocking recv,
    whose BlockingIOError the caller sees."""
    sock = reader.sock
    if _open_connections == 1:
        deadline = perf_counter() + POLL_S
        while True:
            try:
                return sock.recv(_RECV_BYTES, socket.MSG_DONTWAIT)
            except BlockingIOError:
                if perf_counter() >= deadline:
                    break
    return sock.recv(_RECV_BYTES)


def frame_ready(buf: bytearray) -> bool:
    """Whether ``read_frame`` answers from buf without a recv: buf holds a
    whole frame, or a header whose length exceeds MAX_PAYLOAD."""
    if len(buf) < _HEADER.size:
        return False
    length = _U32.unpack_from(buf)[0]
    return length > MAX_PAYLOAD or len(buf) >= _HEADER.size + length


def read_frame(reader: FrameReader) -> tuple[int, bytes] | None:
    """Next frame on the reader's connection, or None on clean EOF at a frame
    boundary; it receives only while no whole frame is buffered. Raises
    ConnectionError if the peer closes mid-frame, and ProtocolError carrying
    the frame's opcode if its length exceeds MAX_PAYLOAD. On a non-blocking
    socket, BlockingIOError means no whole frame has arrived yet; the bytes
    received stay buffered for the next call."""
    buf = reader.buf
    while not frame_ready(buf):
        chunk = _recv(reader)
        if not chunk:
            if buf:
                raise ConnectionError("connection closed mid-frame")
            return None
        if not buf and len(chunk) >= _HEADER.size:  # the common case: one whole frame
            opcode, end = _frame_end(chunk)
            if end == len(chunk):
                return opcode, chunk[_HEADER.size:]
        buf += chunk
    opcode, end = _frame_end(buf)
    payload = bytes(buf[_HEADER.size:end])
    del buf[:end]
    return opcode, payload


def encode_request(req: tuple) -> bytes:
    """Full request frame for a request tuple (opcode, *fields)."""
    op = _OPS.get(req[0])
    if op is None:
        raise ProtocolError(f"not a request: {req!r}")
    for i in op.keys:
        _check_key(req[i])
    try:
        return op.header + op.payload.pack(*req[1:])
    except struct.error as exc:  # a field its struct code cannot hold
        raise ProtocolError(f"cannot encode {op.method.upper()} request: {exc}", req[0]) from exc


def decode_request(opcode: int, payload: bytes) -> tuple:
    """Parse a request payload into (opcode, *fields); ProtocolError on an
    unknown opcode or a bad size."""
    op = _OPS.get(opcode)
    if op is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    if len(payload) != op.payload.size:
        raise ProtocolError(f"{op.method.upper()} payload must be {op.payload.size} bytes")
    return (opcode, *op.payload.unpack(payload))


def encode_response(resp: tuple) -> bytes:
    """Response payload bytes (status byte first) for (opcode, status, result)."""
    opcode, status, result = resp
    op = _OPS.get(opcode)
    if op is None:
        raise ProtocolError(f"not a response: {resp!r}")
    if status in _ERRORS:
        return _STATUS[status]
    if status != (op.absent if result is None else ST_OK):
        raise ProtocolError(f"status {status} does not fit {resp!r}")
    return _STATUS[status] + op.encode_body(result)


def decode_response(opcode: int, payload: bytes) -> tuple:
    """Parse a response payload for the given request opcode into
    (opcode, status, result)."""
    op = _OPS.get(opcode)
    if op is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    if not payload:
        raise ProtocolError("empty response payload")
    status, body = payload[0], payload[1:]
    if status in _ERRORS:
        if body:
            raise ProtocolError("error response carries no body")
        return opcode, status, None
    try:
        result = op.decode_body(body)
    except struct.error as exc:
        raise ProtocolError(f"malformed {op.method.upper()} response: {exc}") from exc
    if status != (op.absent if result is None else ST_OK):
        raise ProtocolError(f"status {status} does not fit a {op.method.upper()} response")
    return opcode, status, result


def error_response_frame(opcode: int, status: int) -> bytes:
    """A bare-status response frame, echoing the (possibly unknown) opcode."""
    return encode_frame(opcode, _STATUS[status])
