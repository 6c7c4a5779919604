"""Binary wire protocol for the store service.

Frames are length-prefixed: a big-endian u32 payload byte count, one opcode
byte, then the payload (at most 16 MiB). Every request frame yields exactly
one response frame on the same connection, carrying the request's opcode; the
first response payload byte is a status code.

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

Error statuses (BAD_REQUEST, INTERNAL) carry the status byte only.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

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

_HEADER = struct.Struct(">IB")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_STATS = struct.Struct(">8Q")
_KEY = f"{KEY_BYTES}s"


class ProtocolError(ValueError):
    """A frame or payload violates the wire format.

    ``opcode`` is the offending frame's opcode when its header was read.
    """

    def __init__(self, message: str, opcode: int | None = None):
        super().__init__(message)
        self.opcode = opcode


@dataclass(frozen=True)
class PutRequest:
    key: bytes
    value: int


@dataclass(frozen=True)
class GetRequest:
    key: bytes


@dataclass(frozen=True)
class ScanRequest:
    start: bytes
    end_exclusive: bytes
    max_results: int


@dataclass(frozen=True)
class DeleteRequest:
    key: bytes


@dataclass(frozen=True)
class StatsRequest:
    pass


@dataclass(frozen=True)
class PutResponse:
    status: int
    old_value: int | None = None


@dataclass(frozen=True)
class GetResponse:
    status: int
    value: int | None = None


@dataclass(frozen=True)
class ScanResponse:
    status: int
    entries: tuple[tuple[bytes, int], ...] = ()


@dataclass(frozen=True)
class DeleteResponse:
    status: int
    removed: bool = False


@dataclass(frozen=True)
class StatsResponse:
    status: int
    stats: IndexStats | None = None


Request = PutRequest | GetRequest | ScanRequest | DeleteRequest | StatsRequest
Response = PutResponse | GetResponse | ScanResponse | DeleteResponse | StatsResponse


class _Op(NamedTuple):
    """One opcode's message types and request layout."""

    opcode: int
    request: type
    response: type
    payload: struct.Struct  # request payload, one code per field in field order
    header: bytes  # request frame header, fixed since the payload size is
    keys: tuple[str, ...]  # fields that must be KEY_BYTES long


def _op(opcode: int, request: type, response: type, *layout: str) -> _Op:
    """Table entry; ``layout`` is each request field's struct code, in field order."""
    names = [f.name for f in fields(request)]
    keys = tuple(n for n, code in zip(names, layout, strict=True) if code == _KEY)
    payload = struct.Struct(">" + "".join(layout))
    return _Op(opcode, request, response, payload,
               _HEADER.pack(payload.size, opcode), keys)


_OPS = {
    op.opcode: op
    for op in (
        _op(OP_PUT, PutRequest, PutResponse, _KEY, "Q"),
        _op(OP_GET, GetRequest, GetResponse, _KEY),
        _op(OP_SCAN, ScanRequest, ScanResponse, _KEY, _KEY, "I"),
        _op(OP_DELETE, DeleteRequest, DeleteResponse, _KEY),
        _op(OP_STATS, StatsRequest, StatsResponse),
    )
}
_OP_OF_REQUEST = {op.request: op for op in _OPS.values()}


def _check_key(key: bytes, what: str = "key") -> bytes:
    if len(key) != KEY_BYTES:
        raise ProtocolError(f"{what} must be {KEY_BYTES} bytes, got {len(key)}")
    return key


def encode_frame(opcode: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _HEADER.pack(len(payload), opcode) + payload


def decode_frame(buf: bytes) -> tuple[int, bytes, int]:
    """Decode one frame from the head of buf: (opcode, payload, bytes consumed).

    Raises ProtocolError if the buffer is short or the length is oversized.
    """
    if len(buf) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    length, opcode = _HEADER.unpack_from(buf)
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame length {length} exceeds {MAX_PAYLOAD}")
    end = _HEADER.size + length
    if len(buf) < end:
        raise ProtocolError("truncated frame payload")
    return opcode, buf[_HEADER.size:end], end


def read_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Read one frame; None on clean EOF at a frame boundary.

    Raises ConnectionError if the peer closes mid-frame, and ProtocolError
    carrying the frame's opcode if its length exceeds MAX_PAYLOAD.
    """
    header = sock.recv(_HEADER.size)
    if not header:
        return None
    opcode = None
    chunks, got, want = [header], len(header), _HEADER.size
    while True:
        while got < want:
            part = sock.recv(want - got)
            if not part:
                raise ConnectionError("connection closed mid-frame")
            chunks.append(part)
            got += len(part)
        if opcode is not None:
            return opcode, b"".join(chunks)
        length, opcode = _HEADER.unpack(b"".join(chunks))
        if length > MAX_PAYLOAD:
            raise ProtocolError(f"frame length {length} exceeds {MAX_PAYLOAD}", opcode)
        chunks, got, want = [], 0, length


def encode_request(req: Request) -> bytes:
    """Full request frame for any request message."""
    op = _OP_OF_REQUEST.get(type(req))
    if op is None:
        raise ProtocolError(f"not a request message: {req!r}")
    values = req.__dict__  # set by the dataclass __init__, in field order
    for name in op.keys:
        _check_key(values[name], name)
    return op.header + op.payload.pack(*values.values())


def decode_request(opcode: int, payload: bytes) -> Request:
    """Parse a request payload; ProtocolError on unknown opcode or bad size."""
    op = _OPS.get(opcode)
    if op is None:
        raise ProtocolError(f"unknown opcode {opcode}")
    if len(payload) != op.payload.size:
        raise ProtocolError(f"{op.request.__name__} payload must be {op.payload.size} bytes")
    return op.request(*op.payload.unpack(payload))


def encode_response(resp: Response) -> bytes:
    """Response payload bytes (status byte first)."""
    status = bytes([resp.status])
    if resp.status in (ST_BAD_REQUEST, ST_INTERNAL):
        return status
    if isinstance(resp, PutResponse):
        if resp.old_value is None:
            return status + b"\x00"
        return status + b"\x01" + _U64.pack(resp.old_value)
    if isinstance(resp, GetResponse):
        if resp.status == ST_OK:
            if resp.value is None:
                raise ProtocolError("GET OK response requires a value")
            return status + _U64.pack(resp.value)
        return status
    if isinstance(resp, ScanResponse):
        parts = [status, _U32.pack(len(resp.entries))]
        for key, value in resp.entries:
            parts.append(_check_key(key))
            parts.append(_U64.pack(value))
        return b"".join(parts)
    if isinstance(resp, DeleteResponse):
        return status + (b"\x01" if resp.removed else b"\x00")
    if isinstance(resp, StatsResponse):
        if resp.stats is None:
            raise ProtocolError("STATS OK response requires counters")
        s = resp.stats
        return status + _STATS.pack(
            s.puts,
            s.gets,
            s.scans,
            s.deletes,
            s.cache_hits,
            s.cache_misses,
            s.resident_entries,
            s.cache_entries,
        )
    raise ProtocolError(f"not a response message: {resp!r}")


def decode_response(opcode: int, payload: bytes) -> Response:
    """Parse a response payload for the given request opcode."""
    if not payload:
        raise ProtocolError("empty response payload")
    status = payload[0]
    body = payload[1:]
    if status in (ST_BAD_REQUEST, ST_INTERNAL):
        if body:
            raise ProtocolError("error response carries no body")
        op = _OPS.get(opcode)
        if op is None:
            raise ProtocolError(f"unknown opcode {opcode}")
        return op.response(status)
    if status not in (ST_OK, ST_NOT_FOUND):
        raise ProtocolError(f"unknown status {status}")

    if opcode == OP_PUT:
        if len(body) < 1:
            raise ProtocolError("PUT response missing had_previous flag")
        if body[0] == 0:
            if len(body) != 1:
                raise ProtocolError("PUT response trailing bytes")
            return PutResponse(status)
        if body[0] != 1 or len(body) != 9:
            raise ProtocolError("malformed PUT response")
        return PutResponse(status, _U64.unpack_from(body, 1)[0])
    if opcode == OP_GET:
        if status == ST_OK:
            if len(body) != 8:
                raise ProtocolError("GET OK response must carry 8 value bytes")
            return GetResponse(status, _U64.unpack(body)[0])
        if body:
            raise ProtocolError("GET NOT_FOUND response carries no body")
        return GetResponse(status)
    if opcode == OP_SCAN:
        if len(body) < 4:
            raise ProtocolError("SCAN response missing count")
        count = _U32.unpack_from(body)[0]
        expected = 4 + count * (KEY_BYTES + 8)
        if len(body) != expected:
            raise ProtocolError("SCAN response length mismatch")
        entries = []
        off = 4
        for _ in range(count):
            key = body[off : off + KEY_BYTES]
            value = _U64.unpack_from(body, off + KEY_BYTES)[0]
            entries.append((key, value))
            off += KEY_BYTES + 8
        return ScanResponse(status, tuple(entries))
    if opcode == OP_DELETE:
        if len(body) != 1 or body[0] > 1:
            raise ProtocolError("malformed DELETE response")
        return DeleteResponse(status, bool(body[0]))
    if opcode == OP_STATS:
        if len(body) != _STATS.size:
            raise ProtocolError(f"STATS response must carry {_STATS.size} bytes")
        return StatsResponse(status, IndexStats(*_STATS.unpack(body)))
    raise ProtocolError(f"unknown opcode {opcode}")


def error_response_frame(opcode: int, status: int) -> bytes:
    """A bare-status response frame, echoing the (possibly unknown) opcode."""
    return encode_frame(opcode, bytes([status]))
