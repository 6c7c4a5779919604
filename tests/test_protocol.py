from __future__ import annotations

import itertools
import random
import socket

import pytest
from hypothesis import given, settings, strategies as st

from kvcmeta import protocol as wire
from kvcmeta.store import BadRangeError, IndexStats

KEY = bytes(range(32))
KEY2 = bytes(range(1, 33))


def read_whole_frame(frame: bytes) -> tuple[int, bytes]:
    """(opcode, payload) of one whole frame, read by ``read_frame`` from a
    reader that holds it already and so never touches its socket."""
    reader = wire.FrameReader(None, bytearray(frame))
    opcode, payload = wire.read_frame(reader)
    assert not reader.buf
    return opcode, payload


def _read_cut_off(data: bytes) -> None:
    """``read_frame`` on a connection whose peer sends data and closes."""
    sock, writer = socket.socketpair()
    with sock:
        with writer:
            writer.sendall(data)
        wire.read_frame(wire.FrameReader(sock, bytearray()))


class TestFraming:
    def test_frame_layout(self):
        frame = wire.encode_frame(wire.OP_GET, b"abc")
        assert frame == b"\x00\x00\x00\x03" + bytes([wire.OP_GET]) + b"abc"

    def test_read_frame_round_trip(self):
        frame = wire.encode_frame(7, b"payload")
        reader = wire.FrameReader(None, bytearray(frame + b"extra"))
        assert wire.read_frame(reader) == (7, b"payload")
        assert reader.buf == b"extra"

    def test_truncated_header(self):
        with pytest.raises(ConnectionError, match="mid-frame"):
            _read_cut_off(b"\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(ConnectionError, match="mid-frame"):
            _read_cut_off(b"\x00\x00\x00\x05\x01ab")

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            wire.encode_frame(1, b"\x00" * (wire.MAX_PAYLOAD + 1))

    def test_oversized_length_rejected_on_decode(self):
        bad = (wire.MAX_PAYLOAD + 1).to_bytes(4, "big") + b"\x01"
        with pytest.raises(wire.ProtocolError, match="exceeds") as exc:
            wire.read_frame(wire.FrameReader(None, bytearray(bad)))
        assert exc.value.opcode == 1


class ScriptedSocket:
    """Hands out one scripted chunk per recv, then EOF, and counts the recvs
    and records their flags. The first ``empty_polls`` non-blocking recvs
    find nothing yet; a blocking recv waits them out."""

    def __init__(self, *chunks: bytes, empty_polls: int = 0):
        self.chunks = list(chunks)
        self.empty_polls = empty_polls
        self.recvs = 0
        self.flags: list[int] = []

    def recv(self, bufsize: int, flags: int = 0) -> bytes:
        self.recvs += 1
        self.flags.append(flags)
        if flags & socket.MSG_DONTWAIT and self.empty_polls:
            self.empty_polls -= 1
            raise BlockingIOError
        self.empty_polls = 0
        chunk = self.chunks.pop(0) if self.chunks else b""
        assert len(chunk) <= bufsize
        return chunk


def _reader(*chunks: bytes) -> tuple[wire.FrameReader, ScriptedSocket]:
    sock = ScriptedSocket(*chunks)
    return wire.FrameReader(sock, bytearray()), sock


class TestFrameReader:
    FRAME = wire.encode_frame(wire.OP_GET, b"payload")

    def test_whole_frame_costs_one_recv(self):
        reader, sock = _reader(self.FRAME)
        frame = wire.read_frame(reader)
        assert frame == (wire.OP_GET, b"payload")
        assert type(frame[1]) is bytes
        assert sock.recvs == 1

    def test_frame_arriving_one_byte_per_recv_is_reassembled(self):
        reader, sock = _reader(*(self.FRAME[i:i + 1] for i in range(len(self.FRAME))))
        assert wire.read_frame(reader) == (wire.OP_GET, b"payload")
        assert sock.recvs == len(self.FRAME)
        assert wire.read_frame(reader) is None

    def test_leftover_bytes_serve_the_next_calls(self):
        first = wire.encode_frame(wire.OP_PUT, b"one")
        third = wire.encode_frame(wire.OP_SCAN, b"three")
        reader, sock = _reader(first + self.FRAME + third[:6], third[6:])
        assert wire.read_frame(reader) == (wire.OP_PUT, b"one")
        assert wire.read_frame(reader) == (wire.OP_GET, b"payload")
        assert sock.recvs == 1
        assert wire.read_frame(reader) == (wire.OP_SCAN, b"three")
        assert sock.recvs == 2

    def test_clean_eof_at_a_frame_boundary_is_none(self):
        assert wire.read_frame(_reader()[0]) is None
        reader, _ = _reader(self.FRAME)
        assert wire.read_frame(reader) == (wire.OP_GET, b"payload")
        assert wire.read_frame(reader) is None

    @pytest.mark.parametrize("cut", [1, 4, 5, 8])  # mid-header (1, 4) or mid-payload (5, 8)
    def test_eof_mid_frame_is_connection_error(self, cut):
        reader, _ = _reader(self.FRAME[:cut])
        with pytest.raises(ConnectionError):
            wire.read_frame(reader)

    def test_oversized_header_is_protocol_error_with_its_opcode(self):
        reader, _ = _reader((wire.MAX_PAYLOAD + 1).to_bytes(4, "big") + bytes([wire.OP_SCAN]))
        with pytest.raises(wire.ProtocolError, match="exceeds") as exc:
            wire.read_frame(reader)
        assert exc.value.opcode == wire.OP_SCAN


class TestPolling:
    """A reader polls with MSG_DONTWAIT for POLL_S while the process has one
    counted connection, then sleeps in one blocking recv."""

    FRAME = wire.encode_frame(wire.OP_GET, b"payload")
    DONTWAIT = socket.MSG_DONTWAIT

    @pytest.fixture(autouse=True)
    def only_connection(self, monkeypatch):
        monkeypatch.setattr(wire, "_open_connections", 1)

    def test_frame_after_k_empty_polls_needs_no_blocking_recv(self, monkeypatch):
        monkeypatch.setattr(wire, "perf_counter", lambda: 0.0)  # the budget never runs out
        sock = ScriptedSocket(self.FRAME, empty_polls=5)
        assert wire.read_frame(wire.FrameReader(sock, bytearray())) == (
            wire.OP_GET, b"payload")
        assert sock.flags == [self.DONTWAIT] * 6

    def test_spent_budget_is_followed_by_exactly_one_blocking_recv(self, monkeypatch):
        monkeypatch.setattr(wire, "POLL_S", 50e-6)
        monkeypatch.setattr(wire, "perf_counter", itertools.count(0.0, 20e-6).__next__)
        sock = ScriptedSocket(self.FRAME, empty_polls=10**6)
        assert wire.read_frame(wire.FrameReader(sock, bytearray())) == (
            wire.OP_GET, b"payload")
        # clock reads: deadline 50 us; misses seen at 20, 40 and 60 us
        assert sock.flags == [self.DONTWAIT] * 3 + [0]

    def test_eof_while_polling_is_none(self):
        sock = ScriptedSocket(empty_polls=2)
        assert wire.read_frame(wire.FrameReader(sock, bytearray())) is None
        assert sock.flags == [self.DONTWAIT] * 3

    def test_no_polling_beside_another_connection(self, monkeypatch):
        monkeypatch.setattr(wire, "_open_connections", 2)
        sock = ScriptedSocket(self.FRAME[:3], self.FRAME[3:], empty_polls=5)
        assert wire.read_frame(wire.FrameReader(sock, bytearray())) == (
            wire.OP_GET, b"payload")
        assert wire.read_frame(wire.FrameReader(sock, bytearray())) is None
        assert sock.flags == [0, 0, 0]


class TestRequestGoldenBytes:
    """Pin the wire format byte-for-byte so other implementations can match."""

    def test_put(self):
        frame = wire.encode_request((wire.OP_PUT, KEY, 0x1122334455667788))
        assert frame[:5] == b"\x00\x00\x00\x28\x01"  # 40-byte payload, opcode 1
        assert frame[5:37] == KEY
        assert frame[37:] == bytes.fromhex("1122334455667788")

    def test_get(self):
        frame = wire.encode_request(wire.GetRequest(KEY))
        assert frame == b"\x00\x00\x00\x20\x02" + KEY

    def test_scan(self):
        frame = wire.encode_request((wire.OP_SCAN, KEY, KEY2, 300))
        assert frame[:5] == b"\x00\x00\x00\x44\x03"  # 68-byte payload, opcode 3
        assert frame[5:37] == KEY
        assert frame[37:69] == KEY2
        assert frame[69:] == (300).to_bytes(4, "big")

    def test_delete(self):
        frame = wire.encode_request((wire.OP_DELETE, KEY))
        assert frame == b"\x00\x00\x00\x20\x04" + KEY

    def test_stats(self):
        assert wire.encode_request((wire.OP_STATS,)) == b"\x00\x00\x00\x00\x05"


class TestResponseGoldenBytes:
    def test_get_ok(self):
        payload = wire.encode_response(wire.GetResponse(wire.ST_OK, 5))
        assert payload == b"\x00" + (5).to_bytes(8, "big")

    def test_get_not_found(self):
        assert wire.encode_response(wire.GetResponse(wire.ST_NOT_FOUND)) == b"\x01"

    def test_put_with_previous(self):
        payload = wire.encode_response((wire.OP_PUT, wire.ST_OK, 9))
        assert payload == b"\x00\x01" + (9).to_bytes(8, "big")

    def test_put_without_previous(self):
        assert wire.encode_response((wire.OP_PUT, wire.ST_OK, None)) == b"\x00\x00"

    def test_scan_two_entries(self):
        payload = wire.encode_response(
            wire.ScanResponse(wire.ST_OK, ((KEY, 1), (KEY2, 2)))
        )
        assert payload[0] == wire.ST_OK
        assert payload[1:5] == (2).to_bytes(4, "big")
        assert payload[5:37] == KEY
        assert payload[37:45] == (1).to_bytes(8, "big")
        assert payload[45:77] == KEY2
        assert len(payload) == 1 + 4 + 2 * 40

    def test_delete(self):
        assert wire.encode_response((wire.OP_DELETE, wire.ST_OK, True)) == b"\x00\x01"
        assert wire.encode_response((wire.OP_DELETE, wire.ST_OK, False)) == b"\x00\x00"

    def test_stats_is_8_u64(self):
        stats = IndexStats(1, 2, 3, 4, 5, 6, 7, 8)
        payload = wire.encode_response((wire.OP_STATS, wire.ST_OK, stats))
        assert len(payload) == 1 + 64
        assert payload[1:] == b"".join(i.to_bytes(8, "big") for i in range(1, 9))

    def test_error_statuses_carry_status_only(self):
        for status in (wire.ST_BAD_REQUEST, wire.ST_INTERNAL):
            assert wire.encode_response(wire.GetResponse(status)) == bytes([status])
            assert wire.encode_response(wire.ScanResponse(status)) == bytes([status])


_keys = st.binary(min_size=32, max_size=32)
_values = st.integers(min_value=0, max_value=2**64 - 1)
_u32 = st.integers(min_value=0, max_value=2**32 - 1)

_requests = st.one_of(
    st.tuples(st.just(wire.OP_PUT), _keys, _values),
    st.builds(wire.GetRequest, _keys),
    st.tuples(st.just(wire.OP_SCAN), _keys, _keys, _u32),
    st.tuples(st.just(wire.OP_DELETE), _keys),
    st.just((wire.OP_STATS,)),
)

_stats = st.builds(
    IndexStats, *([st.integers(min_value=0, max_value=2**64 - 1)] * 8)
)

_responses = st.one_of(
    st.tuples(st.just(wire.OP_PUT), st.just(wire.ST_OK), st.none() | _values),
    st.builds(wire.GetResponse, st.just(wire.ST_OK), _values),
    st.builds(wire.GetResponse, st.just(wire.ST_NOT_FOUND)),
    st.builds(
        wire.ScanResponse,
        st.just(wire.ST_OK),
        st.lists(st.tuples(_keys, _values), max_size=5).map(tuple),
    ),
    st.tuples(st.just(wire.OP_DELETE), st.just(wire.ST_OK), st.booleans()),
    st.tuples(st.just(wire.OP_STATS), st.just(wire.ST_OK), _stats),
    st.builds(wire.GetResponse, st.sampled_from([wire.ST_BAD_REQUEST, wire.ST_INTERNAL])),
    st.builds(wire.ScanResponse, st.sampled_from([wire.ST_BAD_REQUEST, wire.ST_INTERNAL])),
)


@given(_requests)
@settings(max_examples=300, deadline=None)
def test_request_round_trip_property(req):
    assert wire.decode_request(*read_whole_frame(wire.encode_request(req))) == req


@given(_responses)
@settings(max_examples=300, deadline=None)
def test_response_round_trip_property(resp):
    payload = wire.encode_response(resp)
    assert wire.decode_response(resp[0], payload) == resp


def random_request(rng: random.Random) -> tuple:
    kind = rng.randrange(5)
    key = rng.randbytes(32)
    if kind == 0:
        return (wire.OP_PUT, key, rng.getrandbits(64))
    if kind == 1:
        return wire.GetRequest(key)
    if kind == 2:
        return (wire.OP_SCAN, key, rng.randbytes(32), rng.getrandbits(32))
    if kind == 3:
        return (wire.OP_DELETE, key)
    return (wire.OP_STATS,)


def random_response(rng: random.Random) -> tuple[int, tuple]:
    kind = rng.randrange(6)
    if kind == 0:
        old = rng.getrandbits(64) if rng.random() < 0.5 else None
        return wire.OP_PUT, (wire.OP_PUT, wire.ST_OK, old)
    if kind == 1:
        return wire.OP_GET, wire.GetResponse(wire.ST_OK, rng.getrandbits(64))
    if kind == 2:
        return wire.OP_GET, wire.GetResponse(wire.ST_NOT_FOUND)
    if kind == 3:
        entries = tuple(
            (rng.randbytes(32), rng.getrandbits(64)) for _ in range(rng.randrange(4))
        )
        return wire.OP_SCAN, wire.ScanResponse(wire.ST_OK, entries)
    if kind == 4:
        return wire.OP_DELETE, (wire.OP_DELETE, wire.ST_OK, rng.random() < 0.5)
    stats = IndexStats(*(rng.getrandbits(64) for _ in range(8)))
    return wire.OP_STATS, (wire.OP_STATS, wire.ST_OK, stats)


def test_bulk_random_round_trip():
    """Seeded high-volume fuzz across all message types."""
    rng = random.Random(0xC0FFEE)
    for _ in range(20_000):
        req = random_request(rng)
        assert wire.decode_request(*read_whole_frame(wire.encode_request(req))) == req
        opcode, resp = random_response(rng)
        assert wire.decode_response(opcode, wire.encode_response(resp)) == resp


def test_unknown_opcode_rejected():
    with pytest.raises(wire.ProtocolError, match="unknown opcode"):
        wire.decode_request(0xFF, b"")


def test_request_field_out_of_range_is_protocol_error_with_its_opcode():
    cases = [
        ((wire.OP_PUT, KEY, 2**64), "PUT"),
        ((wire.OP_PUT, KEY, -1), "PUT"),
        ((wire.OP_SCAN, KEY, KEY2, 2**32), "SCAN"),
    ]
    for req, name in cases:
        with pytest.raises(wire.ProtocolError, match=f"^cannot encode {name} request") as raised:
            wire.encode_request(req)
        assert raised.value.opcode == req[0]


def test_bad_payload_sizes_rejected():
    cases = [
        (wire.OP_PUT, b"\x00" * 39),
        (wire.OP_GET, b"\x00" * 31),
        (wire.OP_SCAN, b"\x00" * 67),
        (wire.OP_DELETE, b"\x00" * 33),
        (wire.OP_STATS, b"\x00"),
    ]
    for opcode, payload in cases:
        with pytest.raises(wire.ProtocolError):
            wire.decode_request(opcode, payload)


def test_malformed_responses_rejected():
    with pytest.raises(wire.ProtocolError):
        wire.decode_response(wire.OP_GET, b"")
    with pytest.raises(wire.ProtocolError):
        wire.decode_response(wire.OP_GET, b"\x00\x01\x02")  # OK but 2 value bytes
    with pytest.raises(wire.ProtocolError):
        wire.decode_response(wire.OP_SCAN, b"\x00\x00\x00\x00\x02")  # count 2, no entries
    with pytest.raises(wire.ProtocolError):
        wire.decode_response(wire.OP_GET, b"\x09")  # unknown status


def test_not_found_is_get_only():
    """A body that is well formed under OK is malformed under NOT_FOUND on
    every opcode but GET, in both directions."""
    cases = [
        (wire.OP_PUT, b"\x00", (wire.OP_PUT, wire.ST_NOT_FOUND, None)),
        (wire.OP_SCAN, b"\x00\x00\x00\x00", wire.ScanResponse(wire.ST_NOT_FOUND)),
        (wire.OP_DELETE, b"\x01", (wire.OP_DELETE, wire.ST_NOT_FOUND, True)),
        (wire.OP_STATS, bytes(64), (wire.OP_STATS, wire.ST_NOT_FOUND, IndexStats())),
    ]
    for opcode, body, resp in cases:
        assert wire.decode_response(opcode, b"\x00" + body)[0] == resp[0]
        with pytest.raises(wire.ProtocolError):
            wire.decode_response(opcode, bytes([wire.ST_NOT_FOUND]) + body)
        with pytest.raises(wire.ProtocolError):
            wire.encode_response(resp)


def test_error_response_frame_echoes_opcode():
    frame = wire.error_response_frame(0xFF, wire.ST_BAD_REQUEST)
    assert read_whole_frame(frame) == (0xFF, bytes([wire.ST_BAD_REQUEST]))


class FakeBackend:
    """Records each call and answers it with a fixed result: a GET finds KEY
    only. With ``raises`` set, every method records its call and raises it."""

    def __init__(self, raises: Exception | None = None):
        self.raises = raises
        self.calls: list[tuple] = []

    def _answer(self, call: tuple, result):
        self.calls.append(call)
        if self.raises is not None:
            raise self.raises
        return result

    def put(self, key, value): return self._answer(("put", key, value), 9)
    def get(self, key): return self._answer(("get", key), 5 if key == KEY else None)
    def scan(self, start, end, max_results):
        return self._answer(("scan", start, end, max_results), [(KEY, 1)])
    def delete(self, key): return self._answer(("delete", key), True)
    def stats(self): return self._answer(("stats",), IndexStats(1, 2, 3, 4, 5, 6, 7, 8))


SCAN_PAYLOAD = KEY + KEY2 + (3).to_bytes(4, "big")


class TestRespond:
    """``respond`` turns one request frame into one whole response frame, with no socket."""

    @pytest.mark.parametrize("opcode, payload, call, frame", [
        (wire.OP_PUT, KEY + (7).to_bytes(8, "big"), ("put", KEY, 7),
         b"\x00\x00\x00\x0a\x01" + b"\x00\x01" + (9).to_bytes(8, "big")),
        (wire.OP_GET, KEY, ("get", KEY), b"\x00\x00\x00\x09\x02" + b"\x00" + (5).to_bytes(8, "big")),
        (wire.OP_SCAN, SCAN_PAYLOAD, ("scan", KEY, KEY2, 3),
         b"\x00\x00\x00\x2d\x03" + b"\x00" + (1).to_bytes(4, "big") + KEY + (1).to_bytes(8, "big")),
        (wire.OP_DELETE, KEY, ("delete", KEY), b"\x00\x00\x00\x02\x04" + b"\x00\x01"),
        (wire.OP_STATS, b"", ("stats",),
         b"\x00\x00\x00\x41\x05" + b"\x00" + b"".join(i.to_bytes(8, "big") for i in range(1, 9))),
    ], ids=["put", "get", "scan", "delete", "stats"])
    def test_each_opcode_gets_its_ok_reply(self, opcode, payload, call, frame):
        backend = FakeBackend()
        assert wire.respond(backend, opcode, payload) == frame
        assert backend.calls == [call]

    def test_get_of_an_absent_key_is_not_found(self):
        assert wire.respond(FakeBackend(), wire.OP_GET, KEY2) == b"\x00\x00\x00\x01\x02\x01"

    @pytest.mark.parametrize("exc, frame", [
        (BadRangeError("start >= end_exclusive"), b"\x00\x00\x00\x01\x03\x02"),
        (RuntimeError("backend broke"), b"\x00\x00\x00\x01\x03\x03"),
    ], ids=["BadRangeError", "RuntimeError"])
    def test_a_raising_method_gets_a_bare_status(self, exc, frame):
        backend = FakeBackend(raises=exc)
        assert wire.respond(backend, wire.OP_SCAN, SCAN_PAYLOAD) == frame
        assert backend.calls == [("scan", KEY, KEY2, 3)]

    @pytest.mark.parametrize("opcode, payload, frame", [
        (wire.OP_GET, KEY[:31], b"\x00\x00\x00\x01\x02\x02"),
        (0xFF, b"", b"\x00\x00\x00\x01\xff\x02"),
    ], ids=["wrong-size", "unknown-opcode"])
    def test_an_undecodable_request_gets_bad_request_with_its_opcode(self, opcode, payload, frame):
        backend = FakeBackend()
        assert wire.respond(backend, opcode, payload) == frame
        assert backend.calls == []
