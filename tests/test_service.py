from __future__ import annotations

import math
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from kvcmeta import protocol as wire
from kvcmeta.service import (
    RemoteBackend, StoreServer, TransportError, connect, parse_hostport, serve,
)
from kvcmeta.store import CacheConfig, HybridMetaStore, encode_key
from oracle_store import ModelStore

NS = b"svc"


def _wait_for_count(expected: int, timeout_s: float = 5.0) -> None:
    """A handler counts itself out when it sees its peer's EOF, after the
    peer's close returns, so wait for it."""
    deadline = time.monotonic() + timeout_s
    while wire._open_connections != expected and time.monotonic() < deadline:
        time.sleep(0.005)
    assert wire._open_connections == expected


@pytest.fixture(autouse=True)
def connection_count():
    """Every test leaves the process's open-connection count as it found it."""
    start = wire._open_connections
    yield start
    _wait_for_count(start)


@pytest.fixture
def server():
    store = HybridMetaStore()
    handle = serve(("127.0.0.1", 0), store)
    yield handle, store
    handle.stop()


@pytest.fixture
def remote(server):
    handle, _ = server
    backend = connect(handle.address)
    yield backend
    backend.close()


def test_remote_get_equals_inproc_get_for_random_keys(remote, server):
    _, store = server
    rng = random.Random(1)
    keys = [encode_key(NS, rng.randrange(100)) for _ in range(50)]
    for key in keys[::2]:
        remote.put(key, 7)
    local = HybridMetaStore()
    for key in keys[::2]:
        local.put(key, 7)
    for key in keys:
        assert remote.get(key) == local.get(key)


def test_transparency_on_randomized_sequence(remote):
    oracle = ModelStore()
    rng = random.Random(99)
    for _ in range(2_000):
        op = rng.randrange(4)
        bid = rng.randrange(200)
        key = encode_key(NS, bid)
        if op == 0:
            assert remote.put(key, bid) == oracle.put(key, bid)
        elif op == 1:
            assert remote.get(key) == oracle.get(key)
        elif op == 2:
            assert remote.delete(key) == oracle.delete(key)
        else:
            lo, hi = encode_key(NS, bid), encode_key(NS, bid + rng.randrange(1, 16))
            assert remote.scan(lo, hi, max_results=8) == oracle.scan(lo, hi, max_results=8)


def test_unknown_opcode_bad_request_and_connection_survives(server):
    handle, _ = server
    with socket.create_connection(handle.address, timeout=2.0) as sock:
        reader = wire.FrameReader(sock, bytearray())
        sock.sendall(wire.encode_frame(0xFF, b"junk"))
        frame = wire.read_frame(reader)
        assert frame is not None
        opcode, payload = frame
        assert opcode == 0xFF
        assert payload == bytes([wire.ST_BAD_REQUEST])
        # same connection still serves valid requests
        sock.sendall(wire.encode_request(wire.GetRequest(encode_key(NS, 1))))
        opcode, payload = wire.read_frame(reader)
        assert opcode == wire.OP_GET
        assert payload == bytes([wire.ST_NOT_FOUND])


def test_malformed_payload_bad_request_and_connection_survives(server):
    handle, _ = server
    with socket.create_connection(handle.address, timeout=2.0) as sock:
        reader = wire.FrameReader(sock, bytearray())
        sock.sendall(wire.encode_frame(wire.OP_GET, b"short"))
        _, payload = wire.read_frame(reader)
        assert payload == bytes([wire.ST_BAD_REQUEST])
        sock.sendall(wire.encode_request((wire.OP_STATS,)))
        opcode, payload = wire.read_frame(reader)
        assert opcode == wire.OP_STATS
        assert payload[0] == wire.ST_OK


def test_scan_with_empty_range_bad_request_and_connection_survives(server):
    handle, _ = server
    key = encode_key(NS, 5)
    with socket.create_connection(handle.address, timeout=2.0) as sock:
        reader = wire.FrameReader(sock, bytearray())
        for end in (key, encode_key(NS, 4)):  # start == end, start > end
            sock.sendall(wire.encode_request((wire.OP_SCAN, key, end, 10)))
            assert wire.read_frame(reader) == (wire.OP_SCAN, bytes([wire.ST_BAD_REQUEST]))
        sock.sendall(wire.encode_request(wire.GetRequest(key)))
        assert wire.read_frame(reader) == (wire.OP_GET, bytes([wire.ST_NOT_FOUND]))


def test_store_error_is_internal_and_the_client_keeps_its_connection(connection_count):
    store = HybridMetaStore(max_entries=1)
    with serve(("127.0.0.1", 0), store) as handle, connect(handle.address) as remote:
        remote.put(encode_key(NS, 1), 1)
        with pytest.raises(TransportError, match="^server reported an internal error$"):
            remote.put(encode_key(NS, 2), 2)  # StoreCapacityError on the server
        assert wire._open_connections == connection_count + 2  # not dropped
        assert remote.get(encode_key(NS, 1)) == 1


def test_out_of_u64_value_is_value_error_and_the_client_keeps_its_connection(
        server, connection_count):
    key = encode_key(NS, 1)
    with connect(server[0].address) as remote:
        remote.put(key, 1)
        for value in (2**64, -1):
            with pytest.raises(ValueError, match="PUT"):  # raised before anything is sent
                remote.put(key, value)
        assert wire._open_connections == connection_count + 2  # not dropped
        assert remote.get(key) == 1


def test_oversized_frame_bad_request_then_dropped(server, connection_count):
    handle, _ = server
    with socket.create_connection(handle.address, timeout=2.0) as sock:
        reader = wire.FrameReader(sock, bytearray())
        sock.sendall((wire.MAX_PAYLOAD + 1).to_bytes(4, "big") + bytes([wire.OP_GET]))
        assert wire.read_frame(reader) == (wire.OP_GET, bytes([wire.ST_BAD_REQUEST]))
        assert wire.read_frame(reader) is None  # framing is lost: the server hangs up
        assert wire._open_connections == connection_count  # counted out before it closed
    with connect(handle.address) as backend:
        assert backend.get(encode_key(NS, 1)) is None


def test_oversized_response_header_is_transport_error_and_reconnects():
    """A reply whose length header exceeds MAX_PAYLOAD desynchronizes the
    connection: the client reports TransportError and reconnects next call."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    accepted: list[int] = []

    def fake_server() -> None:
        replies = [(wire.MAX_PAYLOAD + 1).to_bytes(4, "big") + bytes([wire.OP_GET]),
                   wire.encode_frame(wire.OP_GET, bytes([wire.ST_NOT_FOUND]))]
        for reply in replies:
            conn, _ = listener.accept()
            with conn:
                accepted.append(1)
                wire.read_frame(wire.FrameReader(conn, bytearray()))
                conn.sendall(reply)
                conn.recv(1)  # hold the connection until the client drops it

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    try:
        start = wire._open_connections
        with RemoteBackend(*listener.getsockname(), timeout=2.0) as backend:
            with pytest.raises(TransportError):
                backend.get(encode_key(NS, 1))
            assert wire._open_connections == start  # dropped and counted out
            assert backend.get(encode_key(NS, 1)) is None
            assert wire._open_connections == start + 1
        assert wire._open_connections == start
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(accepted) == 2
    finally:
        listener.close()


def test_read_timeout_is_transport_error_and_reconnects():
    """A peer that reads the request but never replies: the call raises
    TransportError within the timeout and closes its socket, and the next
    call reconnects to a peer that answers."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    saw_eof: list[bool] = []

    def peer() -> None:
        for reply in (None, wire.encode_frame(wire.OP_GET, bytes([wire.ST_NOT_FOUND]))):
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                wire.read_frame(wire.FrameReader(conn, bytearray()))
                if reply is None:
                    saw_eof.append(conn.recv(1) == b"")  # silent until the client hangs up
                else:
                    conn.sendall(reply)
                    conn.recv(1)

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        with RemoteBackend(*listener.getsockname(), timeout=0.3) as backend:
            started = time.monotonic()
            # ``raised`` holds the failed call's frames and so its socket
            # object: the peer sees EOF only if the client closes it.
            with pytest.raises(TransportError) as raised:
                backend.get(encode_key(NS, 1))
            assert time.monotonic() - started < 2.0
            assert backend.get(encode_key(NS, 1)) is None
            assert saw_eof == [True]
            assert "exchange failed" in str(raised.value)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        listener.close()


def test_request_sent_one_byte_at_a_time_is_answered(server):
    handle, store = server
    key = encode_key(NS, 3)
    store.put(key, 33)
    with socket.create_connection(handle.address, timeout=2.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in wire.encode_request(wire.GetRequest(key)):
            sock.sendall(bytes([byte]))
            time.sleep(0.001)
        opcode, payload = wire.read_frame(wire.FrameReader(sock, bytearray()))
        assert wire.decode_response(opcode, payload) == wire.GetResponse(wire.ST_OK, 33)


def test_stop_drains_in_flight_and_wakes_idle_connections():
    entered, release = threading.Event(), threading.Event()

    class SlowStore(HybridMetaStore):
        def get(self, key):
            entered.set()
            release.wait(5.0)
            return super().get(key)

    handle = serve(("127.0.0.1", 0), SlowStore())
    conns = [socket.create_connection(handle.address, timeout=5.0) for _ in range(3)]
    idle, half, busy = conns
    try:
        half.sendall(b"\x00\x00")  # half a frame header
        busy.sendall(wire.encode_request(wire.GetRequest(encode_key(NS, 1))))
        assert entered.wait(5.0)
        stopper = threading.Thread(target=handle.stop)
        started = time.monotonic()
        stopper.start()
        time.sleep(0.2)
        release.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert time.monotonic() - started < 2.0
        assert wire.read_frame(wire.FrameReader(busy, bytearray())) == (
            wire.OP_GET, bytes([wire.ST_NOT_FOUND]))
        assert wire.read_frame(wire.FrameReader(idle, bytearray())) is None
    finally:
        release.set()
        for conn in conns:
            conn.close()


def test_stop_accepts_no_connection_that_arrives_with_it():
    """A connection that reaches the listener's backlog in the same select as
    stop()'s wake byte stays unaccepted: the drain would not shut it down
    and would wait ``DRAIN_S`` for it to close."""
    entered, release = threading.Event(), threading.Event()

    class SlowStore(HybridMetaStore):
        def get(self, key):
            entered.set()
            release.wait(5.0)
            return super().get(key)

    handle = serve(("127.0.0.1", 0), SlowStore())
    with socket.create_connection(handle.address, timeout=5.0) as busy:
        busy.sendall(wire.encode_request(wire.GetRequest(encode_key(NS, 1))))
        assert entered.wait(5.0)  # the loop is inside the backend call
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.2)  # the wake byte is written
        with socket.create_connection(handle.address, timeout=5.0):
            started = time.monotonic()
            release.set()
            stopper.join(timeout=10.0)
            assert not stopper.is_alive()
            assert time.monotonic() - started < 2.0


def test_stop_cuts_off_a_peer_that_does_not_read_its_replies(monkeypatch):
    monkeypatch.setattr(StoreServer, "DRAIN_S", 0.5)
    store = HybridMetaStore()
    for bid in range(1_000):
        store.put(encode_key(NS, bid), bid)
    handle = serve(("127.0.0.1", 0), store)
    scan = (wire.OP_SCAN, encode_key(NS, 0), encode_key(NS, 1_000), 1_000)
    with socket.create_connection(handle.address, timeout=5.0) as sock:
        # 400 replies of 40 kB outgrow the socket buffers: the handler blocks sending.
        sock.sendall(wire.encode_request(scan) * 400)
        time.sleep(0.5)
        stopper = threading.Thread(target=handle.stop, daemon=True)
        started = time.monotonic()
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert time.monotonic() - started < 3.0


def test_a_peer_that_does_not_read_delays_no_other_connection(server):
    """The loop sends without blocking: replies a stalled peer's buffers
    refuse wait while other connections are served."""
    handle, store = server
    for bid in range(1_000):
        store.put(encode_key(NS, bid), bid)
    scan = (wire.OP_SCAN, encode_key(NS, 0), encode_key(NS, 1_000), 1_000)
    with socket.create_connection(handle.address, timeout=5.0) as stalled:
        stalled.sendall(wire.encode_request(scan) * 400)  # 16 MB of replies, never read
        time.sleep(0.5)
        with connect(handle.address, timeout=5.0) as other:
            started = time.monotonic()
            assert other.get(encode_key(NS, 1)) == 1
            assert time.monotonic() - started < 1.0


# A peer with two connections: it pipelines a burst on one and reads every
# reply; 2 ms later it sends one frame on the other, and prints how long that
# frame's reply took and the reply itself, in hex. One thread selects over both.
_PIPELINING_PEER = """if True:
    import selectors, socket, sys, time
    host, port, burst_hex, frame_hex, left, reply_size = sys.argv[1:]
    left, reply_size = int(left), int(reply_size)
    burst_conn = socket.create_connection((host, int(port)))
    frame_conn = socket.create_connection((host, int(port)))
    burst_conn.sendall(bytes.fromhex(burst_hex))
    time.sleep(0.002)
    started = time.perf_counter()
    frame_conn.sendall(bytes.fromhex(frame_hex))
    sel = selectors.DefaultSelector()
    sel.register(burst_conn, selectors.EVENT_READ)
    sel.register(frame_conn, selectors.EVENT_READ)
    reply = b""
    while left or len(reply) < reply_size:
        for key, _ in sel.select():
            chunk = key.fileobj.recv(1 << 20)
            if not chunk:
                sys.exit("closed with replies unread")
            if key.fileobj is burst_conn:
                left -= len(chunk)
            else:
                reply += chunk
                if len(reply) == reply_size:
                    waited = time.perf_counter() - started
    print(waited, reply.hex())
"""


def test_a_pipelining_peer_delays_no_other_connection(server):
    """A turn answers one frame, so a get on a second connection waits for a few
    frames of a peer that pipelines 400 scans of 40 kB, not for the burst. The
    peer, both connections and the timing live in a child process, off the
    GIL of the server's thread."""
    handle, store = server
    for bid in range(1_000):
        store.put(encode_key(NS, bid), bid)
    scan = wire.encode_request((wire.OP_SCAN, encode_key(NS, 0), encode_key(NS, 1_000), 1_000))
    get = wire.encode_request(wire.GetRequest(encode_key(NS, 1)))
    reply = wire.encode_frame(wire.OP_GET, wire.encode_response(wire.GetResponse(wire.ST_OK, 1)))
    host, port = handle.address
    peer = subprocess.run(
        [sys.executable, "-c", _PIPELINING_PEER, host, str(port), (scan * 400).hex(), get.hex(),
         str(400 * (5 + 1 + 4 + 1_000 * 40)), str(len(reply))],
        capture_output=True, text=True, timeout=60)
    assert peer.returncode == 0, peer.stderr
    waited, reply_hex = peer.stdout.split()
    assert bytes.fromhex(reply_hex) == reply
    assert float(waited) < 0.005, f"the get took {float(waited) * 1e3:.1f} ms"


def test_half_a_frame_costs_the_loop_no_cpu(server):
    """A connection holding half a frame is watched for read: write interest on a
    buffer without a whole frame would spin the loop."""
    handle, _ = server
    frame = wire.encode_request(wire.GetRequest(encode_key(NS, 1)))
    with socket.create_connection(handle.address, timeout=5.0) as sock:
        sock.sendall(frame[:20])
        time.sleep(0.1)  # the loop has taken the bytes
        started = time.process_time()
        time.sleep(0.5)
        assert time.process_time() - started < 0.1
        sock.sendall(frame[20:])
        assert wire.read_frame(wire.FrameReader(sock, bytearray())) == (
            wire.OP_GET, bytes([wire.ST_NOT_FOUND]))


def test_an_oversized_header_behind_a_frame_gets_its_reply_then_bad_request(server):
    """Beside another connection a turn answers one frame; the oversized header
    left buffered behind it still wakes the loop, which refuses it and hangs up."""
    handle, _ = server
    with connect(handle.address) as other:
        other.stats()  # a second counted connection: the loop is not alone
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            reader = wire.FrameReader(sock, bytearray())
            sock.sendall(wire.encode_request(wire.GetRequest(encode_key(NS, 1)))
                         + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big") + bytes([wire.OP_SCAN]))
            assert wire.read_frame(reader) == (wire.OP_GET, bytes([wire.ST_NOT_FOUND]))
            assert wire.read_frame(reader) == (wire.OP_SCAN, bytes([wire.ST_BAD_REQUEST]))
            assert wire.read_frame(reader) is None


def test_stop_answers_the_frames_a_connection_has_buffered_in_order():
    entered, release = threading.Event(), threading.Event()

    class SlowStore(HybridMetaStore):
        def get(self, key):
            entered.set()
            release.wait(5.0)
            return super().get(key)

    store = SlowStore()
    for bid in range(5):
        store.put(encode_key(NS, bid), bid)
    handle = serve(("127.0.0.1", 0), store)
    with socket.create_connection(handle.address, timeout=5.0) as sock:
        sock.sendall(b"".join(wire.encode_request(wire.GetRequest(encode_key(NS, bid)))
                              for bid in range(5)))
        assert entered.wait(5.0)  # the loop is inside the first get, four are buffered
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.2)  # the wake byte is written
        release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        reader = wire.FrameReader(sock, bytearray())
        for bid in range(5):
            assert wire.decode_response(*wire.read_frame(reader)) == wire.GetResponse(
                wire.ST_OK, bid)
        assert wire.read_frame(reader) is None


def test_one_thread_serves_every_connection(server):
    handle, _ = server
    threads = threading.active_count()
    clients = [connect(handle.address) for _ in range(8)]
    try:
        for client in clients:
            client.stats()
        assert threading.active_count() == threads
    finally:
        for client in clients:
            client.close()


def test_stop_with_an_idle_connection_is_prompt():
    handle = serve(("127.0.0.1", 0), HybridMetaStore())
    with socket.create_connection(handle.address, timeout=5.0) as idle:
        reader = wire.FrameReader(idle, bytearray())
        idle.sendall(wire.encode_request(wire.GetRequest(encode_key(NS, 1))))
        assert wire.read_frame(reader) == (wire.OP_GET, bytes([wire.ST_NOT_FOUND]))
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 0.25
        assert wire.read_frame(reader) is None


def test_stop_of_a_server_never_started_returns():
    def stop_unstarted():
        StoreServer(("127.0.0.1", 0), HybridMetaStore()).stop()
        with StoreServer(("127.0.0.1", 0), HybridMetaStore()):
            pass

    stopper = threading.Thread(target=stop_unstarted, daemon=True)
    stopper.start()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive(), "stop() of a server never started did not return"


def test_served_lru_pin_store_outlives_a_thousand_half_lives():
    cache = CacheConfig(capacity_entries=4, policy="lru_pin", pin_first_n=1, hotness_halflife_s=1.0)
    now = [0.0]
    store = HybridMetaStore(cache=cache, clock=lambda: now[0])
    now[0] = 1_100.0  # seconds, i.e. 1,100 half-lives
    key = encode_key(NS, 1)
    with serve(("127.0.0.1", 0), store) as handle, connect(handle.address) as remote:
        remote.put(key, 7)
        assert remote.get(key) == 7


def test_concurrent_connections_oracle_equivalence(server):
    handle, store = server
    n_workers, n_ops = 4, 2_500
    failures: list[Exception] = []

    def worker(idx: int) -> None:
        # one namespace per connection: per-connection streams stay independent
        ns = f"w{idx}".encode()
        oracle = ModelStore()
        rng = random.Random(1000 + idx)
        try:
            with connect(handle.address, timeout=5.0) as backend:
                for _ in range(n_ops):
                    op = rng.randrange(4)
                    bid = rng.randrange(300)
                    key = encode_key(ns, bid)
                    if op == 0:
                        assert backend.put(key, bid) == oracle.put(key, bid)
                    elif op == 1:
                        assert backend.get(key) == oracle.get(key)
                    elif op == 2:
                        assert backend.delete(key) == oracle.delete(key)
                    else:
                        lo = encode_key(ns, bid)
                        hi = encode_key(ns, bid + 8)
                        assert backend.scan(lo, hi) == oracle.scan(lo, hi)
                # final state per namespace equals the oracle
                full = backend.scan(encode_key(ns, 0), encode_key(ns, 2**64 - 1))
                assert full == oracle.scan(encode_key(ns, 0), encode_key(ns, 2**64 - 1))
        except Exception as exc:  # propagated after join
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_workers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not failures


def test_stopped_server_raises_transport_error():
    store = HybridMetaStore()
    handle = serve(("127.0.0.1", 0), store)
    backend = connect(handle.address, timeout=0.5)
    key = encode_key(NS, 1)
    backend.put(key, 1)
    handle.stop()
    with pytest.raises(TransportError):
        for _ in range(3):  # first call may still see the draining socket
            backend.get(key)
    backend.close()


def test_connection_count_covers_both_ends_until_close(server, connection_count):
    handle, _ = server
    backend = connect(handle.address)
    backend.get(encode_key(NS, 1))
    assert wire._open_connections == connection_count + 2  # this client and its handler
    backend.close()
    backend.close()
    _wait_for_count(connection_count)


def test_connection_count_after_server_stop_and_the_failed_call(connection_count):
    handle = serve(("127.0.0.1", 0), HybridMetaStore())
    backend = connect(handle.address, timeout=0.5)
    backend.get(encode_key(NS, 1))
    handle.stop()
    assert wire._open_connections == connection_count + 1  # the handler is gone
    with pytest.raises(TransportError):
        for _ in range(3):  # first call may still see the draining socket
            backend.get(encode_key(NS, 1))
    assert wire._open_connections == connection_count
    backend.close()
    assert wire._open_connections == connection_count  # not counted out twice


def test_connection_count_is_exact_under_thread_switching(server):
    """Counting is a read-modify-write: eight threads opening and closing
    connections at a tiny switch interval must lose no update (checked by
    the ``connection_count`` fixture)."""
    handle, _ = server
    failures: list[Exception] = []

    def churn() -> None:
        try:
            for _ in range(20):
                with connect(handle.address, timeout=5.0) as backend:
                    backend.stats()
        except Exception as exc:  # propagated after join
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not failures


def test_call_after_close_reconnects_on_every_thread(server):
    handle, _ = server
    key = encode_key(NS, 4)
    backend = connect(handle.address)
    with ThreadPoolExecutor(max_workers=1) as pool:
        backend.put(key, 44)
        assert pool.submit(backend.get, key).result(timeout=5.0) == 44
        backend.close()
        assert backend.get(key) == 44
        assert pool.submit(backend.get, key).result(timeout=5.0) == 44
    backend.close()


@pytest.mark.parametrize("timeout", [0, -1.0, math.inf, math.nan, 1e300])
def test_timeout_must_be_positive_and_finite(timeout):
    with pytest.raises(ValueError, match="timeout"):
        RemoteBackend("127.0.0.1", 1, timeout=timeout)


def test_sub_microsecond_timeout_still_bounds_the_wait():
    """1e-7 s once rounded to a zero timeval, which the kernel reads as no
    timeout: the call then waited until the peer went away."""
    listener = socket.create_server(("127.0.0.1", 0))  # accepts nothing, never replies
    closer = threading.Timer(3.0, listener.close)  # resets the pending connection
    closer.start()
    try:
        with RemoteBackend(*listener.getsockname(), timeout=1e-7) as backend:
            started = time.monotonic()
            with pytest.raises(TransportError, match="exchange failed"):
                backend.get(encode_key(NS, 1))
            assert time.monotonic() - started < 1.0
    finally:
        closer.cancel()
        listener.close()


def test_connect_refused_is_transport_error():
    backend = RemoteBackend("127.0.0.1", 1, timeout=0.3)  # port 1: nothing there
    with pytest.raises(TransportError, match="connect"):
        backend.get(encode_key(NS, 1))


def test_parse_hostport_rejects_a_port_above_65535():
    assert parse_hostport("127.0.0.1:65535") == ("127.0.0.1", 65535)
    for endpoint in ("127.0.0.1:65536", "127.0.0.1:99999"):
        with pytest.raises(ValueError, match=f"got '{endpoint}'"):
            parse_hostport(endpoint)
        with pytest.raises(ValueError, match="at most 65535"):
            connect(endpoint)  # the port would wrap modulo 65536


def test_connect_endpoint_string():
    with pytest.raises(ValueError, match="host:port"):
        connect("no-port-here")


def test_per_connection_response_order(server):
    handle, _ = server
    # pipeline several requests on one socket; responses must come back in order
    with socket.create_connection(handle.address, timeout=2.0) as sock:
        batch = b""
        for bid in range(10):
            batch += wire.encode_request((wire.OP_PUT, encode_key(NS, bid), bid))
        sock.sendall(batch)
        reader = wire.FrameReader(sock, bytearray())
        for bid in range(10):
            opcode, payload = wire.read_frame(reader)
            assert opcode == wire.OP_PUT
            resp = wire.decode_response(opcode, payload)
            assert resp == (wire.OP_PUT, wire.ST_OK, None)  # fresh inserts, ordered
