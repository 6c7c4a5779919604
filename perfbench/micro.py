"""Layer microbenchmarks for the traced run, plus the echo child.

Each benchmark times one public call of one layer on inputs drawn from the
run's seed and reports the median of ``REPEATS`` timed passes, per call.
Run as a script, this file is the far end of the round-trip floor: it
echoes GET-sized messages over loopback TCP until the peer closes.

    python3 perfbench/micro.py echo
"""

from __future__ import annotations

import random
import socket
import statistics
import subprocess
import sys
import time

REPEATS = 5
CALLS = 20_000
POINT_KEYS = 100_000
HOT_BAND = 2048
RTT_TRIPS = 4_000
GET_FRAME = 37       # header 5 + key 32
GET_REPLY = 14       # header 5 + status 1 + value 8
PUT_SIZES = ((100_000, "1e5"), (1_000_000, "1e6"))
PUTS_PER_SIZE = 1_000


def _per_call_ns(fn, args_list) -> float:
    """Median over REPEATS passes of the mean ns per call."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter_ns() - t0) / len(args_list))
    return statistics.median(times)


def key_codec(kv, rng: random.Random) -> dict[str, float]:
    ids = [(b"", rng.getrandbits(40)) for _ in range(CALLS)]
    return {
        "store.encode_key_ns": _per_call_ns(kv.encode_key, ids),
        "store.hash_key_ns": _per_call_ns(kv.hash_key, ids),
    }


def point_and_scan(kv, rng: random.Random) -> dict[str, float]:
    """Gets on the same populated store with and without the lru_pin hot
    tier, and 16-entry scans. Half the queries fall in a hot band of low ids
    so the cache sees reuse; its capacity is 4096 against 10^5 residents."""
    key = kv.encode_key
    ids = [rng.randrange(HOT_BAND) if rng.random() < 0.5 else rng.randrange(POINT_KEYS)
           for _ in range(CALLS)]
    queries = [(key(b"", b),) for b in ids]
    out = {}
    for label, cache in (("nocache", kv.CacheConfig()),
                         ("lru_pin", kv.CacheConfig(capacity_entries=4096, policy="lru_pin",
                                                    pin_first_n=16))):
        store = kv.HybridMetaStore(cache=cache)
        for b in range(POINT_KEYS):
            store.put(key(b"", b), b)
        for q in queries:  # warm the hot tier before timing
            store.get(*q)
        out[f"store.get_ns.{label}"] = _per_call_ns(store.get, queries)
        if label == "nocache":
            starts = [rng.randrange(POINT_KEYS - 16) for _ in range(CALLS // 4)]
            scans = [(key(b"", s), key(b"", s + 16), 16) for s in starts]
            out["store.scan16_ns"] = _per_call_ns(store.scan, scans)
        del store
    return out


def random_puts(kv, rng: random.Random) -> dict[str, float]:
    """Median µs of a put of a new key at a random position, at two resident
    sizes a decade apart: the store holds even ids, the new keys are odd."""
    out = {}
    store = kv.HybridMetaStore()
    key = kv.encode_key
    filled = 0
    for size, label in PUT_SIZES:
        for b in range(filled, size):
            store.put(key(b"", 2 * b), 2 * b)
        filled = size
        fresh = rng.sample(range(size), PUTS_PER_SIZE)
        lat = []
        for b in fresh:
            k = key(b"", 2 * b + 1)
            t0 = time.perf_counter_ns()
            store.put(k, b)
            lat.append(time.perf_counter_ns() - t0)
        out[f"store.put_us.{label}"] = statistics.median(lat) / 1e3
    return out


def wire_codec(kv, rng: random.Random) -> dict[str, float]:
    from kvcmeta import protocol as wire

    key = kv.encode_key
    gets = [(wire.GetRequest(key(b"", rng.getrandbits(40))),) for _ in range(CALLS)]
    get_reply = wire.encode_response(wire.GetResponse(wire.ST_OK, 12345))
    start = rng.getrandbits(40)
    entries = tuple((key(b"", b), b) for b in range(start, start + 16))
    scan_reply = wire.encode_response(wire.ScanResponse(wire.ST_OK, entries))
    scan_resp = wire.ScanResponse(wire.ST_OK, entries)
    n = CALLS // 4
    return {
        "protocol.encode_get_ns": _per_call_ns(wire.encode_request, gets),
        "protocol.decode_get_ns": _per_call_ns(wire.decode_response,
                                               [(wire.OP_GET, get_reply)] * CALLS),
        "protocol.encode_scan16_ns": _per_call_ns(wire.encode_response, [(scan_resp,)] * n),
        "protocol.decode_scan16_ns": _per_call_ns(wire.decode_response,
                                                  [(wire.OP_SCAN, scan_reply)] * n),
    }


def _recv_exact(sock: socket.socket, buf: bytearray) -> None:
    view = memoryview(buf)
    got = 0
    while got < len(buf):
        n = sock.recv_into(view[got:])
        if n == 0:
            raise ConnectionError("peer closed")
        got += n


def rtt_floor(script: str) -> dict[str, float]:
    """Median round trip of a GET-sized request and reply between this
    process and an echo child over loopback TCP: the floor under any wire
    op, which no change to the package moves."""
    child = subprocess.Popen([sys.executable, script, "echo"], stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL, text=True)
    try:
        port = int(child.stdout.readline())
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            msg = bytes(GET_FRAME)
            reply = bytearray(GET_REPLY)
            lat = []
            for _ in range(RTT_TRIPS):
                t0 = time.perf_counter_ns()
                sock.sendall(msg)
                _recv_exact(sock, reply)
                lat.append(time.perf_counter_ns() - t0)
    finally:
        child.stdout.close()
        try:
            child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    return {"service.rtt_floor_us": statistics.median(lat) / 1e3}


def run_all(kv, seed: int, script: str) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for bench in (key_codec, point_and_scan, random_puts, wire_codec):
        out.update(bench(kv, rng))
    out.update(rtt_floor(script))
    return out


def _echo() -> int:
    with socket.socket() as srv:
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        print(srv.getsockname()[1], flush=True)
        conn, _ = srv.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buf = bytearray(GET_FRAME)
            reply = bytes(GET_REPLY)
            while True:
                try:
                    _recv_exact(conn, buf)
                except ConnectionError:
                    return 0
                conn.sendall(reply)


if __name__ == "__main__" and sys.argv[1:] == ["echo"]:
    sys.exit(_echo())
