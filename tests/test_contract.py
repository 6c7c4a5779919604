"""The backend contract, one suite for every backend: the in-process store
with the cache off, with ``lru`` and with ``lru_pin`` (16 entries, so the
randomized sequence evicts and pins), a ``RemoteBackend`` of a served store
and ``ExternalBackend`` over an in-memory fake of ``redis``. README
"Consistency notes" lists the differences the contract leaves open."""

from __future__ import annotations

import random
import sys
import types
from contextlib import contextmanager

import pytest

from fake_redis import FakeRedis
from kvcmeta import protocol as wire
from kvcmeta.external import ExternalBackend
from kvcmeta.service import TransportError, connect, serve
from kvcmeta.store import (
    BadRangeError,
    CacheConfig,
    HybridMetaStore,
    IndexStats,
    StoreCapacityError,
    encode_key,
)
from oracle_store import ModelStore

NS = b"contract"
NS2 = b"contract-b"  # sorts after NS
U64_MAX = 2**64 - 1

CACHES = {
    "nocache": None,
    "lru": CacheConfig(capacity_entries=16, policy="lru"),
    "lru_pin": CacheConfig(capacity_entries=16, policy="lru_pin", pin_first_n=4),
}


def key(bid: int, ns: bytes = NS) -> bytes:
    return encode_key(ns, bid)


def counters(backend) -> tuple[int, ...]:
    """The counters every backend keeps."""
    s = backend.stats()
    return s.puts, s.gets, s.scans, s.deletes, s.resident_entries


@contextmanager
def served(store: HybridMetaStore):
    """A client of the store served on loopback. Once the client is closed and
    the server stopped, every connection of either end must be counted out."""
    start = wire._open_connections
    with serve(("127.0.0.1", 0), store) as handle, connect(handle.address) as remote:
        yield remote
    assert wire._open_connections == start, "a connection leaked"


@pytest.fixture(params=[*CACHES, "remote", "external"])
def backend(request, monkeypatch):
    if request.param == "remote":
        with served(HybridMetaStore()) as remote:
            yield remote
    elif request.param == "external":
        monkeypatch.setitem(sys.modules, "redis", types.SimpleNamespace(Redis=FakeRedis))
        external = ExternalBackend("127.0.0.1:6379")
        yield external
        external.flush_namespace()
        assert external.stats().resident_entries == 0
    else:
        yield HybridMetaStore(cache=CACHES[request.param])


def test_put_get_delete(backend):
    k = key(1)
    assert backend.get(k) is None
    assert backend.put(k, 10) is None
    assert backend.put(k, 20) == 10
    assert backend.get(k) == 20
    assert backend.delete(k) is True
    assert backend.delete(k) is False
    assert backend.get(k) is None


def test_scan_with_a_gap(backend):
    assert backend.scan(key(5), key(11)) == []
    for bid in (5, 6, 7, 8, 9, 10):
        backend.put(key(bid), bid)
    backend.delete(key(7))
    assert backend.scan(key(5), key(11)) == [(key(b), b) for b in (5, 6, 8, 9, 10)]


def test_scan_respects_namespaces(backend):
    backend.put(key(5), 1)
    backend.put(key(5, NS2), 2)
    assert backend.scan(key(0), key(100)) == [(key(5), 1)]
    assert backend.scan(key(0, NS2), key(100, NS2)) == [(key(5, NS2), 2)]
    assert backend.scan(key(0), key(100, NS2)) == [(key(5), 1), (key(5, NS2), 2)]


def test_scan_max_results_edges(backend):
    rows = [(key(bid), bid) for bid in range(5)]
    for k, v in rows:
        backend.put(k, v)
    for mx, n in ((None, 5), (0, 0), (1, 1), (5, 5), (6, 5)):
        assert backend.scan(key(0), key(5), max_results=mx) == rows[:n], mx
    assert backend.scan(key(1), key(4), max_results=2) == rows[1:3]
    with pytest.raises(ValueError, match="max_results"):
        backend.scan(key(0), key(5), max_results=-1)
    assert backend.stats().scans == 6  # the rejected scan is not counted


def test_scan_bad_range_is_not_counted(backend):
    backend.put(key(5), 5)
    for end in (key(5), key(4)):  # start == end, start > end
        with pytest.raises(BadRangeError):
            backend.scan(key(5), end)
    assert backend.stats().scans == 0


def test_u64_boundaries(backend):
    lo, hi = key(0), key(U64_MAX)
    assert backend.put(lo, 0) is None
    assert backend.put(hi, U64_MAX) is None
    assert backend.get(lo) == 0
    assert backend.get(hi) == U64_MAX
    assert backend.put(lo, U64_MAX) == 0  # an old value of 0 is not "absent"
    assert backend.put(hi, 0) == U64_MAX
    assert backend.scan(lo, key(0, NS2)) == [(lo, U64_MAX), (hi, 0)]


def test_counters(backend):
    assert backend.stats() == IndexStats()  # every field starts at 0, cache ones too
    backend.put(key(9), 1)
    backend.put(key(9), 2)
    backend.get(key(9))
    backend.get(key(10))
    backend.scan(key(0), key(20))
    backend.delete(key(10))
    backend.put(key(11), 3)
    assert counters(backend) == (3, 2, 1, 1, 2)


def test_randomized_sequence_matches_the_model(backend):
    model = ModelStore()
    rng = random.Random(0xE7)
    for _ in range(3_000):
        op = rng.randrange(4)
        bid = rng.randrange(300)
        k = key(bid)
        if op == 0:
            value = rng.getrandbits(64)
            assert backend.put(k, value) == model.put(k, value)
        elif op == 1:
            assert backend.get(k) == model.get(k)
        elif op == 2:
            assert backend.delete(k) == model.delete(k)
        else:
            hi = key(bid + rng.randrange(1, 40))
            mx = rng.choice((None, 0, 1, 8))
            assert backend.scan(k, hi, max_results=mx) == model.scan(k, hi, max_results=mx)
    assert backend.scan(key(0), key(300)) == model.scan(key(0), key(300))
    assert counters(backend) == (
        model.puts, model.gets, model.scans, model.deletes, len(model.entries()))


@pytest.fixture(params=["store", "remote"])
def bounded(request):
    """A store bounded to 2 entries, in process or served, and the check of
    what the caller sees when an insert finds no room."""
    store = HybridMetaStore(max_entries=2)
    if request.param == "remote":
        with served(store) as remote:
            yield remote, pytest.raises(
                TransportError, match="^server reported an internal error$")
    else:
        yield store, pytest.raises(StoreCapacityError)


def test_insert_past_max_entries_is_rejected_and_not_counted(bounded):
    backend, rejected = bounded
    backend.put(key(1), 1)
    backend.put(key(2), 2)
    assert backend.put(key(1), 9) == 1  # an overwrite needs no room
    with rejected:
        backend.put(key(3), 3)
    assert backend.get(key(3)) is None
    assert counters(backend) == (3, 1, 0, 0, 2)
