"""ExternalBackend against the backend contract, through an in-memory fake
of the ``redis`` client calls the adapter makes."""

from __future__ import annotations

import bisect
import random
import sys
import types

from kvcmeta.service import connect, serve
from kvcmeta.store import HybridMetaStore, encode_key


class FakeRedis:
    """A dict of strings and sorted sets of byte members, with redis-py's
    signatures for the calls ExternalBackend makes."""

    def __init__(self, host: str, port: int):
        self._strings: dict[bytes, bytes] = {}
        self._zsets: dict[bytes, list[bytes]] = {}

    def set(self, name: bytes, value: bytes, get: bool = False):
        old = self._strings.get(name)
        self._strings[name] = value
        return old if get else True

    def get(self, name: bytes):
        return self._strings.get(name)

    def mget(self, names):
        return [self._strings.get(n) for n in names]

    def delete(self, *names: bytes) -> int:
        removed = 0
        for name in names:
            removed += (self._strings.pop(name, None) is not None
                        or self._zsets.pop(name, None) is not None)
        return removed

    def zadd(self, name: bytes, mapping: dict) -> int:
        members = self._zsets.setdefault(name, [])
        added = 0
        for member in mapping:  # every score is 0: members order lexicographically
            i = bisect.bisect_left(members, member)
            if i == len(members) or members[i] != member:
                members.insert(i, member)
                added += 1
        return added

    def zrem(self, name: bytes, *values: bytes) -> int:
        members = self._zsets.get(name, [])
        removed = 0
        for member in values:
            i = bisect.bisect_left(members, member)
            if i < len(members) and members[i] == member:
                del members[i]
                removed += 1
        return removed

    def zrangebylex(self, name: bytes, min: bytes, max: bytes, start=None, num=None):
        members = self._zsets.get(name, [])
        lo = (bisect.bisect_left if min[:1] == b"[" else bisect.bisect_right)(members, min[1:])
        hi = (bisect.bisect_right if max[:1] == b"[" else bisect.bisect_left)(members, max[1:])
        out = members[lo:hi]
        return out if num is None else out[start:start + num]

    def zcard(self, name: bytes) -> int:
        return len(self._zsets.get(name, []))

    def zrange(self, name: bytes, start: int, end: int):
        members = self._zsets.get(name, [])
        return members[start:] if end == -1 else members[start:end + 1]


def test_external_backend_matches_store_and_remote(monkeypatch):
    fake = types.ModuleType("redis")
    fake.Redis = FakeRedis
    monkeypatch.setitem(sys.modules, "redis", fake)
    from kvcmeta.external import ExternalBackend

    external = ExternalBackend("127.0.0.1:6379")
    local = HybridMetaStore()
    handle = serve(("127.0.0.1", 0), HybridMetaStore())
    remote = connect(handle.address)
    backends = (local, remote, external)
    rng = random.Random(0xE7)
    try:
        for _ in range(3_000):
            op = rng.randrange(4)
            bid = rng.randrange(300)
            key = encode_key(b"ext", bid)
            if op == 0:
                value = rng.getrandbits(64)
                results = [b.put(key, value) for b in backends]
            elif op == 1:
                results = [b.get(key) for b in backends]
            elif op == 2:
                results = [b.delete(key) for b in backends]
            else:
                hi = encode_key(b"ext", bid + rng.randrange(1, 40))
                mx = rng.choice((None, 0, 1, 8))
                results = [b.scan(key, hi, max_results=mx) for b in backends]
            assert results[1] == results[0] and results[2] == results[0], (op, bid)
        fields = ("puts", "gets", "scans", "deletes", "resident_entries")
        stats = [b.stats() for b in backends]
        for s in stats[1:]:
            assert [getattr(s, f) for f in fields] == [getattr(stats[0], f) for f in fields]
        external.flush_namespace()
        assert external.stats().resident_entries == 0
    finally:
        remote.close()
        handle.stop()
