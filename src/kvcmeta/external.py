"""Optional adapter mapping the backend contract onto a Redis-compatible
in-memory cache service.

Point ops use plain string GET/SET on a value key derived from the 32-byte
metadata key; the ordered view is a sorted set holding the raw keys as
lexicographically ordered members, scanned with ZRANGEBYLEX. Scans are
weakly consistent with concurrent writers (each returned entry existed at
some point during the scan), which is within the documented backend
contract. Selected by configuration only; the core test suite never
requires a running service or the redis package.
"""

from __future__ import annotations

import threading

from .service import parse_hostport
from .store import BadRangeError, IndexStats


class ExternalBackend:
    """Backend over a Redis-compatible service at host:port."""

    def __init__(self, address: str, namespace: str = "kvcmeta"):
        try:
            import redis
        except ImportError as exc:  # pragma: no cover - depends on environment
            raise RuntimeError(
                "the external backend requires the 'redis' package "
                "(pip install kvcmeta[external])"
            ) from exc
        host, port = parse_hostport(address)
        self._client = redis.Redis(host=host, port=port)
        self._zkey = f"{namespace}:keys".encode()
        self._vprefix = f"{namespace}:v:".encode()
        self._lock = threading.Lock()
        self._counters = [0, 0, 0, 0]  # puts, gets, scans, deletes

    def _vkey(self, key: bytes) -> bytes:
        return self._vprefix + key

    def _count(self, idx: int) -> None:
        with self._lock:
            self._counters[idx] += 1

    def put(self, key: bytes, value: int) -> int | None:
        if not 0 <= value < 1 << 64:
            raise ValueError("value out of u64 range")
        self._count(0)
        old = self._client.set(self._vkey(key), value.to_bytes(8, "big"), get=True)
        self._client.zadd(self._zkey, {key: 0})
        return None if old is None else int.from_bytes(old, "big")

    def get(self, key: bytes) -> int | None:
        self._count(1)
        raw = self._client.get(self._vkey(key))
        return None if raw is None else int.from_bytes(raw, "big")

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]:
        if start >= end_exclusive:
            raise BadRangeError("scan start must be < end_exclusive")
        if max_results is not None and max_results < 0:
            raise ValueError("max_results must be >= 0")
        self._count(2)
        kwargs = {}
        if max_results is not None:
            kwargs = {"start": 0, "num": max_results}
        members = self._client.zrangebylex(
            self._zkey, b"[" + start, b"(" + end_exclusive, **kwargs
        )
        if not members:
            return []
        values = self._client.mget([self._vkey(m) for m in members])
        return [
            (m, int.from_bytes(v, "big"))
            for m, v in zip(members, values)
            if v is not None
        ]

    def delete(self, key: bytes) -> bool:
        self._count(3)
        removed = self._client.delete(self._vkey(key))
        self._client.zrem(self._zkey, key)
        return bool(removed)

    def stats(self) -> IndexStats:
        with self._lock:
            puts, gets, scans, deletes = self._counters
        return IndexStats(
            puts=puts,
            gets=gets,
            scans=scans,
            deletes=deletes,
            resident_entries=int(self._client.zcard(self._zkey)),
        )

    def flush_namespace(self) -> None:
        """Remove every entry this adapter wrote (test/bench hygiene)."""
        members = self._client.zrange(self._zkey, 0, -1)
        if members:
            self._client.delete(*[self._vkey(m) for m in members])
        self._client.delete(self._zkey)
