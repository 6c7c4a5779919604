"""Reference KVC metadata store.

Keys are fixed 32-byte values laid out as a 24-byte namespace tag followed by
the big-endian 64-bit block id, so lexicographic byte order equals numeric
block-id order within a namespace and contiguous blocks can be fetched with
one ordered range scan. (A strict-hash key scheme, under which scans are
meaningless, is also provided for comparison experiments; see ``hash_key``.)

The store keeps one logical map behind two coordinated access paths: a hash
directory (dict) answering point lookups in O(1) and an ordered key index
(sorted list) answering range scans. Both views observe every update
atomically under a single per-store lock, so individual operations are
linearizable; scans return a consistent snapshot taken under the lock.

A configurable hot-entry cache layer sits in front: it never changes results,
only models which entries a hierarchical deployment would serve from its fast
tier (hit/miss counters, eviction policy). Policies:

* ``lru``     - plain recency eviction, the conventional baseline;
* ``lru_pin`` - reuse-aware: per-entry hotness counters with exponential
  half-life decay drive eviction (least-hot first, least-recent on ties),
  and per namespace the ``pin_first_n`` lowest block ids inserted so far are
  pinned, i.e. never evicted, capturing the persistently reused initial
  prefix blocks. Pins never exceed the capacity over all namespaces, and
  scores are rebased every 512 half-lives, so there is no uptime limit.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from heapq import heapify, heappop, heappush, heapreplace

NAMESPACE_BYTES = 24
KEY_BYTES = 32

_LN2 = math.log(2.0)
REBASE = 512  # half-lives between score rebases; 2^512 is far below the float max


class BadRangeError(ValueError):
    """scan() called with start >= end_exclusive."""


class StoreCapacityError(RuntimeError):
    """Insert rejected: the configured entry bound is exhausted."""


def _namespace_tag(namespace: bytes | str) -> bytes:
    if isinstance(namespace, str):
        namespace = namespace.encode("utf-8")
    if len(namespace) > NAMESPACE_BYTES:
        raise ValueError(f"namespace tag longer than {NAMESPACE_BYTES} bytes")
    return namespace.ljust(NAMESPACE_BYTES, b"\x00")


def encode_key(namespace: bytes | str, block_id: int) -> bytes:
    """Order-preserving 32-byte key: 24-byte namespace tag, 8-byte BE id.

    Namespaces shorter than 24 bytes are right-padded with NULs.
    """
    return _namespace_tag(namespace) + block_id.to_bytes(8, "big")


def decode_key(key: bytes) -> tuple[bytes, int]:
    """Inverse of encode_key: (namespace tag, block id)."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return key[:NAMESPACE_BYTES], int.from_bytes(key[NAMESPACE_BYTES:], "big")


def hash_key(namespace: bytes | str, block_id: int) -> bytes:
    """Strict-hash scheme: 32-byte digest of (namespace, id). Destroys key
    order, so range scans over contiguous blocks degenerate to point gets."""
    return sha256(_namespace_tag(namespace) + block_id.to_bytes(8, "big")).digest()


@dataclass(frozen=True)
class CacheConfig:
    """Hot-entry cache layer configuration. capacity_entries 0 disables it."""

    capacity_entries: int = 0
    policy: str = "lru"
    pin_first_n: int = 16
    hotness_halflife_s: float = 600.0

    def __post_init__(self) -> None:
        if self.capacity_entries < 0:
            raise ValueError("capacity_entries must be >= 0")
        if self.policy not in ("lru", "lru_pin"):
            raise ValueError(f"unknown cache policy: {self.policy!r}")
        if self.pin_first_n < 0:
            raise ValueError("pin_first_n must be >= 0")
        if self.hotness_halflife_s <= 0:
            raise ValueError("hotness_halflife_s must be positive")
        if (
            self.capacity_entries > 0
            and self.policy == "lru_pin"
            and self.pin_first_n > self.capacity_entries
        ):
            raise ValueError("pin_first_n must not exceed capacity_entries")


@dataclass(frozen=True)
class IndexStats:
    """Operation and cache counters. Field order is the wire order."""

    puts: int = 0
    gets: int = 0
    scans: int = 0
    deletes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    resident_entries: int = 0
    cache_entries: int = 0


class _EntryCache:
    """Residency model for the hot tier; answers never come from here.

    Hotness is kept as a sum of exponentially growing access weights
    2^(t/halflife): ratios between entries equal the ratios of their decayed
    counters, so no periodic decay sweep is needed. Eviction candidates live
    in a lazy heap of (score, seq, key); a tuple is current iff seq is its
    entry's last_seq. Scores only grow, so a stale tuple is a lower bound and
    is re-filed at its entry's score when it reaches the top; the first
    current tuple is then the unpinned entry with the least (score, last_seq).
    """

    def __init__(self, config: CacheConfig, clock=time.monotonic):
        self.capacity = config.capacity_entries
        self.policy = config.policy
        self.pin_first_n = config.pin_first_n if config.policy == "lru_pin" else 0
        self.halflife = config.hotness_halflife_s
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        # lru: recency order only.
        self._order: OrderedDict[bytes, None] = OrderedDict()
        # lru_pin: key -> [score, last_seq]; lazy eviction heap.
        self._entries: dict[bytes, list] = {}
        self._heap: list[tuple[float, int, bytes]] = []
        self._pin_ids: dict[bytes, list[int]] = {}
        self._pin_count = 0  # ids over all pin lists, kept <= capacity
        self._pinned: set[bytes] = set()

    @property
    def size(self) -> int:
        return len(self._order) if self.policy == "lru" else len(self._entries)

    def _maybe_pin(self, key: bytes) -> None:
        if self.pin_first_n == 0:
            return
        ns, bid = key[:NAMESPACE_BYTES], int.from_bytes(key[NAMESPACE_BYTES:], "big")
        pins = self._pin_ids.get(ns, [])
        if bid in pins:  # sorted, tiny (<= pin_first_n); linear `in` is fine
            self._pinned.add(key)
        elif len(pins) < self.pin_first_n and self._pin_count < self.capacity:
            # Pins never exceed capacity, so eviction can always restore the bound.
            insort(self._pin_ids.setdefault(ns, pins), bid)
            self._pin_count += 1
            self._pinned.add(key)
        elif pins and bid < pins[-1]:
            displaced = pins.pop()
            insort(pins, bid)
            self._pinned.add(key)
            old_key = ns + displaced.to_bytes(8, "big")
            self._pinned.discard(old_key)
            entry = self._entries.get(old_key)
            if entry is not None:
                # Demoted entry becomes an ordinary eviction candidate.
                heappush(self._heap, (entry[0], entry[1], old_key))

    def touch(self, key: bytes) -> bool:
        """Access a key known to exist in the store. True iff it was resident
        (a cache hit); on a miss the entry is admitted."""
        hit = key in (self._order if self.policy == "lru" else self._entries)
        self._access(key)
        return hit

    def admit(self, key: bytes) -> None:
        """Install/refresh residency on a write; no hit/miss accounting."""
        if self.policy == "lru_pin":
            self._maybe_pin(key)
        self._access(key)

    def _access(self, key: bytes) -> None:
        if self.policy == "lru":
            self._order[key] = None
            self._order.move_to_end(key)
            while len(self._order) > self.capacity:
                self._order.popitem(last=False)
            return

        now = self._clock()
        if now - self._t0 > REBASE * self.halflife:
            # ldexp by a power of two is exact (above subnormals) and never reorders.
            shift = REBASE * int((now - self._t0) // (REBASE * self.halflife))
            self._t0 += shift * self.halflife
            for e in self._entries.values():
                e[0] = math.ldexp(e[0], -shift)
            self._heap = [(math.ldexp(s, -shift), q, k) for s, q, k in self._heap]
        weight = math.exp(_LN2 * (now - self._t0) / self.halflife)
        self._seq += 1
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += weight
            entry[1] = self._seq
            return
        entries, heap = self._entries, self._heap
        entries[key] = [weight, self._seq]
        if key not in self._pinned:
            heappush(heap, (weight, self._seq, key))
        while len(entries) > self.capacity and heap:
            _, seq, victim = heap[0]
            entry = entries.get(victim)
            if entry is None or victim in self._pinned:
                heappop(heap)
            elif entry[1] != seq:
                heapreplace(heap, (entry[0], entry[1], victim))
            else:
                heappop(heap)
                del entries[victim]
        self._trim_heap()

    def _trim_heap(self) -> None:
        if len(self._heap) > 2 * len(self._entries) + 64:  # drop tuples of deleted keys
            pinned = self._pinned
            self._heap = [(e[0], e[1], k) for k, e in self._entries.items() if k not in pinned]
            heapify(self._heap)

    def evict(self, key: bytes) -> None:
        if self.policy == "lru":
            self._order.pop(key, None)
        else:
            self._entries.pop(key, None)
            self._pinned.discard(key)
            self._trim_heap()
            # Pin-list membership survives deletion: a re-inserted low id
            # re-pins, keeping the initial-prefix band stable within a run.


class HybridMetaStore:
    """In-memory metadata store: hash directory + ordered key index.

    Thread safe: every operation takes the store lock, so single operations
    are linearizable and scans are consistent snapshots. Optionally bounded
    by ``max_entries`` (inserts beyond raise StoreCapacityError).
    """

    def __init__(
        self,
        cache: CacheConfig | None = None,
        max_entries: int | None = None,
        clock=time.monotonic,
    ):
        self._map: dict[bytes, int] = {}
        self._keys: list[bytes] = []
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self.cache_config = cache if cache is not None else CacheConfig()
        self._cache = (
            _EntryCache(self.cache_config, clock)
            if self.cache_config.capacity_entries > 0
            else None
        )
        self._puts = 0
        self._gets = 0
        self._scans = 0
        self._deletes = 0
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._map)

    def put(self, key: bytes, value: int) -> int | None:
        """Map key to value; returns the previous value if the key existed."""
        with self._lock:
            prev = self._map.get(key)
            if prev is None:
                if self._max_entries is not None and len(self._map) >= self._max_entries:
                    raise StoreCapacityError(
                        f"store is bounded to {self._max_entries} entries"
                    )
                insort(self._keys, key)
            self._puts += 1
            self._map[key] = value
            if self._cache is not None:
                self._cache.admit(key)
            return prev

    def get(self, key: bytes) -> int | None:
        """Current mapping or None. Promotes the entry in the hot cache."""
        with self._lock:
            self._gets += 1
            value = self._map.get(key)
            if self._cache is not None:
                if value is not None and self._cache.touch(key):
                    self._hits += 1
                else:
                    self._misses += 1
            return value

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]:
        """Present entries with start <= key < end_exclusive, in key order,
        truncated to max_results (None = unlimited)."""
        if start >= end_exclusive:
            raise BadRangeError("scan start must be < end_exclusive")
        if max_results is not None and max_results < 0:
            raise ValueError("max_results must be >= 0")
        with self._lock:
            self._scans += 1
            keys = self._keys
            i = bisect_left(keys, start)
            out: list[tuple[bytes, int]] = []
            n = len(keys)
            while i < n:
                k = keys[i]
                if k >= end_exclusive:
                    break
                if max_results is not None and len(out) >= max_results:
                    break
                out.append((k, self._map[k]))
                i += 1
            return out

    def delete(self, key: bytes) -> bool:
        """Remove the mapping from both views; True iff it was present."""
        with self._lock:
            self._deletes += 1
            if key not in self._map:
                return False
            del self._map[key]
            self._keys.pop(bisect_left(self._keys, key))
            if self._cache is not None:
                self._cache.evict(key)
            return True

    def stats(self) -> IndexStats:
        with self._lock:
            return IndexStats(
                puts=self._puts,
                gets=self._gets,
                scans=self._scans,
                deletes=self._deletes,
                cache_hits=self._hits,
                cache_misses=self._misses,
                resident_entries=len(self._map),
                cache_entries=self._cache.size if self._cache is not None else 0,
            )
