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
A new key that sorts after every indexed key (block ids allocated in
increasing order, as in synthetic and real traces) is appended in O(1);
any other new key is a bisect plus an O(n) list insert.

A configurable hot-entry cache layer sits in front: it never changes results,
only models which entries a hierarchical deployment would serve from its fast
tier (hit/miss counters, eviction policy). Policies:

* ``lru``     - plain recency eviction, the conventional baseline;
* ``lru_pin`` - reuse-aware: per-entry hotness counters with exponential
  half-life decay drive eviction (least-hot first, least-recent on ties),
  and per namespace the ``pin_first_n`` lowest block ids inserted so far are
  pinned, i.e. never evicted, capturing the persistently reused initial
  prefix blocks. Pins never exceed the capacity over all namespaces, and
  scores are kept as logarithms, so they need no rescale and there is no
  uptime limit.

``lru_pin`` keeps one entry per resident key, the tuple (score, last
access, key), and replaces it on every access. Its two eviction queues, a
FIFO of admissions and a heap, hold those tuples, so every queued item is
either its key's current entry or stale. The tier needs a non-decreasing
clock for its speed (the default is ``time.monotonic``): it takes most
victims in O(1) from the FIFO, which is in eviction order only while
weights do not fall in admission order. A clock that steps back sends
admissions to the slower heap until it passes the FIFO's last weight;
victims stay the same.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from hashlib import sha256
from heapq import heapify, heappop, heappush, heapreplace
from math import exp, log1p
from typing import NamedTuple

NAMESPACE_BYTES = 24
KEY_BYTES = 32

_LN2 = math.log(2.0)


class BadRangeError(ValueError):
    """scan() called with start >= end_exclusive."""


def check_scan(start: bytes, end_exclusive: bytes, max_results: int | None) -> None:
    """The scan arguments every backend rejects before it counts the scan."""
    if start >= end_exclusive:
        raise BadRangeError("scan start must be < end_exclusive")
    if max_results is not None and max_results < 0:
        raise ValueError("max_results must be >= 0")


class StoreCapacityError(RuntimeError):
    """Insert rejected: the configured entry bound is exhausted."""


@functools.lru_cache(maxsize=1024)
def _namespace_tag(namespace: bytes | str) -> bytes:
    """The 24-byte NUL-padded tag of a namespace, memoized for the last
    1,024 distinct namespaces (``maxsize=1024``). A too-long namespace raises
    on every call: ``lru_cache`` does not cache exceptions."""
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


def key_encoder(namespace: bytes | str, hashed: bool = False):
    """``encode_key`` (or, if ``hashed``, ``hash_key``) for one namespace, as
    a function of the block id that pads the namespace once, not per key."""
    tag = _namespace_tag(namespace)
    if hashed:
        return lambda bid: sha256(tag + bid.to_bytes(8, "big")).digest()
    return lambda bid: tag + bid.to_bytes(8, "big")


def decode_key(key: bytes) -> tuple[bytes, int]:
    """Inverse of encode_key: (namespace tag, block id)."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return key[:NAMESPACE_BYTES], int.from_bytes(key[NAMESPACE_BYTES:], "big")


def hash_key(namespace: bytes | str, block_id: int) -> bytes:
    """Strict-hash scheme: 32-byte digest of (namespace, id). Destroys key
    order, so range scans over contiguous blocks degenerate to point gets."""
    return sha256(_namespace_tag(namespace) + block_id.to_bytes(8, "big")).digest()


class _CacheFields(NamedTuple):
    """CacheConfig's fields and defaults, in order; CacheConfig checks them."""

    capacity_entries: int = 0
    policy: str = "lru"
    pin_first_n: int = 16
    hotness_halflife_s: float = 600.0


class CacheConfig(_CacheFields):
    """Hot-entry cache layer configuration. capacity_entries 0 disables it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CacheConfig":
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable) -> "CacheConfig":
        return cls(*iterable)  # _replace builds through _make, so it checks too


class IndexStats(NamedTuple):
    """Operation and cache counters. Field order is the wire order."""

    puts: int = 0
    gets: int = 0
    scans: int = 0
    deletes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    resident_entries: int = 0
    cache_entries: int = 0


class _LruTier:
    """``lru`` residency model: recency order only."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._order: OrderedDict[bytes, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def touch(self, key: bytes, write: bool = False) -> bool:
        """As ``_PinTier.touch``; a write refreshes residency like a read."""
        order = self._order
        if key in order:
            order.move_to_end(key)
            return True
        order[key] = None
        if len(order) > self.capacity:
            order.popitem(last=False)
        return False

    def evict(self, key: bytes) -> None:
        self._order.pop(key, None)


class _PinTier:
    """``lru_pin`` residency model: decayed hotness scores plus pinned ids.

    Hotness is a sum of exponentially growing access weights
    2^((t - t0)/halflife): ratios between entries equal the ratios of their
    decayed counters, so no periodic decay sweep is needed. Each score is
    kept as the natural log of that sum: an access weighs
    (t - t0) ln2/halflife and is added by a log-add, which cannot overflow,
    so there is no rescale and no uptime limit. A log score L resolves its
    sum to a relative |L| 2^-53, so after U half-lives an access more than
    about 53 - log2(U) half-lives older than an entry's newest adds nothing.

    Each resident key has one entry, the tuple (score, last_seq, key), and
    the victim is the unpinned key with the least entry. The two lazy queues
    below hold entries themselves, and an access stores a new tuple, so a
    queued item is current iff it is its key's entry (``res.get(key) is
    item``) and stale otherwise. Each unpinned entry has an item in one of
    the queues, current or stale, that is a lower bound of it; a stale item
    is re-filed in the heap as its key's entry when it reaches a head:

    * the FIFO, entries queued at admission. Under a non-decreasing clock
      weights do not fall in admission order, so the FIFO is sorted and a
      current item, an entry accessed once, is its own lower bound. An
      admission lighter than the FIFO's last item (the clock stepped back)
      goes to the heap instead, so the order holds for any clock.
    * ``_heap``, entries accessed again, demoted pins and admissions while
      the clock stepped back. Scores only grow, so a stale item is a lower
      bound.

    The victim is the lesser of the current FIFO head and the current heap
    top. A FIFO head whose score is below heap[0]'s, itself a lower bound
    of every heap entry, leaves without a visit to the heap; so an entry
    evicted after one access, the common case under a working set larger
    than the tier, leaves in O(1).
    """

    def __init__(self, config: CacheConfig, clock):
        self.capacity = config.capacity_entries
        self.pin_first_n = config.pin_first_n
        self.halflife = config.hotness_halflife_s
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._res: dict[bytes, tuple[float, int, bytes]] = {}  # key -> its entry
        self._fifo: deque[tuple[float, int, bytes]] = deque()
        self._heap: list[tuple[float, int, bytes]] = []
        self._pin_ids: dict[bytes, list[bytes]] = {}
        self._pin_count = 0  # keys over all pin lists, kept <= capacity
        self._pinned: set[bytes] = set()

    def __len__(self) -> int:
        return len(self._res)

    def _pin(self, key: bytes, pins: list[bytes] | None) -> None:
        """Pin ``key`` if its block id is among the ``pin_first_n`` lowest
        put in its namespace so far. ``pins`` is the namespace's sorted pin
        list, or None before its first pin; keys of one namespace sort by
        block id, so the lists hold the keys themselves."""
        pinned = self._pinned
        if pins is None:
            if self._pin_count < self.capacity:
                self._pin_ids[key[:NAMESPACE_BYTES]] = [key]
                self._pin_count += 1
                pinned.add(key)
            return
        i = bisect_left(pins, key)
        if i < len(pins) and pins[i] == key:
            pinned.add(key)
        elif len(pins) < self.pin_first_n and self._pin_count < self.capacity:
            # Pins never exceed capacity, so eviction can always restore the bound.
            pins.insert(i, key)
            self._pin_count += 1
            pinned.add(key)
        elif i < len(pins):
            displaced = pins.pop()
            pins.insert(i, key)
            pinned.add(key)
            pinned.discard(displaced)
            entry = self._res.get(displaced)
            if entry is not None:
                # Demoted entry becomes an ordinary eviction candidate.
                heappush(self._heap, entry)

    def touch(self, key: bytes, write: bool = False) -> bool:
        """Access a key known to exist in the store. True iff it was resident
        (a cache hit); on a miss the entry is admitted. ``write`` marks a
        put, whose hit or miss the store does not count."""
        weight = _LN2 * (self._clock() - self._t0) / self.halflife
        self._seq = seq = self._seq + 1
        res = self._res
        entry = res.get(key)
        if entry is not None:
            hi, lo = entry[0], weight
            if hi < lo:
                hi, lo = lo, hi
            res[key] = (hi + log1p(exp(lo - hi)), seq, key)
            return True
        if write and self.pin_first_n:
            # Pins are decided when a write admits a key; for a resident key
            # the test is a no-op. Pin lists only grow, and once a list is
            # full or the pin budget spent, its last key only falls. So a
            # pinned key stays pinned until it is demoted or deleted, and a
            # key that failed the tests, or was demoted, fails them for good;
            # a resident key that is not pinned is one of those. The common
            # failure, a key above a list that cannot grow, is decided here.
            pins = self._pin_ids.get(key[:NAMESPACE_BYTES])
            if (
                pins is None
                or key <= pins[-1]
                or (len(pins) < self.pin_first_n and self._pin_count < self.capacity)
            ):
                self._pin(key, pins)
        res[key] = entry = (weight, seq, key)
        fifo, heap, pinned = self._fifo, self._heap, self._pinned
        if key not in pinned:
            if not fifo or weight >= fifo[-1][0]:
                fifo.append(entry)
            else:
                heappush(heap, entry)
        if len(res) > self.capacity:
            # Pins never exceed capacity, so an unpinned entry exists, and
            # so does a current item for it in one of the two queues.
            while fifo:
                head = fifo[0]
                entry = res.get(head[2])
                if entry is head:
                    break
                fifo.popleft()
                if entry is not None and head[2] not in pinned:
                    heappush(heap, entry)
            # Heap items are lower bounds, so a current FIFO head lighter
            # than heap[0] is the victim without a visit to the heap.
            if not fifo or (heap and heap[0][0] <= head[0]):
                while heap:
                    top = heap[0]
                    entry = res.get(top[2])
                    if entry is top:
                        break
                    if entry is None or top[2] in pinned:
                        heappop(heap)
                    else:
                        heapreplace(heap, entry)
                if not fifo or (heap and heap[0] < head):
                    del res[heappop(heap)[2]]
                    return False
            del res[fifo.popleft()[2]]
        return False

    def evict(self, key: bytes) -> None:
        if self._res.pop(key, None) is None:
            return
        self._pinned.discard(key)
        # Pin-list membership survives deletion: a re-inserted low id
        # re-pins, keeping the initial-prefix band stable within a run.
        if len(self._heap) + len(self._fifo) > 2 * len(self._res) + 64:
            # Only deletions leave items without an entry; refile the rest.
            pinned = self._pinned
            self._heap = [e for e in self._res.values() if e[2] not in pinned]
            heapify(self._heap)
            self._fifo.clear()


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
        cache = cache if cache is not None else CacheConfig()
        capacity = cache.capacity_entries
        self._cache: _LruTier | _PinTier | None = None
        if capacity and cache.policy == "lru":
            self._cache = _LruTier(capacity)
        elif capacity:
            self._cache = _PinTier(cache, clock)
        self._puts = 0
        self._gets = 0
        self._scans = 0
        self._deletes = 0
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._map)

    # The operations below take the lock by acquire/release, not ``with``:
    # on CPython 3.11 that halves the locking cost of a point op.

    def put(self, key: bytes, value: int) -> int | None:
        """Map key to value; returns the previous value if the key existed."""
        lock = self._lock
        lock.acquire()
        try:
            prev = self._map.get(key)
            if prev is None:
                if self._max_entries is not None and len(self._map) >= self._max_entries:
                    raise StoreCapacityError(
                        f"store is bounded to {self._max_entries} entries"
                    )
                keys = self._keys
                if not keys or key > keys[-1]:
                    keys.append(key)
                else:
                    insort(keys, key)
            self._puts += 1
            self._map[key] = value
            if self._cache is not None:
                self._cache.touch(key, True)
            return prev
        finally:
            lock.release()

    def get(self, key: bytes) -> int | None:
        """Current mapping or None. Promotes the entry in the hot cache."""
        lock = self._lock
        lock.acquire()
        try:
            self._gets += 1
            value = self._map.get(key)
            if self._cache is not None:
                if value is not None and self._cache.touch(key):
                    self._hits += 1
                else:
                    self._misses += 1
            return value
        finally:
            lock.release()

    def scan(
        self, start: bytes, end_exclusive: bytes, max_results: int | None = None
    ) -> list[tuple[bytes, int]]:
        """Present entries with start <= key < end_exclusive, in key order,
        truncated to max_results (None = unlimited)."""
        check_scan(start, end_exclusive, max_results)
        lock = self._lock
        lock.acquire()
        try:
            self._scans += 1
            keys, m = self._keys, self._map
            i = bisect_left(keys, start)
            stop = len(keys)
            if max_results is not None and i + max_results < stop:
                stop = i + max_results
            # A walk, not a second bisect: a scan's few rows cost less than
            # the log2(n) key comparisons that would find its end.
            out: list[tuple[bytes, int]] = []
            while i < stop:
                k = keys[i]
                if k >= end_exclusive:
                    break
                out.append((k, m[k]))
                i += 1
            return out
        finally:
            lock.release()

    def delete(self, key: bytes) -> bool:
        """Remove the mapping from both views; True iff it was present."""
        lock = self._lock
        lock.acquire()
        try:
            self._deletes += 1
            if key not in self._map:
                return False
            del self._map[key]
            self._keys.pop(bisect_left(self._keys, key))
            if self._cache is not None:
                self._cache.evict(key)
            return True
        finally:
            lock.release()

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
                cache_entries=len(self._cache) if self._cache is not None else 0,
            )
