"""Naive sorted-association-list store: the reference model the real store
is judged against. One flat sorted list of (key, value) associations; no
hash directory, no cache, no hybrid anything. ``ModelHotTier`` is the
matching brute-force reference for the ``lru_pin`` hot-tier counters."""

from __future__ import annotations

import math
from bisect import bisect_left


class ModelStore:
    def __init__(self):
        self._keys: list[bytes] = []
        self._values: list[int] = []
        self.puts = 0
        self.gets = 0
        self.scans = 0
        self.deletes = 0

    def _find(self, key: bytes) -> int | None:
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return i
        return None

    def put(self, key: bytes, value: int) -> int | None:
        self.puts += 1
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            old = self._values[i]
            self._values[i] = value
            return old
        self._keys.insert(i, key)
        self._values.insert(i, value)
        return None

    def get(self, key: bytes) -> int | None:
        self.gets += 1
        i = self._find(key)
        return None if i is None else self._values[i]

    def scan(self, start: bytes, end_exclusive: bytes, max_results: int | None = None):
        if start >= end_exclusive:
            raise ValueError("bad range")
        self.scans += 1
        lo = bisect_left(self._keys, start)
        hi = bisect_left(self._keys, end_exclusive)
        if max_results is not None:
            hi = min(hi, lo + max_results)
        return list(zip(self._keys[lo:hi], self._values[lo:hi]))

    def delete(self, key: bytes) -> bool:
        self.deletes += 1
        i = self._find(key)
        if i is None:
            return False
        self._keys.pop(i)
        self._values.pop(i)
        return True

    def entries(self):
        return list(zip(self._keys, self._values))


class ModelHotTier:
    """Brute-force reference for the ``lru_pin`` hot tier.

    Same log-score arithmetic as the store: a score is the natural log of
    the sum of its access weights 2^((t - t0)/halflife), so it never
    overflows and the model holds for any uptime. Each eviction scans every
    resident for the unpinned one with the least (score, last_seq).

    The store's pin rule: when a write admits a key to the tier, the key is
    pinned if its block id is in its namespace's pin list. Otherwise, if
    that list holds fewer than ``pin_first_n`` ids and all lists together
    hold fewer than the tier's capacity, the id joins the list and the key
    is pinned. Otherwise, if the id is below the list's highest id, it takes
    that id's place: the key is pinned and the displaced key is unpinned.
    While namespaces x ``pin_first_n`` <= capacity the budget never binds,
    and the rule pins a key iff it is in the store and its id is among the
    ``pin_first_n`` lowest ids ever put in its namespace. That is what the
    model computes, so it models pins only while namespaces x
    ``pin_first_n`` <= capacity.
    """

    def __init__(self, capacity: int, pin_first_n: int, halflife: float, clock):
        self.capacity = capacity
        self.pin_first_n = pin_first_n
        self.halflife = halflife
        self.clock = clock
        self.t0 = clock()
        self.seq = 0
        self.hits = 0
        self.misses = 0
        self.entries: dict[bytes, list] = {}  # key -> [score, last_seq]
        self.stored: set[bytes] = set()
        self.ids_put: dict[bytes, set[int]] = {}

    @staticmethod
    def _split(key: bytes) -> tuple[bytes, int]:
        return key[:24], int.from_bytes(key[24:], "big")  # 24-byte namespace tag, BE id

    def _pinned(self, key: bytes) -> bool:
        ns, bid = self._split(key)
        return key in self.stored and bid in sorted(self.ids_put[ns])[: self.pin_first_n]

    def _access(self, key: bytes) -> None:
        self.seq += 1
        weight = math.log(2.0) * (self.clock() - self.t0) / self.halflife
        entry = self.entries.get(key)
        if entry is None:
            self.entries[key] = entry = [weight, 0]
        else:
            hi, lo = max(entry[0], weight), min(entry[0], weight)
            entry[0] = hi + math.log1p(math.exp(lo - hi))
        entry[1] = self.seq
        if len(self.entries) > self.capacity:
            victim = min((e[0], e[1], k) for k, e in self.entries.items() if not self._pinned(k))
            del self.entries[victim[2]]

    def put(self, key: bytes) -> None:
        ns, bid = self._split(key)
        self.stored.add(key)
        self.ids_put.setdefault(ns, set()).add(bid)
        self._access(key)

    def get(self, key: bytes) -> None:
        if key not in self.stored:
            self.misses += 1
            return
        if key in self.entries:
            self.hits += 1
        else:
            self.misses += 1
        self._access(key)

    def delete(self, key: bytes) -> None:
        self.stored.discard(key)
        self.entries.pop(key, None)
