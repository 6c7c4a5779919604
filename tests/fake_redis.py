"""In-memory fake of the ``redis`` client calls that ``ExternalBackend``
makes, so the backend contract suite runs it without a Redis service."""

from __future__ import annotations

import bisect


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
