"""Output checks computed apart from the package under test.

Nothing here calls kvcmeta: the key layout, run segmentation and op counts
are re-derived from the trace with this module's own code, so a bug in the
package's codec or compiler cannot also hide in the check. Every check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

from hashlib import sha256

NAMESPACE_BYTES = 24

SCAN = "range_scan"
GET = "point_get"
INSERT = "insert"


def key_fn(key_scheme: str, namespace: bytes = b""):
    """Key of a block id: 24-byte NUL-padded namespace tag + 8-byte BE id,
    or the SHA-256 digest of those 32 bytes under the hashed scheme."""
    tag = namespace.ljust(NAMESPACE_BYTES, b"\x00")
    if key_scheme == "ordered":
        return lambda bid: tag + bid.to_bytes(8, "big")
    return lambda bid: sha256(tag + bid.to_bytes(8, "big")).digest()


def ordered_id(key: bytes) -> int:
    return int.from_bytes(key[NAMESPACE_BYTES:], "big")


def runs(ids) -> list[tuple[int, int]]:
    """Maximal stretches where each id is its predecessor + 1: (start, length)."""
    out: list[tuple[int, int]] = []
    for bid in ids:
        if out and bid == out[-1][0] + out[-1][1]:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((bid, 1))
    return out


def expected_counts(block_lists, mode: str, key_scheme: str) -> dict[str, int]:
    """Ops per kind and covered positions the compile rules must produce.

    A run of length >= 2 of readable ids is one scan under ordered keys;
    every other readable position is a get. Under insert_on_miss a
    first-seen id is an insert and splits the run around it.
    """
    scans_ok = key_scheme == "ordered"
    counts = {SCAN: 0, GET: 0, INSERT: 0, "positions": 0}
    seen: set[int] = set()

    def reads(length: int) -> None:
        if scans_ok and length >= 2:
            counts[SCAN] += 1
        else:
            counts[GET] += length

    for ids in block_lists:
        counts["positions"] += len(ids)
        for start, length in runs(ids):
            if mode == "preload":
                reads(length)
                continue
            pending = 0
            for bid in range(start, start + length):
                if bid in seen:
                    pending += 1
                    continue
                if pending:
                    reads(pending)
                    pending = 0
                seen.add(bid)
                counts[INSERT] += 1
            if pending:
                reads(pending)
    return counts


def check_stream(stream, block_lists, mode: str, key_scheme: str, distinct: int) -> list[str]:
    want = expected_counts(block_lists, mode, key_scheme)
    got = {SCAN: 0, GET: 0, INSERT: 0, "positions": 0}
    for op in stream.ops:
        got[op.kind] += 1
        got["positions"] += op.span
    failures = [f"compiled {k}: {got[k]} != expected {want[k]}" for k in want if got[k] != want[k]]
    want_preload = distinct if mode == "preload" else 0
    if len(stream.preload) != want_preload:
        failures.append(f"preload set {len(stream.preload)} != expected {want_preload}")
    return failures


def check_stats(stats, *, gets: int, scans: int, puts: int, resident: int,
                cache_capacity: int) -> list[str]:
    """Counters against the ops issued: ``puts`` includes preload puts."""
    failures = []
    for name, want in (("gets", gets), ("scans", scans), ("puts", puts),
                       ("resident_entries", resident)):
        if getattr(stats, name) != want:
            failures.append(f"stats.{name} {getattr(stats, name)} != {want}")
    lookups = stats.cache_hits + stats.cache_misses
    want_lookups = gets if cache_capacity else 0
    if lookups != want_lookups:
        failures.append(f"cache_hits + cache_misses {lookups} != {want_lookups}")
    if cache_capacity and stats.cache_entries > cache_capacity:
        failures.append(f"cache_entries {stats.cache_entries} > capacity {cache_capacity}")
    return failures


def check_readback(backend, expect, scan_ops, key) -> list[str]:
    """Every (key, id) pair in ``expect`` reads back as its id; every
    compiled scan returns exactly the keys start..start+span-1 in order,
    each with its id as the value."""
    failures = []
    for k, bid in expect:
        value = backend.get(k)
        if value != bid:
            failures.append(f"get(key of id {bid}) returned {value!r}")
            break
    for op in scan_ops:
        first = ordered_id(op.start)
        want = [(key(b), b) for b in range(first, first + op.span)]
        if op.start != key(first) or op.end_exclusive != key(first + op.span):
            failures.append(f"scan bounds for id {first} span {op.span} are not its keys")
            break
        rows = backend.scan(op.start, op.end_exclusive, max_results=op.span)
        if [tuple(r) for r in rows] != want:
            failures.append(f"scan from id {first} span {op.span} returned {len(rows)} wrong rows")
            break
    return failures
