from __future__ import annotations

import random
from collections import OrderedDict
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from kvcmeta.store import (
    CacheConfig,
    HybridMetaStore,
    _namespace_tag,
    decode_key,
    encode_key,
    hash_key,
    key_encoder,
)
from oracle_store import ModelHotTier, ModelStore

NS = b"ns-a"
NS2 = b"ns-b"


class TestKeyEncoding:
    def test_zero_case(self):
        assert encode_key(b"", 0) == b"\x00" * 32

    def test_layout(self):
        key = encode_key(b"abc", 0x0102030405060708)
        assert len(key) == 32
        assert key[:3] == b"abc"
        assert key[3:24] == b"\x00" * 21
        assert key[24:] == bytes([1, 2, 3, 4, 5, 6, 7, 8])

    def test_order_preservation(self):
        assert encode_key(NS, 5) < encode_key(NS, 6)
        assert encode_key(NS, 255) < encode_key(NS, 256)

    def test_bijection(self):
        ns = b"x" * 24
        assert decode_key(encode_key(ns, 123456789)) == (ns, 123456789)

    def test_str_namespace(self):
        assert encode_key("abc", 1) == encode_key(b"abc", 1)

    def test_namespace_too_long(self):
        with pytest.raises(ValueError, match="longer"):
            encode_key(b"x" * 25, 0)

    def test_decode_requires_32_bytes(self):
        with pytest.raises(ValueError):
            decode_key(b"short")

    def test_hash_key_is_32_bytes_and_unordered(self):
        k = hash_key(NS, 7)
        assert len(k) == 32
        assert k != encode_key(NS, 7)
        assert hash_key(NS, 7) == k  # deterministic
        assert hash_key(NS, 8) != k

    @given(st.integers(min_value=0, max_value=2**64 - 2))
    @settings(max_examples=200, deadline=None)
    def test_order_preservation_property(self, bid):
        assert encode_key(NS, bid) < encode_key(NS, bid + 1)
        assert decode_key(encode_key(NS, bid)) == (NS.ljust(24, b"\x00"), bid)


class TestKeyCodecCache:
    """The namespace tag is memoized; the bytes of every key must not change."""

    @pytest.mark.parametrize("length", [0, 1, 23, 24])
    def test_keys_are_byte_identical_for_str_and_bytes_namespaces(self, length):
        raw = bytes(range(97, 97 + length))  # b"abc..."
        tag = raw + b"\x00" * (24 - length)
        for ns in (raw, raw.decode("ascii")) * 2:  # the second round hits the cache
            for bid in (0, 1, 255, 256, 2**64 - 1):
                want = tag + bid.to_bytes(8, "big")
                assert encode_key(ns, bid) == want
                assert hash_key(ns, bid) == sha256(want).digest()
                assert key_encoder(ns)(bid) == want
                assert key_encoder(ns, hashed=True)(bid) == sha256(want).digest()
                assert decode_key(encode_key(ns, bid)) == (tag, bid)

    def test_too_long_namespace_raises_on_every_call(self):
        for ns in (b"x" * 25, "x" * 25):
            for _ in range(3):
                for call in (lambda: encode_key(ns, 0), lambda: hash_key(ns, 0),
                             lambda: key_encoder(ns), lambda: key_encoder(ns, hashed=True)):
                    with pytest.raises(ValueError, match="longer"):
                        call()

    def test_cache_is_bounded(self):
        maxsize = _namespace_tag.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 100):
            encode_key(f"bound-{i}", i)
        assert _namespace_tag.cache_info().currsize <= maxsize


class TestCacheConfig:
    def test_defaults_disabled(self):
        assert CacheConfig().capacity_entries == 0

    def test_pin_exceeds_capacity(self):
        with pytest.raises(ValueError, match="pin_first_n"):
            CacheConfig(capacity_entries=8, policy="lru_pin", pin_first_n=9)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            CacheConfig(policy="mru")

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_entries=-1)

    def test_nan_halflife_is_rejected_and_inf_means_no_decay(self):
        with pytest.raises(ValueError, match="hotness_halflife_s must be positive"):
            CacheConfig(4, "lru_pin", 1, float("nan"))
        assert CacheConfig(4, "lru_pin", 1, float("inf")).hotness_halflife_s == float("inf")

    def test_replace_and_make_check_like_the_constructor(self):
        cfg = CacheConfig(capacity_entries=8, policy="lru_pin", pin_first_n=4)
        assert cfg._replace(pin_first_n=8) == CacheConfig(8, "lru_pin", 8, 600.0)
        assert type(cfg._replace(pin_first_n=8)) is CacheConfig
        with pytest.raises(ValueError, match="capacity_entries"):
            cfg._replace(capacity_entries=-1)
        with pytest.raises(ValueError, match="pin_first_n"):
            cfg._replace(pin_first_n=9)
        with pytest.raises(ValueError, match="policy"):
            CacheConfig._make((8, "mru", 4, 600.0))


class TestBasicOps:
    def test_put_fresh_returns_none(self):
        s = HybridMetaStore()
        assert s.put(encode_key(NS, 1), 10) is None

    def test_put_overwrite_returns_previous(self):
        s = HybridMetaStore()
        k = encode_key(NS, 1)
        s.put(k, 10)
        assert s.put(k, 20) == 10
        assert s.get(k) == 20

    def test_get_absent_is_none(self):
        assert HybridMetaStore().get(encode_key(NS, 5)) is None

    def test_delete(self):
        s = HybridMetaStore()
        k = encode_key(NS, 1)
        assert s.delete(k) is False
        s.put(k, 1)
        assert s.delete(k) is True
        assert s.get(k) is None

    def test_scan_example_with_gap(self):
        s = HybridMetaStore()
        for bid in (5, 6, 7, 8, 9, 10):
            s.put(encode_key(NS, bid), bid)
        s.delete(encode_key(NS, 7))
        rows = s.scan(encode_key(NS, 5), encode_key(NS, 11))
        assert [decode_key(k)[1] for k, _ in rows] == [5, 6, 8, 9, 10]
        assert [v for _, v in rows] == [5, 6, 8, 9, 10]

    def test_scan_empty_store(self):
        assert HybridMetaStore().scan(encode_key(NS, 0), encode_key(NS, 10)) == []


class TestStats:
    def test_get_conservation_with_cache(self):
        s = HybridMetaStore(cache=CacheConfig(capacity_entries=4))
        for bid in range(8):
            s.put(encode_key(NS, bid), bid)
        rng = random.Random(7)
        n = 100
        for _ in range(n):
            s.get(encode_key(NS, rng.randrange(12)))  # includes absent keys
        stats = s.stats()
        assert stats.gets == n
        assert stats.cache_hits + stats.cache_misses == n


def _replay_ops(backend, ops):
    """Replay (op, bid, ns, extra) tuples; returns the list of results."""
    results = []
    for op, ns, bid, extra in ops:
        key = encode_key(ns, bid)
        if op == "put":
            results.append(backend.put(key, extra))
        elif op == "get":
            results.append(backend.get(key))
        elif op == "delete":
            results.append(backend.delete(key))
        else:
            hi = bid + 1 + extra
            results.append(
                tuple(backend.scan(encode_key(ns, bid), encode_key(ns, hi), max_results=extra + 1))
            )
    return results


_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete", "scan"]),
        st.sampled_from([NS, NS2]),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=20),
    ),
    max_size=200,
)

_cache_configs = st.sampled_from(
    [
        None,
        CacheConfig(capacity_entries=4, policy="lru"),
        CacheConfig(capacity_entries=8, policy="lru_pin", pin_first_n=4),
        CacheConfig(capacity_entries=1, policy="lru_pin", pin_first_n=1),
    ]
)


@given(_ops, _cache_configs)
@settings(max_examples=200, deadline=None)
def test_oracle_equivalence_property(ops, cache):
    store = HybridMetaStore(cache=cache)
    oracle = ModelStore()
    assert _replay_ops(store, ops) == _replay_ops(oracle, ops)


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_cache_transparency_property(ops):
    """The cache layer must never change any result, only counters."""
    configs = [
        None,
        CacheConfig(capacity_entries=2, policy="lru"),
        CacheConfig(capacity_entries=16, policy="lru"),
        CacheConfig(capacity_entries=6, policy="lru_pin", pin_first_n=3),
    ]
    outcomes = [_replay_ops(HybridMetaStore(cache=cfg), ops) for cfg in configs]
    assert all(o == outcomes[0] for o in outcomes)


_index_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["put_above", "put_below", "put_random", "put_last", "delete_last",
             "put_last_deleted", "delete_random"]
        ),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=120,
)


@given(_index_ops)
@settings(max_examples=300, deadline=None)
def test_in_order_put_fast_path_keeps_the_index_sorted(ops):
    """Puts above, below and among the indexed keys, re-puts and deletes of
    the current last key: after every op the index is exactly the sorted
    key set, and scans equal the oracle's."""
    store, oracle = HybridMetaStore(), ModelStore()
    last_deleted = 1_000
    for op, n in ops:
        ids = sorted(decode_key(k)[1] for k in store._map)
        if op.startswith("delete"):
            if ids:
                bid = ids[-1] if op == "delete_last" else ids[n % len(ids)]
                last_deleted = bid if op == "delete_last" else last_deleted
                key = encode_key(NS, bid)
                assert store.delete(key) == oracle.delete(key)
        else:
            top, bottom = (ids[-1], ids[0]) if ids else (1_000, 1_000)
            bid = {
                "put_above": top + 1 + n,
                "put_below": max(0, bottom - 1 - n % 8),
                "put_random": 900 + 10 * n,
                "put_last": top,
                "put_last_deleted": last_deleted,
            }[op]
            key = encode_key(NS, bid)
            assert store.put(key, n) == oracle.put(key, n)
        assert store._keys == sorted(store._map)
        lo, hi = encode_key(NS, 900 + 10 * n), encode_key(NS, 2_000 + n)
        assert store.scan(lo, hi) == oracle.scan(lo, hi)
    everything = (b"\x00" * 32, b"\xff" * 32)
    assert store.scan(*everything) == oracle.scan(*everything)


def test_bulk_random_puts_then_full_scan_matches_oracle():
    rng = random.Random(11)
    store = HybridMetaStore()
    oracle = ModelStore()
    for _ in range(10_000):
        ns = NS if rng.random() < 0.5 else NS2
        key = encode_key(ns, rng.randrange(2_000))
        value = rng.randrange(1 << 32)
        assert store.put(key, value) == oracle.put(key, value)
    full = store.scan(b"\x00" * 32, b"\xff" * 32)
    assert full == oracle.scan(b"\x00" * 32, b"\xff" * 32)
    keys = [k for k, _ in full]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCachePolicies:
    def test_lru_evicts_least_recent(self):
        clock = _FakeClock()
        s = HybridMetaStore(cache=CacheConfig(capacity_entries=2, policy="lru"), clock=clock)
        a, b, c = (encode_key(NS, i) for i in (1, 2, 3))
        for k in (a, b, c):
            s.put(k, 0)
        # a was least recently touched -> evicted
        before = s.stats()
        s.get(a)
        s.get(c)
        after = s.stats()
        assert after.cache_misses - before.cache_misses == 1  # a missed
        assert after.cache_hits - before.cache_hits == 1  # c hit

    def test_hotness_beats_recency_under_lru_pin(self):
        clock = _FakeClock()
        s = HybridMetaStore(
            cache=CacheConfig(
                capacity_entries=2, policy="lru_pin", pin_first_n=0, hotness_halflife_s=600.0
            ),
            clock=clock,
        )
        a, b, c = (encode_key(NS, i) for i in (100, 200, 300))
        s.put(a, 0)
        for _ in range(4):
            s.get(a)  # a is hot: score 5 at t=0
        clock.now = 600.0
        s.put(b, 0)  # b: one touch, score 2 (weight doubled after one half-life)
        s.put(c, 0)  # forces an eviction: b is coldest (a kept despite age)
        before = s.stats()
        s.get(a)
        s.get(c)
        s.get(b)
        after = s.stats()
        assert after.cache_hits - before.cache_hits == 2  # a and c resident
        assert after.cache_misses - before.cache_misses == 1  # b was evicted

    def test_lru_would_have_evicted_the_hot_entry(self):
        # same access pattern as above under plain lru: a is the LRU victim
        s = HybridMetaStore(cache=CacheConfig(capacity_entries=2, policy="lru"))
        a, b, c = (encode_key(NS, i) for i in (100, 200, 300))
        s.put(a, 0)
        for _ in range(4):
            s.get(a)
        s.put(b, 0)
        s.put(c, 0)
        before = s.stats()
        s.get(a)
        after = s.stats()
        assert after.cache_misses - before.cache_misses == 1

    def test_pinned_entries_never_miss_on_reaccess(self):
        s = HybridMetaStore(
            cache=CacheConfig(capacity_entries=8, policy="lru_pin", pin_first_n=4)
        )
        pinned = [encode_key(NS, i) for i in range(4)]
        for k in pinned:
            s.put(k, 0)
        rng = random.Random(5)
        for round_no in range(200):
            # flood with fresh higher ids to pressure the unpinned capacity
            hot = encode_key(NS, 100 + round_no)
            s.put(hot, 0)
            s.get(hot)
            s.get(encode_key(NS, 100 + rng.randrange(round_no + 1)))
            before = s.stats().cache_misses
            s.get(pinned[rng.randrange(4)])
            assert s.stats().cache_misses == before  # pinned re-access never misses

    def test_pinning_is_per_namespace(self):
        s = HybridMetaStore(
            cache=CacheConfig(capacity_entries=8, policy="lru_pin", pin_first_n=2)
        )
        for ns in (NS, NS2):
            for bid in range(2):
                s.put(encode_key(ns, bid), 0)
        for _ in range(20):
            s.put(encode_key(NS, 1000), 0)
            s.put(encode_key(NS2, 1000), 0)
        before = s.stats().cache_misses
        for ns in (NS, NS2):
            for bid in range(2):
                s.get(encode_key(ns, bid))
        assert s.stats().cache_misses == before

    def test_pin_set_tracks_lowest_ids(self):
        # ids arrive high-first; the final lowest-n band must still be pinned
        s = HybridMetaStore(
            cache=CacheConfig(capacity_entries=8, policy="lru_pin", pin_first_n=2)
        )
        for bid in (50, 40, 2, 1):
            s.put(encode_key(NS, bid), 0)
        for i in range(50):
            s.put(encode_key(NS, 1000 + i), 0)  # churn the unpinned space
        before = s.stats().cache_misses
        s.get(encode_key(NS, 1))
        s.get(encode_key(NS, 2))
        assert s.stats().cache_misses == before

    def test_a_spent_pin_budget_displaces_and_then_pins_nothing(self):
        # Four namespaces with one key each spend the budget of 4 pins while
        # every pin list is still shorter than pin_first_n.
        s = HybridMetaStore(
            cache=CacheConfig(capacity_entries=4, policy="lru_pin", pin_first_n=3)
        )
        first = [encode_key(f"ns{i}", 10) for i in range(4)]
        for k in first:
            s.put(k, 0)
        tier = s._cache
        assert tier._pinned == set(first) and tier._pin_count == 4
        low, high = encode_key("ns0", 5), encode_key("ns0", 20)
        s.put(low, 0)  # displaces ns0's pin, the one entry left to evict
        kept = {low, *first[1:]}
        assert tier._pinned == kept and tier._pin_ids[low[:24]] == [low]
        s.put(high, 0)  # above ns0's list, with no budget left: pins nothing
        assert tier._pinned == kept and tier._pin_count == 4
        before = s.stats()
        for k in (first[0], high, *kept):
            s.get(k)
        after = s.stats()
        assert after.cache_misses - before.cache_misses == 2  # first[0] and high
        assert after.cache_hits - before.cache_hits == 4

    def test_cache_capacity_zero_disables_accounting(self):
        s = HybridMetaStore(cache=CacheConfig(capacity_entries=0))
        s.put(encode_key(NS, 1), 1)
        s.get(encode_key(NS, 1))
        stats = s.stats()
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert stats.cache_entries == 0

    def test_cache_entries_bounded_by_capacity(self):
        s = HybridMetaStore(cache=CacheConfig(capacity_entries=3, policy="lru_pin", pin_first_n=2))
        for bid in range(50):
            s.put(encode_key(NS, bid), 0)
        assert s.stats().cache_entries <= 3
        assert s.stats().resident_entries == 50

    @pytest.mark.parametrize("start_halflives", [1e4, 20 * 512 - 0.5])
    def test_hotness_beats_recency_across_score_rebases(self, start_halflives):
        # test_hotness_beats_recency_under_lru_pin, begun 10^4 half-lives after
        # the store's origin; the second start puts a rebase between a and b.
        clock = _FakeClock()
        s = HybridMetaStore(
            cache=CacheConfig(
                capacity_entries=2, policy="lru_pin", pin_first_n=0, hotness_halflife_s=600.0
            ),
            clock=clock,
        )
        a, b, c = (encode_key(NS, i) for i in (100, 200, 300))
        clock.now = start_halflives * 600.0
        s.put(a, 0)
        for _ in range(4):
            s.get(a)
        clock.now += 600.0
        s.put(b, 0)
        s.put(c, 0)
        before = s.stats()
        s.get(a)
        s.get(c)
        s.get(b)
        after = s.stats()
        assert after.cache_hits - before.cache_hits == 2
        assert after.cache_misses - before.cache_misses == 1

    def test_lru_pin_outlives_a_thousand_half_lives(self):
        clock = _FakeClock()
        s = HybridMetaStore(
            cache=CacheConfig(
                capacity_entries=4, policy="lru_pin", pin_first_n=1, hotness_halflife_s=1.0
            ),
            clock=clock,
        )
        clock.now = 1_100.0
        key = encode_key(NS, 1)
        assert s.put(key, 5) is None
        assert s.get(key) == 5
        assert s.stats().cache_hits == 1

    def test_pins_never_exceed_capacity_under_hashed_keys(self):
        # Every hashed key carries its own 24-byte "namespace", so each one
        # would pin itself if pins were not bounded by the capacity.
        s = HybridMetaStore(
            cache=CacheConfig(capacity_entries=64, policy="lru_pin", pin_first_n=16)
        )
        for bid in range(5_000):
            s.put(hash_key(NS, bid), bid)
        assert s.stats().cache_entries <= 64


_timed_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete"]),
        st.sampled_from([NS, NS2]),
        st.integers(min_value=0, max_value=15),  # few ids: reuse, evictions, pins
        # clock advance in quarter half-lives; the large ones would overflow
        # linear scores 2^(t/halflife)
        st.integers(min_value=0, max_value=4) | st.sampled_from([4_000, 4_000_000]),
    ),
    min_size=20,
    max_size=200,
)


def _replay_against_model(ops, capacity, pin, halflife):
    clock = _FakeClock()
    store = HybridMetaStore(
        cache=CacheConfig(capacity, "lru_pin", pin, hotness_halflife_s=halflife), clock=clock
    )
    model = ModelHotTier(capacity, pin, halflife, clock)
    for op, ns, bid, quarters in ops:
        clock.now += quarters * halflife / 4
        key = encode_key(ns, bid)
        if op == "put":
            store.put(key, bid)
        else:
            getattr(store, op)(key)
        getattr(model, op)(key)
        stats = store.stats()
        assert (stats.cache_hits, stats.cache_misses, stats.cache_entries) == (
            model.hits, model.misses, len(model.entries)
        )
        assert len(store._cache._heap) + len(store._cache._fifo) <= 2 * stats.cache_entries + 64


@given(
    _timed_ops,
    st.sampled_from([(1, 0), (2, 1), (3, 1), (5, 2), (8, 4), (8, 0)]),  # 2 x pin <= capacity
    st.sampled_from([0.5, 1.0, 600.0]),
)
@settings(max_examples=200, deadline=None)
def test_lru_pin_matches_reference_hot_tier(ops, capacity_pin, halflife):
    capacity, pin = capacity_pin
    _replay_against_model(ops, capacity, pin, halflife)


def _admission_runs(capacity, quarters):
    """Single ops mixed with runs of consecutive ids, so that long stretches
    of entries are admitted, and mostly evicted, after one access."""
    ids = st.integers(min_value=0, max_value=4 * capacity - 1)
    single = st.tuples(
        st.sampled_from(["put", "get", "delete"]), st.sampled_from([NS, NS2]), ids, quarters
    ).map(lambda op: [op])
    run = st.tuples(
        st.sampled_from(["put", "get"]),
        st.sampled_from([NS, NS2]),
        ids,
        st.integers(min_value=1, max_value=2 * capacity),
        quarters,
    ).map(lambda r: [(r[0], r[1], (r[2] + i) % (4 * capacity), r[4]) for i in range(r[3])])
    return st.lists(st.one_of(single, run), min_size=5, max_size=30).map(
        lambda segments: [op for segment in segments for op in segment]
    )


@given(
    st.sampled_from([16, 32]).flatmap(
        lambda c: st.tuples(st.just(c), _admission_runs(c, st.integers(0, 2)))
    ),
    st.sampled_from([0, 2, 8]),
    st.sampled_from([0.5, 1.0, 600.0]),
)
@settings(max_examples=150, deadline=None)
def test_lru_pin_single_access_fifo_matches_reference_hot_tier(capacity_ops, pin, halflife):
    # Clock advances of 0 give equal weights, so (score, last_seq) ties are
    # broken by last_seq alone.
    capacity, ops = capacity_ops
    _replay_against_model(ops, capacity, pin, halflife)


@given(_admission_runs(16, st.integers(-4, 4)), st.sampled_from([0, 2]))
@settings(max_examples=100, deadline=None)
def test_lru_pin_matches_reference_hot_tier_when_the_clock_steps_back(ops, pin):
    # An admission lighter than the FIFO's last item must not queue behind it.
    _replay_against_model(ops, 16, pin, 1.0)


def _steps_against_model(steps, halflife=1.0):
    """Run (half-lives since start, op, id) steps on a capacity-2 ``lru_pin``
    store with no pins and on ``ModelHotTier``; compare after every op."""
    clock = _FakeClock()
    store = HybridMetaStore(cache=CacheConfig(2, "lru_pin", 0, hotness_halflife_s=halflife),
                            clock=clock)
    model = ModelHotTier(2, 0, halflife, clock)
    for t, op, bid in steps:
        clock.now = t * halflife
        key = encode_key(NS, bid)
        if op == "put":
            store.put(key, bid)
        else:
            store.get(key)
        getattr(model, op)(key)
        stats = store.stats()
        assert (stats.cache_hits, stats.cache_misses, stats.cache_entries) == (
            model.hits, model.misses, len(model.entries)
        ), (t, op, bid)
    return store


# Ids: A = 1, B = 2, ... With a half-life of 1 s an access at t weighs 2^t,
# and a score is the log of its entry's sum of weights. A is read twice at
# t = 0 (score ln 2), so its FIFO item is stale when it reaches the head
# and is re-filed in the heap at ln 2.
_A_IN_THE_HEAP = [
    (0, "put", 1), (0, "get", 1), (0, "put", 2),
    (0, "put", 3),  # A goes to the heap at ln 2; head B (ln 1) is lighter: B leaves
]


def test_lru_pin_evicts_a_fifo_head_lighter_than_the_heap_top():
    store = _steps_against_model(_A_IN_THE_HEAP + [
        (0, "get", 1), (0, "get", 2), (0, "get", 3),
    ])
    assert encode_key(NS, 1) in {key for _, _, key in store._cache._heap}


def test_lru_pin_breaks_a_score_tie_with_the_heap_top_by_recency():
    _steps_against_model(_A_IN_THE_HEAP + [
        (1, "put", 4),  # head C (ln 1) is lighter than A (ln 2): C leaves
        (1, "put", 5),  # head D weighs ln 2 as A does, but A is less recent: A leaves
        (1, "get", 1), (1, "get", 4), (1, "get", 5),
    ])


def test_lru_pin_refreshes_a_stale_heap_top_below_the_fifo_head():
    _steps_against_model(_A_IN_THE_HEAP + [
        (3, "put", 4),  # head C (ln 1) is lighter than A (ln 2): C leaves
        (4, "get", 1),  # A's score is now ln 18; its heap tuple stays at ln 2
        (4, "put", 5),  # A's stale tuple is below head D (ln 8), A's score is
                        # above it: the heap top is refreshed, and D leaves
        (4, "get", 1),  # A stayed (score ln 34)
        (6, "get", 5),  # E (ln 80) is re-filed at the next eviction
        (6, "put", 6),  # head F (ln 64) is above A's score: A leaves
        (6, "get", 1), (6, "get", 4), (6, "get", 5), (6, "get", 6),
    ])


def test_lru_pin_resolves_an_exact_tie_by_the_rounding_of_the_model():
    # A, read twice at t, and B, read once at t + 1 half-life, have equal
    # scores in exact arithmetic, so rounding picks the victim. At a 600 s
    # half-life, (t - t0) * (ln2 / halflife) rounds differently from
    # ln2 * (t - t0) / halflife for this t, and the victim would change.
    _steps_against_model([
        (1.25, "put", 1), (1.25, "get", 1), (2.25, "put", 2), (2.25, "put", 3),
        (2.25, "get", 1), (2.25, "get", 2),
    ], halflife=600.0)


def test_lru_pin_bookkeeping_stays_bounded_under_put_delete_churn():
    # At most 9 keys live in a tier of 64, so no eviction ever pops a queue;
    # only deletion can drop the items that deleted keys leave behind.
    store = HybridMetaStore(cache=CacheConfig(64, "lru_pin", pin_first_n=2))
    tier = store._cache
    for bid in range(5_000):
        store.put(encode_key(NS, bid), bid)
        store.get(encode_key(NS, bid))
        if bid >= 8:
            store.delete(encode_key(NS, bid - 8))
        assert len(tier) <= 9
        assert len(tier._heap) + len(tier._fifo) <= 2 * len(tier) + 64


# -- batched tier applies ----------------------------------------------------
#
# A get of a present key waits in the store's pending list until 256 are
# pending or a put, delete or stats() applies it. These stretches put more
# than 256 such gets between two stats() calls, with puts, deletes and clock
# steps back among them, so batches are applied in the middle of a stretch
# as well as by the ops and the stats() call that end it.

_BATCH_IDS = 64  # per namespace


def _batched_stretch():
    """A run of 257-400 reads of consecutive ids with up to 12 single ops
    (puts, gets, deletes, clock steps back or forward) inserted in it, or,
    as often, the single ops alone."""
    ids = st.integers(min_value=0, max_value=_BATCH_IDS - 1)
    ns = st.sampled_from([NS, NS2])
    # clock steps in quarter half-lives, back as well as forward
    single = st.tuples(st.sampled_from(["put", "get", "delete"]), ns, ids, st.integers(-4, 4))
    run = st.tuples(ns, ids, st.integers(min_value=257, max_value=400)).map(
        lambda r: [("get", r[0], (r[1] + i) % _BATCH_IDS, 0) for i in range(r[2])]
    )

    def interleave(parts):
        reads, singles, with_reads = parts
        ops = list(reads) if with_reads else []
        for at, op in sorted(singles, reverse=True):
            ops.insert(at, op)
        return ops

    return st.tuples(
        run, st.lists(st.tuples(st.integers(0, 400), single), max_size=12), st.booleans()
    ).map(interleave)


_batched_stretches = st.lists(_batched_stretch(), min_size=1, max_size=4)


def _stretches_against(store, model, clock, stretches, halflife):
    """Fill both namespaces, replay each stretch on ``store`` and ``model``
    and compare the counters only at the stats() call after each stretch."""
    prefill = [("put", ns, bid, 0) for ns in (NS, NS2) for bid in range(_BATCH_IDS)]
    for ops in [prefill, *stretches]:
        for op, ns, bid, quarters in ops:
            clock.now += quarters * halflife / 4
            key = encode_key(ns, bid)
            if op == "put":
                store.put(key, bid)
            else:
                getattr(store, op)(key)
            getattr(model, op)(key)
        stats = store.stats()
        assert (stats.cache_hits, stats.cache_misses, stats.cache_entries) == (
            model.hits, model.misses, len(model.entries)
        )
        assert stats.cache_hits + stats.cache_misses == stats.gets


@given(
    _batched_stretches,
    st.sampled_from([(16, 0), (16, 2), (32, 8), (64, 16)]),  # 2 x pin <= capacity
    st.sampled_from([0.5, 600.0]),
)
@settings(max_examples=60, deadline=None)
def test_lru_pin_applies_batches_as_the_reference_hot_tier_accesses(
    stretches, capacity_pin, halflife
):
    capacity, pin = capacity_pin
    clock = _FakeClock()
    store = HybridMetaStore(
        cache=CacheConfig(capacity, "lru_pin", pin, hotness_halflife_s=halflife), clock=clock
    )
    model = ModelHotTier(capacity, pin, halflife, clock)
    _stretches_against(store, model, clock, stretches, halflife)
    assert set(store._cache._res) == set(model.entries)


class _ModelLru:
    """Per-access reference for the ``lru`` tier: an OrderedDict in recency
    order, updated at once by every put and every get of a stored key."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: OrderedDict[bytes, None] = OrderedDict()
        self.stored: set[bytes] = set()
        self.hits = 0
        self.misses = 0

    def _access(self, key: bytes) -> None:
        self.entries[key] = None
        self.entries.move_to_end(key)
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def put(self, key: bytes) -> None:
        self.stored.add(key)
        self._access(key)

    def get(self, key: bytes) -> None:
        if key in self.entries:
            self.hits += 1
        else:
            self.misses += 1
        if key in self.stored:
            self._access(key)

    def delete(self, key: bytes) -> None:
        self.stored.discard(key)
        self.entries.pop(key, None)


@given(_batched_stretches, st.sampled_from([1, 16, 64, 200]))
@settings(max_examples=60, deadline=None)
def test_lru_applies_batches_as_a_per_access_lru(stretches, capacity):
    clock = _FakeClock()
    store = HybridMetaStore(cache=CacheConfig(capacity, "lru"), clock=clock)
    model = _ModelLru(capacity)
    _stretches_against(store, model, clock, stretches, 1.0)
    assert list(store._cache._order) == list(model.entries)


def test_concurrent_readers_and_writers_with_per_op_atomicity():
    """Disjoint-namespace workers hammer one store; each worker's view must
    equal its own oracle, and the final resident count must add up."""
    import threading

    store = HybridMetaStore(cache=CacheConfig(capacity_entries=32, policy="lru_pin", pin_first_n=8))
    n_workers, n_ops = 6, 4_000
    failures: list[Exception] = []

    def worker(idx: int) -> None:
        ns = f"w{idx}".encode()
        oracle = ModelStore()
        rng = random.Random(idx)
        try:
            for _ in range(n_ops):
                op = rng.randrange(4)
                bid = rng.randrange(300)
                key = encode_key(ns, bid)
                if op == 0:
                    assert store.put(key, bid) == oracle.put(key, bid)
                elif op == 1:
                    assert store.get(key) == oracle.get(key)
                elif op == 2:
                    assert store.delete(key) == oracle.delete(key)
                else:
                    lo, hi = encode_key(ns, bid), encode_key(ns, bid + 16)
                    assert store.scan(lo, hi) == oracle.scan(lo, hi)
            full = store.scan(encode_key(ns, 0), encode_key(ns, 2**64 - 1))
            assert full == oracle.scan(encode_key(ns, 0), encode_key(ns, 2**64 - 1))
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_workers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive(), "a worker did not finish within 60 s"
    assert not failures
    stats = store.stats()
    assert stats.puts + stats.gets + stats.scans + stats.deletes == n_workers * (n_ops + 1)
    assert stats.cache_hits + stats.cache_misses == stats.gets
