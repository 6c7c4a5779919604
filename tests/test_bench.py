from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from kvcmeta import bench, report, synth
from kvcmeta.bench import (
    INSERT,
    POINT_GET,
    RANGE_SCAN,
    IntervalRow,
    IntervalStats,
    LatencyLog,
    LatencyRecord,
    MetadataOp,
    ReplayAborted,
    compile_ops,
    interval_stats,
    normalize,
    percentile,
    replay,
)
from kvcmeta.analysis import segment_runs
from kvcmeta.store import HybridMetaStore, decode_key, encode_key, hash_key
from kvcmeta.trace import Trace, TraceRequest, parse_trace

NS = b"bench"


def _trace(rows, label="t"):
    return Trace(tuple(TraceRequest(t, 1, 1, tuple(ids)) for t, ids in rows), label=label)


def _op_ids(op):
    if op.kind == RANGE_SCAN:
        lo = decode_key(op.start)[1]
        hi = decode_key(op.end_exclusive)[1]
        return (RANGE_SCAN, lo, hi)
    return (op.kind, decode_key(op.key)[1])


class TestCompilePreload:
    def test_single_request_example(self):
        stream = compile_ops(_trace([(0, [1, 2, 3, 7])]), mode="preload", namespace=NS)
        assert [_op_ids(op) for op in stream.ops] == [(RANGE_SCAN, 1, 4), (POINT_GET, 7)]
        scan = stream.ops[0]
        assert scan.span == 3
        assert decode_key(scan.end_exclusive)[1] - decode_key(scan.start)[1] == 3
        assert sorted(v for _, v in stream.preload) == [1, 2, 3, 7]

    def test_preload_covers_every_key_once(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        values = [v for _, v in stream.preload]
        assert len(values) == len(set(values)) == 11

    def test_issue_times_follow_arrivals(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        assert all(
            op.issue_ms == fixture_trace.requests[op.request_ordinal].arrival_ms
            for op in stream.ops
        )

    def test_chunk_split_example(self):
        stream = compile_ops(
            _trace([(0, [1, 2, 3, 7])]), mode="preload", namespace=NS, chunk_split=2
        )
        assert [_op_ids(op) for op in stream.ops] == [(RANGE_SCAN, 2, 8), (RANGE_SCAN, 14, 16)]
        assert stream.covered_positions == 8

    def test_chunk_split_zero_rejected(self):
        with pytest.raises(ValueError, match="chunk_split"):
            compile_ops(_trace([(0, [1])]), chunk_split=0)

    def test_run_ending_at_the_largest_id_is_a_value_error(self):
        # parse_trace accepts the id 2^64 - 1, but a scan over a run that
        # ends there needs the end key of id 2^64.
        trace = parse_trace('{"timestamp": 0, "input_length": 1, "output_length": 1, '
                            '"hash_ids": [18446744073709551614, 18446744073709551615]}')
        with pytest.raises(ValueError, match="block id 18446744073709551615 ends a run"):
            compile_ops(trace)

    def test_chunk_id_past_64_bits_is_a_value_error(self):
        with pytest.raises(ValueError, match="chunk id 18446744073709551617"):
            compile_ops(_trace([(0, [2**63])]), chunk_split=2)

    def test_arrival_time_past_64_bits_is_a_value_error(self):
        # A replay log keeps issue times in an array('q').
        compile_ops(_trace([(-(2**63), [1]), (2**63 - 1, [2])]))
        for rows in ([(0, [1]), (2**63, [2])], [(-(2**63) - 1, [1])]):
            with pytest.raises(ValueError, match="arrival times must fit"):
                compile_ops(_trace(rows))

    def test_fixture_compilation(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        expected = [
            (RANGE_SCAN, 1, 4), (POINT_GET, 7),          # [1,2,3,7]
            (RANGE_SCAN, 1, 4), (POINT_GET, 7),          # repeat
            (RANGE_SCAN, 5, 8), (POINT_GET, 42), (RANGE_SCAN, 9, 11),  # [5,6,7,42,9,10]
            (RANGE_SCAN, 1, 3), (POINT_GET, 9),          # [1,2,9]
            (RANGE_SCAN, 100, 102),                      # [100,101]
        ]
        assert [_op_ids(op) for op in stream.ops] == expected
        assert stream.covered_positions == 19


class TestCompileInsertOnMiss:
    def test_same_request_twice(self):
        stream = compile_ops(
            _trace([(0, [1, 2, 3, 7]), (1, [1, 2, 3, 7])]), mode="insert_on_miss", namespace=NS
        )
        assert [_op_ids(op) for op in stream.ops] == [
            (INSERT, 1), (INSERT, 2), (INSERT, 3), (INSERT, 7),
            (RANGE_SCAN, 1, 4), (POINT_GET, 7),
        ]
        assert stream.preload == []
        assert all(op.value == decode_key(op.key)[1] for op in stream.ops if op.kind == INSERT)

    def test_run_split_around_new_ids(self):
        # second request's run [5..10] has 7,8 already seen
        stream = compile_ops(
            _trace([(0, [7, 8]), (1, [5, 6, 7, 8, 9, 10])]), mode="insert_on_miss", namespace=NS
        )
        assert [_op_ids(op) for op in stream.ops] == [
            (INSERT, 7), (INSERT, 8),
            (INSERT, 5), (INSERT, 6), (RANGE_SCAN, 7, 9), (INSERT, 9), (INSERT, 10),
        ]

    def test_duplicate_within_request(self):
        stream = compile_ops(_trace([(0, [7, 7])]), mode="insert_on_miss", namespace=NS)
        assert [_op_ids(op) for op in stream.ops] == [(INSERT, 7), (POINT_GET, 7)]

    def test_seen_singleton_becomes_point_get(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="insert_on_miss", namespace=NS)
        kinds = [_op_ids(op) for op in stream.ops]
        assert kinds == [
            (INSERT, 1), (INSERT, 2), (INSERT, 3), (INSERT, 7),
            (RANGE_SCAN, 1, 4), (POINT_GET, 7),
            (INSERT, 5), (INSERT, 6), (POINT_GET, 7), (INSERT, 42), (INSERT, 9), (INSERT, 10),
            (RANGE_SCAN, 1, 3), (POINT_GET, 9),
            (INSERT, 100), (INSERT, 101),
        ]


def _reference_insert_on_miss(trace, namespace, chunk_split, key_scheme):
    """``compile_ops(mode="insert_on_miss")`` as a left-to-right walk of each
    run that splits it around never-seen ids: the reference for the grouped
    implementation."""
    key_of = encode_key if key_scheme == "ordered" else hash_key
    ops: list[MetadataOp] = []
    seen: set[int] = set()

    def reads(start, length, t, ordinal):
        if length >= 2 and key_scheme == "ordered":
            ops.append(MetadataOp(RANGE_SCAN, t, ordinal, start=key_of(namespace, start),
                                  end_exclusive=key_of(namespace, start + length), span=length))
        else:
            ops.extend(MetadataOp(POINT_GET, t, ordinal, key=key_of(namespace, bid))
                       for bid in range(start, start + length))

    for ordinal, req in enumerate(trace.requests):
        t = req.arrival_ms
        ids = [b * chunk_split + j for b in req.block_ids for j in range(chunk_split)]
        for run in segment_runs(ids):
            pending_start, pending_len = None, 0
            for bid in range(run.start_id, run.start_id + run.length):
                if bid in seen:
                    if pending_start is None:
                        pending_start, pending_len = bid, 0
                    pending_len += 1
                else:
                    if pending_start is not None:
                        reads(pending_start, pending_len, t, ordinal)
                        pending_start = None
                    seen.add(bid)
                    ops.append(MetadataOp(INSERT, t, ordinal, key=key_of(namespace, bid), value=bid))
            if pending_start is not None:
                reads(pending_start, pending_len, t, ordinal)
    return ops


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=12),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from(["ordered", "hashed"]),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_insert_on_miss_matches_reference_walk(id_lists, key_scheme, k):
    trace = _trace([(i, ids) for i, ids in enumerate(id_lists)])
    stream = compile_ops(trace, mode="insert_on_miss", namespace=NS, chunk_split=k,
                         key_scheme=key_scheme)
    assert stream.ops == _reference_insert_on_miss(trace, NS, k, key_scheme)


def _reference_compile_ops(trace, mode, namespace, chunk_split, key_scheme):
    """``compile_ops`` as per-run generators that key every id through
    ``encode_key``/``hash_key`` and dedupe the preload with a set: the
    reference for the direct-append compile. Returns (ops, preload)."""
    key_of = encode_key if key_scheme == "ordered" else hash_key
    scans_enabled = key_scheme == "ordered"
    ops: list[MetadataOp] = []
    preload: list[tuple[bytes, int]] = []
    preloaded: set[int] = set()
    seen: set[int] = set()
    k = chunk_split

    def read_ops(start_id, length, t, ordinal):
        if length >= 2 and scans_enabled:
            yield MetadataOp(RANGE_SCAN, t, ordinal, start=key_of(namespace, start_id),
                             end_exclusive=key_of(namespace, start_id + length), span=length)
        else:
            for bid in range(start_id, start_id + length):
                yield MetadataOp(POINT_GET, t, ordinal, key=key_of(namespace, bid))

    def insert_on_miss_ops(start_id, length, t, ordinal):
        for was_seen, group in groupby(range(start_id, start_id + length), seen.__contains__):
            if was_seen:
                bids = list(group)
                yield from read_ops(bids[0], len(bids), t, ordinal)
                continue
            for bid in group:
                seen.add(bid)
                yield MetadataOp(INSERT, t, ordinal, key=key_of(namespace, bid), value=bid)

    for ordinal, req in enumerate(trace.requests):
        ids = [b * k + j for b in req.block_ids for j in range(k)] if k > 1 else list(req.block_ids)
        t = req.arrival_ms
        if mode == "preload":
            for bid in ids:
                if bid not in preloaded:
                    preloaded.add(bid)
                    preload.append((key_of(namespace, bid), bid))
            for run in segment_runs(ids):
                ops.extend(read_ops(run.start_id, run.length, t, ordinal))
        else:
            for run in segment_runs(ids):
                ops.extend(insert_on_miss_ops(run.start_id, run.length, t, ordinal))
    return ops, preload


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=12),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from(["preload", "insert_on_miss"]),
    st.sampled_from(["ordered", "hashed"]),
    st.sampled_from([1, 3]),
    st.sampled_from([b"", NS, "str-ns", b"n" * 24]),
)
@settings(max_examples=300, deadline=None)
def test_compile_matches_reference_generators(id_lists, mode, key_scheme, k, namespace):
    trace = _trace([(i, ids) for i, ids in enumerate(id_lists)])
    stream = compile_ops(trace, mode=mode, namespace=namespace, chunk_split=k,
                         key_scheme=key_scheme)
    assert (stream.ops, stream.preload) == _reference_compile_ops(
        trace, mode, namespace, k, key_scheme)


@pytest.mark.parametrize("mode", ["preload", "insert_on_miss"])
@pytest.mark.parametrize("key_scheme", ["ordered", "hashed"])
@pytest.mark.parametrize("k", [1, 3])
def test_compile_matches_reference_generators_on_synthetic_trace(mode, key_scheme, k):
    trace = synth.generate(dataclasses.replace(synth.COOKBOOK_TOOL_AGENT, num_requests=300))
    stream = compile_ops(trace, mode=mode, namespace=NS, chunk_split=k, key_scheme=key_scheme)
    assert (stream.ops, stream.preload) == _reference_compile_ops(trace, mode, NS, k, key_scheme)


class TestCompileGeneric:
    def test_unknown_mode_and_scheme(self):
        with pytest.raises(ValueError):
            compile_ops(_trace([(0, [1])]), mode="bogus")
        with pytest.raises(ValueError):
            compile_ops(_trace([(0, [1])]), key_scheme="bogus")

    def test_hashed_scheme_disables_scans(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS, key_scheme="hashed")
        assert all(op.kind == POINT_GET for op in stream.ops)
        assert stream.covered_positions == 19

    def test_determinism(self, fixture_trace):
        a = compile_ops(fixture_trace, mode="insert_on_miss", namespace=NS, chunk_split=2)
        b = compile_ops(fixture_trace, mode="insert_on_miss", namespace=NS, chunk_split=2)
        assert a.ops == b.ops and a.preload == b.preload

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=40), max_size=8),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from(["preload", "insert_on_miss"]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_coverage_property(self, id_lists, mode, k):
        trace = _trace([(i, ids) for i, ids in enumerate(id_lists)])
        stream = compile_ops(trace, mode=mode, namespace=NS, chunk_split=k)
        total_positions = sum(len(ids) for ids in id_lists) * k
        assert stream.covered_positions == total_positions
        if mode == "preload":
            distinct = {b * k + j for ids in id_lists for b in ids for j in range(k)}
            assert sorted(v for _, v in stream.preload) == sorted(distinct)


class TestReplay:
    def test_empty_stream(self):
        stream = compile_ops(_trace([(0, [])]), namespace=NS)
        log = replay(stream, HybridMetaStore())
        assert log.records == []

    def test_preload_mode_all_hits_and_full_scans(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        log = replay(stream, HybridMetaStore())
        assert len(log.records) == len(stream.ops)
        assert all(r.outcome == "ok" for r in log.records)

    def test_insert_on_miss_mode_reads_always_hit(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="insert_on_miss", namespace=NS)
        log = replay(stream, HybridMetaStore())
        assert all(r.outcome == "ok" for r in log.records)

    def test_closed_loop_single_worker_preserves_order(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        log = replay(stream, HybridMetaStore(), schedule="closed_loop", workers=1)
        assert [r.op_kind for r in log.records] == [op.kind for op in stream.ops]
        assert [r.issue_ms for r in log.records] == [op.issue_ms for op in stream.ops]

    def test_missing_keys_reported_as_miss(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        empty_preload = bench.OpStream([], [], "preload")
        empty_preload.ops = stream.ops
        log = replay(empty_preload, HybridMetaStore(), abort_error_rate=1.0)
        assert all(r.outcome == "miss" for r in log.records)

    def test_partial_scan_counts_as_miss(self):
        stream = compile_ops(_trace([(0, [1, 2, 3])]), mode="preload", namespace=NS)
        backend = HybridMetaStore()
        for key, value in stream.preload:
            backend.put(key, value)
        backend.delete(encode_key(NS, 2))
        stream.preload = []
        log = replay(stream, backend)
        assert [r.outcome for r in log.records] == ["miss"]

    def test_faithful_schedule_records_lag(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        log = replay(stream, HybridMetaStore(), schedule="faithful", time_scale=1e-9)
        assert len(log.records) == len(stream.ops)
        assert log.max_sched_lag_ns >= 0

    def test_faithful_schedule_respects_dispatch_times(self):
        trace = _trace([(0, [1]), (120, [2])])
        stream = compile_ops(trace, mode="preload", namespace=NS)
        import time

        t0 = time.perf_counter()
        replay(stream, HybridMetaStore(), schedule="faithful", time_scale=1.0)
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.12  # second op had to wait for its 120ms slot

    def test_multi_worker_conservation(self, fixture_trace):
        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        log = replay(stream, HybridMetaStore(), workers=4)
        assert len(log.records) == len(stream.ops)

    def test_errors_abort_when_over_budget(self, fixture_trace):
        class Exploding:
            def put(self, key, value):
                return None

            def get(self, key):
                raise RuntimeError("boom")

            def scan(self, start, end_exclusive, max_results=None):
                raise RuntimeError("boom")

        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        with pytest.raises(ReplayAborted) as exc:
            replay(stream, Exploding(), abort_error_rate=0.01)
        partial = exc.value.log
        assert partial.errors > 0
        assert all(r.outcome == "error:RuntimeError" for r in partial.records)

    def test_errors_recorded_not_fatal_under_high_threshold(self, fixture_trace):
        class FlakyStore(HybridMetaStore):
            def __init__(self):
                super().__init__()
                self._n = 0

            def get(self, key):
                self._n += 1
                if self._n == 2:
                    raise TimeoutError("blip")
                return super().get(key)

        stream = compile_ops(fixture_trace, mode="preload", namespace=NS)
        log = replay(stream, FlakyStore(), abort_error_rate=1.0)
        assert len(log.records) == len(stream.ops)
        assert log.errors == 1
        assert sum(1 for r in log.records if r.outcome == "error:TimeoutError") == 1

    def test_shared_cursor_and_error_count_under_thread_switching(self):
        """Eight workers, switching threads as often as the interpreter lets
        them: every op runs exactly once and every error is counted."""

        class EveryThirdGetFails:
            def __init__(self):
                self.lock = threading.Lock()
                self.gets = Counter()
                self.calls = 0
                self.raised = 0

            def put(self, key, value):
                return None

            def get(self, key):
                with self.lock:
                    self.gets[key] += 1
                    self.calls += 1
                    fail = self.calls % 3 == 0
                    self.raised += fail
                time.sleep(0)  # lets the GIL go, so that all eight workers interleave
                if fail:
                    raise TimeoutError("every third get")
                return 1

        # Ids two apart: every op is a point get of its own key.
        trace = _trace([(i, range(40 * i, 40 * i + 40, 2)) for i in range(60)])
        stream = compile_ops(trace, mode="preload", namespace=NS)
        backend = EveryThirdGetFails()
        result = {}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.update(log=replay(stream, backend, workers=8,
                                                        abort_error_rate=1.0)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive(), "replay did not finish within 60 s"
        log = result["log"]
        assert len(stream.ops) == 1200
        assert backend.gets == Counter(op.key for op in stream.ops)
        assert len(log.records) == len(stream.ops)
        errors = sum(1 for r in log.records if r.outcome.startswith("error:"))
        assert log.errors == errors == backend.raised == 400

    def test_bad_args(self, fixture_trace):
        stream = compile_ops(fixture_trace, namespace=NS)
        with pytest.raises(ValueError):
            replay(stream, HybridMetaStore(), workers=0)
        with pytest.raises(ValueError):
            replay(stream, HybridMetaStore(), schedule="warp")
        with pytest.raises(ValueError):
            replay(stream, HybridMetaStore(), schedule="faithful", time_scale=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"schedule": "faithful", "time_scale": float("nan")}, "time_scale must be positive"),
        ({"abort_error_rate": float("nan")}, "abort_error_rate must be finite and at least 0"),
        ({"abort_error_rate": -0.5}, "abort_error_rate must be finite and at least 0"),
        ({"abort_error_rate": float("inf")}, "abort_error_rate must be finite and at least 0"),
    ])
    def test_bad_rate_is_rejected_before_the_preload(self, kwargs, message, fixture_trace):
        stream = compile_ops(fixture_trace, namespace=NS)
        assert stream.preload
        backend = HybridMetaStore()
        with pytest.raises(ValueError, match=message):
            replay(stream, backend, **kwargs)
        assert len(backend) == 0


def _oracle_percentile(samples, q):
    # independent nearest-rank: smallest 1-based rank r with r/n >= q
    ordered = sorted(samples)
    n = len(ordered)
    for i, v in enumerate(ordered):
        if (i + 1) / n >= q:
            return v
    return ordered[-1]


class TestPercentile:
    def test_1_to_100_q99(self):
        assert percentile(range(1, 101), 0.99) == 99

    def test_single_sample(self):
        for q in (0.01, 0.5, 0.99, 1.0):
            assert percentile([7], q) == 7

    def test_q1_is_max(self):
        assert percentile([5, 9, 2], 1.0) == 9

    def test_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 0.0)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_independent_oracle(self, samples, q):
        assert percentile(samples, q) == _oracle_percentile(samples, q)


def _rec(kind, issue_ms, latency_ns, outcome="ok"):
    return LatencyRecord(kind, issue_ms, latency_ns, outcome)


class TestIntervalStats:
    def test_all_in_warmup_is_empty(self):
        log = LatencyLog(records=[_rec(POINT_GET, t, 5) for t in range(0, 599_000, 1000)])
        assert interval_stats(log).rows == []

    def test_p99_from_percentile_definition(self):
        log = LatencyLog(
            records=[_rec(POINT_GET, 600_000, ns) for ns in range(1, 101)]
        )
        stats = interval_stats(log)
        assert stats.rows == [IntervalRow(10, POINT_GET, 100, 50, 99)]

    def test_bucketing_and_kinds(self):
        log = LatencyLog(
            records=[
                _rec(POINT_GET, 600_000, 10),
                _rec(POINT_GET, 659_999, 20),
                _rec(RANGE_SCAN, 660_000, 30),
                _rec(POINT_GET, 660_000, 40),
            ]
        )
        stats = interval_stats(log)
        assert [(r.interval_index, r.op_kind, r.count) for r in stats.rows] == [
            (10, POINT_GET, 2),
            (11, POINT_GET, 1),
            (11, RANGE_SCAN, 1),
        ]

    def test_misses_contribute_errors_do_not(self):
        log = LatencyLog(
            records=[
                _rec(POINT_GET, 600_000, 10, "ok"),
                _rec(POINT_GET, 600_000, 99999, "error:TransportError"),
                _rec(POINT_GET, 600_000, 20, "miss"),
            ]
        )
        stats = interval_stats(log)
        assert stats.rows[0].count == 2
        assert stats.rows[0].p99_ns == 20

    def test_custom_interval_and_warmup(self):
        log = LatencyLog(records=[_rec(POINT_GET, 5_000, 7)])
        stats = interval_stats(log, interval_s=1, warmup_s=0)
        assert stats.rows == [IntervalRow(5, POINT_GET, 1, 7, 7)]


def test_latency_log_and_interval_stats_csv_bytes(tmp_path):
    # One hand-built log: every kind and outcome, warm-up rows, two
    # intervals, a tie in issue time and latencies past 32 bits.
    log = LatencyLog(records=[
        _rec(POINT_GET, 0, 900),
        _rec(RANGE_SCAN, 1_999, 5_000_000_000, "miss"),
        _rec(POINT_GET, 2_000, 11),
        _rec(INSERT, 2_000, 42),
        _rec(POINT_GET, 2_500, 7, "miss"),
        _rec(RANGE_SCAN, 3_000, 300),
        _rec(POINT_GET, 3_999, 1, "error:TimeoutError"),
        _rec(INSERT, 4_000, 8_589_934_592),
    ])
    log_path, stats_path = tmp_path / "latency_log.csv", tmp_path / "interval_stats.csv"
    report.write_latency_log(str(log_path), log)
    report.write_interval_stats(str(stats_path), interval_stats(log, interval_s=1, warmup_s=2))
    assert log_path.read_bytes() == (
        b"op_kind,issue_ms,latency_ns,outcome\n"
        b"point_get,0,900,ok\n"
        b"range_scan,1999,5000000000,miss\n"
        b"point_get,2000,11,ok\n"
        b"insert,2000,42,ok\n"
        b"point_get,2500,7,miss\n"
        b"range_scan,3000,300,ok\n"
        b"point_get,3999,1,error:TimeoutError\n"
        b"insert,4000,8589934592,ok\n"
    )
    assert stats_path.read_bytes() == (
        b"interval_index,op_kind,count,p50_ns,p99_ns\n"
        b"2,insert,1,42,42\n"
        b"2,point_get,2,7,11\n"
        b"3,range_scan,1,300,300\n"
        b"4,insert,1,8589934592,8589934592\n"
    )


def _stats_from(cells):
    stats = IntervalStats(60, 600)
    for (idx, kind), p99 in cells.items():
        stats.rows.append(IntervalRow(idx, kind, 10, p99, p99))
    return stats


class TestNormalize:
    def test_identity(self):
        s = _stats_from({(10, POINT_GET): 100, (11, RANGE_SCAN): 200})
        rep = normalize(s, s)
        assert all(r.ratio == 1.0 for r in rep.rows)
        assert rep.mean_ratio_per_kind == {POINT_GET: 1.0, RANGE_SCAN: 1.0}

    def test_half_baseline(self):
        s = _stats_from({(10, POINT_GET): 50, (11, POINT_GET): 100})
        base = _stats_from({(10, POINT_GET): 100, (11, POINT_GET): 200})
        rep = normalize(s, base)
        assert [r.ratio for r in rep.rows] == [0.5, 0.5]
        assert rep.mean_ratio_per_kind == {POINT_GET: 0.5}

    def test_shared_cells_only(self):
        s = _stats_from({(10, POINT_GET): 50, (12, POINT_GET): 70})
        base = _stats_from({(10, POINT_GET): 100, (13, POINT_GET): 1})
        rep = normalize(s, base)
        assert [(r.interval_index, r.ratio) for r in rep.rows] == [(10, 0.5)]

    def test_no_shared_cells_errors(self):
        with pytest.raises(ValueError, match="no shared"):
            normalize(_stats_from({(1, POINT_GET): 5}), _stats_from({(2, POINT_GET): 5}))

    def test_zero_baseline_flagged(self):
        s = _stats_from({(10, POINT_GET): 50})
        base = _stats_from({(10, POINT_GET): 0})
        rep = normalize(s, base)
        assert rep.rows[0].ratio is None
        undefined = [(r.interval_index, r.op_kind) for r in rep.rows if r.ratio is None]
        assert undefined == [(10, POINT_GET)]
        assert rep.mean_ratio_per_kind == {}


def test_faithful_time_scale_is_linear():
    # 10s of trace time at scale 0.01 -> ~0.1s dispatch schedule
    trace = _trace([(0, [1]), (10_000, [2])])
    stream = compile_ops(trace, mode="preload", namespace=NS)
    import time

    t0 = time.perf_counter()
    replay(stream, HybridMetaStore(), schedule="faithful", time_scale=0.01)
    elapsed = time.perf_counter() - t0
    assert 0.1 <= elapsed < 1.0
