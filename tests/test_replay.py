"""``bench.replay``'s loop: lag after a sleep, the error-budget stop across
workers, backends that lack a method, and the columnar log it fills."""

from __future__ import annotations

import gc
import re
import sys
import threading
import time
from array import array

from kvcmeta import bench
from kvcmeta.bench import (
    INSERT, POINT_GET, RANGE_SCAN, LatencyLog, LatencyRecord, MetadataOp, OpStream,
    ReplayAborted, compile_ops, replay,
)
from kvcmeta.store import HybridMetaStore
from kvcmeta.trace import Trace, TraceRequest

NS = b"replay"


def _trace(rows):
    return Trace(tuple(TraceRequest(t, 1, 1, tuple(ids)) for t, ids in rows), label="t")


def test_faithful_lag_counts_time_overslept(monkeypatch):
    # Five point gets 50 ms apart; every sleep overshoots by 20 ms, so each
    # op after the first goes out 20 ms late.
    stream = compile_ops(_trace([(50 * i, [10 * i]) for i in range(5)]), namespace=NS)
    real_sleep = time.sleep
    monkeypatch.setattr(bench.time, "sleep", lambda s: real_sleep(s + 0.020))
    log = replay(stream, HybridMetaStore(), schedule="faithful", time_scale=1.0)
    assert [r.outcome for r in log.records] == ["ok"] * 5
    assert log.max_sched_lag_ns >= 20_000_000


def test_error_budget_stops_every_worker():
    class FailsFirstCalls:
        def __init__(self, failures):
            self.lock = threading.Lock()
            self.calls = 0
            self.failures = failures

        def put(self, key, value):
            return None

        def get(self, key):
            with self.lock:
                self.calls += 1
                fail = self.calls <= self.failures
            time.sleep(0)  # lets the GIL go, so that all eight workers interleave
            if fail:
                raise TimeoutError("early failure")
            return 1

    # Ids two apart: every op is a point get of its own key.
    trace = _trace([(i, range(40 * i, 40 * i + 40, 2)) for i in range(60)])
    stream = compile_ops(trace, mode="preload", namespace=NS)
    assert len(stream.ops) == 1200
    budget = 12  # ceil(0.01 * 1,200)
    backend = FailsFirstCalls(budget + 1)
    result = {}

    def run():
        try:
            replay(stream, backend, workers=8, abort_error_rate=0.01)
        except ReplayAborted as exc:
            result["log"] = exc.log

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not runner.is_alive(), "replay did not finish within 60 s"
    assert "log" in result, "replay did not raise ReplayAborted"
    log = result["log"]
    assert log.errors == budget + 1
    assert len(log.records) < 100
    assert sum(r.outcome == "error:TimeoutError" for r in log.records) == budget + 1


def test_missing_backend_method_is_an_attribute_error_outcome():
    class GetOnly:
        def put(self, key, value):
            return None

        def get(self, key):
            return 1

    # Request 0 is one run (a scan); request 1 is a singleton (a get).
    stream = compile_ops(_trace([(0, [1, 2, 3]), (1, [9])]), namespace=NS)
    log = replay(stream, GetOnly(), abort_error_rate=1.0)
    assert [(r.op_kind, r.outcome) for r in log.records] == [
        (RANGE_SCAN, "error:AttributeError"), (POINT_GET, "ok"),
    ]
    assert log.errors == 1


def _columns(log):
    return (log.op_kinds, log.issue_ms, log.latency_ns, log.outcomes)


def test_a_log_keeps_no_object_per_op():
    class Stub:
        def get(self, key):
            return 1

    stream = OpStream([MetadataOp(POINT_GET, i, i, b"k") for i in range(20_000)], [], "preload")
    was_enabled = gc.isenabled()
    gc.disable()  # no collection may hide what the replay keeps
    try:
        before = len(gc.get_objects())
        log = replay(stream, Stub())
        grown = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert len(log.records) == 20_000
    assert grown < 100, f"a log of 20,000 ops keeps {grown} more tracked objects"


def test_records_is_a_view_built_on_access(monkeypatch):
    built = []

    def counted(*fields):
        built.append(fields)
        return LatencyRecord(*fields)

    monkeypatch.setattr(bench, "LatencyRecord", counted)
    # A scan and a get that hit, then a get and a scan that miss.
    stream = compile_ops(_trace([(0, [1, 2, 3, 7]), (5, [9]), (5, [20, 21])]), namespace=NS)
    stream.preload = [(key, bid) for key, bid in stream.preload if bid not in (9, 21)]
    store = HybridMetaStore()
    log = replay(stream, store)

    view = log.records
    assert len(view) == len(stream.ops) == 4
    assert all(len(column) == 4 for column in _columns(log))
    assert built == []  # getting the view and its length builds no record

    rows = list(view)
    assert len(built) == 4  # one record per row read
    assert [(r.op_kind, r.issue_ms) for r in rows] == [(op.kind, op.issue_ms) for op in stream.ops]
    assert [r.outcome for r in rows] == ["ok", "ok", "miss", "miss"]
    assert view[-1] == LatencyRecord(RANGE_SCAN, 5, log.latency_ns[3], "miss")
    assert view[1:3] == rows[1:3]
    assert view == rows and rows == view and view != rows[:3]

    assert replay(compile_ops(_trace([(0, [])]), namespace=NS), store).records == []

    records = [LatencyRecord(POINT_GET, 3, 40, "ok"), LatencyRecord(INSERT, 4, 2**40, "error:X")]
    rebuilt = LatencyLog(records=records)
    assert rebuilt.records == records
    assert _columns(rebuilt) == ([POINT_GET, INSERT], array("q", [3, 4]),
                                 array("q", [40, 2**40]), ["ok", "error:X"])


class _Checking:
    """Backend whose result for each op follows from its key, and which logs
    the calling thread's name and the key of every call. Op ``i``'s key is
    ``i`` in 8 bytes."""

    def __init__(self):
        self.calls = []

    def _log(self, key):
        self.calls.append((threading.current_thread().name, key))  # one C call: atomic
        return int.from_bytes(key, "big")

    def get(self, key):
        i = self._log(key)
        time.sleep(0)  # lets the GIL go, so that the workers interleave
        if i % 7 == 0:
            raise KeyError(i)
        return None if i % 5 == 0 else i

    def scan(self, start, end_exclusive, max_results=None):
        return [0] * (max_results - self._log(start) % 2)

    def put(self, key, value):
        self._log(key)


def _expected_row(i):
    kind = (POINT_GET, RANGE_SCAN, INSERT)[i % 3]
    if kind == POINT_GET:
        outcome = "error:KeyError" if i % 7 == 0 else "miss" if i % 5 == 0 else "ok"
    else:
        outcome = "miss" if kind == RANGE_SCAN and i % 2 else "ok"
    return kind, outcome


def _checking_stream(n):
    ops = []
    for i in range(n):
        # The first half ties in fours; the second half's issue times differ.
        t = i // 4 if i < n // 2 else i
        key = i.to_bytes(8, "big")
        kind = _expected_row(i)[0]
        if kind == RANGE_SCAN:
            ops.append(MetadataOp(kind, t, i, start=key, end_exclusive=key, span=2))
        else:
            ops.append(MetadataOp(kind, t, i, key=key, value=i))
    return OpStream(ops, [], "preload")


def _replay_switching(stream, backend, **kwargs):
    """replay() with 4 workers and a GIL switch every microsecond; returns
    the log, or the partial log of a ReplayAborted, and whether it aborted."""
    result = {}

    def run():
        try:
            result["log"] = replay(stream, backend, workers=4, **kwargs)
        except ReplayAborted as exc:
            result["log"], result["aborted"] = exc.log, True

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not runner.is_alive(), "replay did not finish within 60 s"
    return result["log"], result.get("aborted", False)


def test_worker_columns_merge_in_issue_order():
    n = 2_000
    stream = _checking_stream(n)
    backend = _Checking()
    log, aborted = _replay_switching(stream, backend, abort_error_rate=1.0)
    assert not aborted
    ops = [int.from_bytes(key, "big") for _, key in backend.calls]
    assert sorted(ops) == list(range(n))  # every op ran exactly once
    assert all(len(column) == n for column in _columns(log))
    assert list(log.issue_ms) == sorted(log.issue_ms)
    # Each worker's rows follow its calls. Default thread names count up in
    # creation order, which is worker order.
    workers = sorted({name for name, _ in backend.calls},
                     key=lambda name: int(re.match(r"Thread-(\d+)", name)[1]))
    assert len(workers) > 1, "the replay never switched workers"
    rows = [(name, (stream.ops[i].issue_ms, *_expected_row(i)))
            for (name, _), i in zip(backend.calls, ops)]
    concatenated = [row for w in workers for name, row in rows if name == w]
    concatenated.sort(key=lambda row: row[0])  # stable
    assert list(zip(log.issue_ms, log.op_kinds, log.outcomes)) == concatenated
    assert log.errors == sum(outcome.startswith("error:") for _, outcome in map(_expected_row, range(n)))


def test_aborted_multi_worker_log_has_equal_columns():
    stream = _checking_stream(2_000)
    log, aborted = _replay_switching(stream, _Checking(), abort_error_rate=0.01)
    assert aborted
    assert len({len(column) for column in _columns(log)}) == 1
    assert 0 < len(log.records) < 2_000
    assert list(log.issue_ms) == sorted(log.issue_ms)
    # Past the budget of 20 errors, ops already taken by other workers
    # still finish, and each of those may fail too.
    assert 21 <= log.errors <= 24
    assert log.errors == log.outcomes.count("error:KeyError")
