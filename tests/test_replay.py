"""``bench.replay``'s loop: lag after a sleep, the error-budget stop across
workers, and backends that lack a method."""

from __future__ import annotations

import sys
import threading
import time

from kvcmeta import bench
from kvcmeta.bench import POINT_GET, RANGE_SCAN, ReplayAborted, compile_ops, replay
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
