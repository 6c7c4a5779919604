"""The benchmark under perfbench/ binds to the package by name: its traced
run swaps the ``protocol`` functions it lists for timing wrappers, and its
microbenchmarks call the codec directly. These tests fail when a change to
the package breaks that binding, which would otherwise only show as missing
or zero per-layer metrics in a traced run."""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import subprocess
import sys
import threading
from array import array
from collections import Counter
from pathlib import Path

import pytest

import kvcmeta
from kvcmeta import bench, protocol as wire
from kvcmeta.service import connect, serve
from kvcmeta.store import HybridMetaStore, encode_key
from kvcmeta.trace import Trace, TraceRequest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Imports a perfbench module by name; drops every perfbench module
    from ``sys.modules`` and restores ``sys.path`` afterwards."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def test_traced_codec_functions_are_called_through_the_module(perfbench, monkeypatch):
    """Each traced name is a protocol function that the client (this thread)
    or the server (its handler thread) calls through the module at call time."""
    sides = {"client": perfbench("run").CLIENT_CODEC, "server": perfbench("server").SERVER_CODEC}
    calls = Counter()
    me = threading.get_ident()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls["client" if threading.get_ident() == me else "server", name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in {name for names in sides.values() for name in names}:
        fn = getattr(wire, name, None)
        assert callable(fn), f"perfbench traces protocol.{name}, which is missing"
        monkeypatch.setattr(wire, name, counted(name, fn))
    key = encode_key(b"pb", 1)
    with serve(("127.0.0.1", 0), HybridMetaStore()) as handle:
        with connect(handle.address) as remote:
            remote.put(key, 1)
            assert remote.get(key) == 1
            assert remote.scan(key, encode_key(b"pb", 2)) == [(key, 1)]
    for side, names in sides.items():
        for name in names:
            assert calls[side, name] == 3, f"the {side} did not call protocol.{name}"


def test_wire_codec_microbenchmark_runs(perfbench, monkeypatch):
    micro = perfbench("micro")
    monkeypatch.setattr(micro, "CALLS", 40)
    monkeypatch.setattr(micro, "REPEATS", 1)
    out = micro.wire_codec(kvcmeta, random.Random(1))
    assert sorted(out) == ["protocol.decode_get_ns", "protocol.decode_scan16_ns",
                           "protocol.encode_get_ns", "protocol.encode_scan16_ns"]
    assert all(value > 0 for value in out.values())


def test_phase_absorbs_replay_records(perfbench):
    """perfbench's ``Phase`` reads each record's ``outcome`` and
    ``latency_ns``, from a finished replay and from the partial log of one
    that ran out of its error budget."""
    run = perfbench("run")
    trace = Trace((TraceRequest(0, 1, 1, (1, 2, 3, 7)), TraceRequest(5, 1, 1, (9,))))
    stream = bench.compile_ops(trace, namespace=b"pb")
    assert [op.kind for op in stream.ops] == [bench.RANGE_SCAN, bench.POINT_GET, bench.POINT_GET]
    without_9 = dataclasses.replace(stream, preload=stream.preload[:-1])
    records = bench.replay(without_9, HybridMetaStore()).records
    assert [r.outcome for r in records] == ["ok", "ok", "miss"]

    class Exploding:
        def put(self, key, value):
            return None

        def get(self, key):
            raise TimeoutError("boom")

        def scan(self, start, end_exclusive, max_results=None):
            raise TimeoutError("boom")

    with pytest.raises(bench.ReplayAborted) as exc:
        bench.replay(stream, Exploding())
    aborted = exc.value.log.records
    assert [r.outcome for r in aborted] == ["error:TimeoutError"] * 2

    for recs, failed in ((records, 1), (aborted, 2)):
        phase = run.Phase()
        phase.absorb(0, recs, 1_000, 0.0, -1)
        assert (phase.attempted, phase.failed) == (len(recs), failed)
        assert phase.replays[0].latency_ns == array("q", (r.latency_ns for r in recs))
        assert all(ns > 0 for ns in phase.replays[0].latency_ns)


@pytest.mark.parametrize("workload", ["remote-mixed", pytest.param("read-pinned", marks=pytest.mark.slow)])
def test_benchmark_workload_runs_and_checks_out(workload):
    """A short run of each benchmark workload, as its command line starts it,
    exits 0 with every op correct; this catches a package change that breaks
    what the benchmark reads, such as a deleted field."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seconds", "0.5"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
