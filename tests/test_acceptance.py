"""Acceptance suite: one test per criterion, at the stated tolerance.

The terminal summary hook in conftest.py prints one PASS/FAIL/SKIPPED line
per criterion at the end of the run.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from conftest import make_fixture_trace
from kvcmeta import analysis, bench, report, synth
from kvcmeta.analysis import request_hit_rate, runs_test, segment_runs, sequential_fraction
from kvcmeta.bench import INSERT, POINT_GET, RANGE_SCAN, compile_ops, normalize, replay
from kvcmeta.cli import main as cli_main
from kvcmeta.service import connect, serve
from kvcmeta.store import CacheConfig, HybridMetaStore, decode_key, encode_key
from kvcmeta.trace import load_trace
from oracle_store import ModelStore
from test_protocol import random_request, random_response, read_whole_frame

import kvcmeta.protocol as wire

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# Frozen from the independent pre-build oracle (scipy.special.ndtr, confirmed
# by statsmodels runstest_1samp with correction disabled).
ORACLE_P_5_5_R10 = 0.007290358091535554

NAMESPACES = [b"acc-0", b"acc-1", b"acc-2"]


# --- criterion 1 -------------------------------------------------------------

def _gen_sequence(rng: random.Random, n_ops: int, n_ids: int):
    ops = []
    append = ops.append
    randrange = rng.randrange
    rnd = rng.random
    for _ in range(n_ops):
        r = rnd()
        ns = NAMESPACES[randrange(3)]
        bid = randrange(n_ids)
        if r < 0.40:
            append((0, encode_key(ns, bid), randrange(1 << 32)))
        elif r < 0.70:
            append((1, encode_key(ns, bid), 0))
        elif r < 0.85:
            append((2, encode_key(ns, bid), 0))
        else:
            span = randrange(1, 33)
            append((3, encode_key(ns, bid), encode_key(ns, bid + span)))
    return ops


def _replay(backend, ops):
    out = []
    append = out.append
    put, get, delete, scan = backend.put, backend.get, backend.delete, backend.scan
    for op, a, c in ops:
        if op == 0:
            append(put(a, c))
        elif op == 1:
            append(get(a))
        elif op == 2:
            append(delete(a))
        else:
            append(scan(a, c))
    return out


@pytest.mark.slow
def test_criterion_1_oracle_equivalence():
    """1,000 random sequences x 10,000 mixed ops over 1,200 ids x 3 namespaces;
    results must equal the sorted-association-list oracle exactly, with the
    cache disabled and with lru_pin pinning enabled; wall time < 2 minutes."""
    n_sequences, n_ops, n_ids = 1_000, 10_000, 1_200
    started = time.monotonic()
    master = random.Random(0xACCE55)
    pin_cfg = CacheConfig(capacity_entries=256, policy="lru_pin", pin_first_n=16)
    for seq_no in range(n_sequences):
        ops = _gen_sequence(random.Random(master.getrandbits(64)), n_ops, n_ids)
        expected = _replay(ModelStore(), ops)
        got_nocache = _replay(HybridMetaStore(cache=CacheConfig(0)), ops)
        got_pin = _replay(HybridMetaStore(cache=pin_cfg), ops)
        for name, got in (("capacity-0", got_nocache), ("lru_pin", got_pin)):
            if got != expected:
                first = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
                pytest.fail(
                    f"sequence {seq_no} [{name}]: divergence at op {first}: "
                    f"{got[first]!r} != {expected[first]!r}"
                )
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"oracle-equivalence property took {elapsed:.1f}s (budget 120s)"


# --- criterion 2 -------------------------------------------------------------

def test_criterion_2_runs_test_numerics():
    """(n1=5,n2=5,R=10): p within +/-0.001 of the pre-build oracle value;
    R at its expectation: p exactly 1.0; symmetric R pairs agree to 1e-12."""
    stat = runs_test([0, 1] * 5)
    assert stat.runs == 10 and stat.n1 == stat.n2 == 5
    assert abs(stat.p_value - 0.0073) <= 0.001
    assert stat.p_value == pytest.approx(ORACLE_P_5_5_R10, abs=1e-12)

    mean_case = runs_test([0, 0, 1, 1, 0, 0, 1, 1, 0, 1])  # R = 6 = E[R]
    assert mean_case.runs == 6
    assert mean_case.p_value == 1.0

    def with_runs(r):  # n1 = n2 = 5 zeros/ones arranged into exactly r runs
        ga, gb = (r + 1) // 2, r // 2
        za = [5 // ga + (1 if i < 5 % ga else 0) for i in range(ga)]
        zb = [5 // gb + (1 if i < 5 % gb else 0) for i in range(gb)]
        seq = []
        for i in range(max(ga, gb)):
            if i < ga:
                seq.extend([0] * za[i])
            if i < gb:
                seq.extend([1] * zb[i])
        return seq

    for d in (1, 2, 3, 4):
        lo, hi = runs_test(with_runs(6 - d)), runs_test(with_runs(6 + d))
        assert lo.runs == 6 - d and hi.runs == 6 + d
        assert abs(lo.p_value - hi.p_value) <= 1e-12


# --- criterion 3 -------------------------------------------------------------

def test_criterion_3_analysis_fixtures_exact():
    """The hand-derived example values, matched exactly."""
    assert segment_runs([5, 6, 7, 42, 9, 10]) == [
        analysis.Run(5, 3),
        analysis.Run(42, 1),
        analysis.Run(9, 2),
    ]
    assert sequential_fraction([5, 6, 7, 42, 9, 10]) == 5 / 6
    assert request_hit_rate([1, 2, 9], {1, 9}) == 2 / 3

    ns = b"fix"

    def shape(op):
        if op.kind == RANGE_SCAN:
            return (RANGE_SCAN, decode_key(op.start)[1], decode_key(op.end_exclusive)[1])
        return (op.kind, decode_key(op.key)[1])

    one = compile_ops(make_fixture_trace(), mode="preload", namespace=ns)
    assert [shape(op) for op in one.ops[:2]] == [(RANGE_SCAN, 1, 4), (POINT_GET, 7)]

    twice = compile_ops(make_fixture_trace(), mode="insert_on_miss", namespace=ns)
    assert [shape(op) for op in twice.ops[:6]] == [
        (INSERT, 1), (INSERT, 2), (INSERT, 3), (INSERT, 7),
        (RANGE_SCAN, 1, 4), (POINT_GET, 7),
    ]

    from kvcmeta.trace import Trace, TraceRequest

    single = Trace((TraceRequest(0, 1, 1, (1, 2, 3, 7)),), label="x")
    split = compile_ops(single, mode="preload", namespace=ns, chunk_split=2)
    assert [shape(op) for op in split.ops] == [(RANGE_SCAN, 2, 8), (RANGE_SCAN, 14, 16)]


# --- criterion 4 -------------------------------------------------------------

def _toolagent_trace_path() -> str | None:
    candidates = [
        os.environ.get("KVCMETA_TOOLAGENT_TRACE"),
        os.path.join(ROOT, "data", "mooncake_toolagent.jsonl"),
        os.path.join(ROOT, "data", "mooncake_toolagent.jsonl.gz"),
    ]
    for cand in candidates:
        if cand and os.path.exists(cand):
            return cand
    return None


def test_criterion_4_mooncake_toolagent_reproduction():
    """Against the public Mooncake tool&agent trace: (a) avg sequential
    fraction 0.868 +/- 0.02, (b) fraction of requests with hit rate > 0.5 at
    least 0.70, (c) runs-test fraction_random reported for both modes and
    compared informationally to 0.89 (no hard tolerance)."""
    path = _toolagent_trace_path()
    if path is None:
        pytest.skip(
            "SKIPPED: public Mooncake tool&agent trace not available "
            "(set KVCMETA_TOOLAGENT_TRACE or place data/mooncake_toolagent.jsonl)"
        )
    trace = load_trace(path)

    fractions = [f for _, _, f in analysis.sequential_fractions(trace)]
    avg_seq = sum(fractions) / len(fractions)
    assert abs(avg_seq - 0.868) <= 0.02

    rates = analysis.request_hit_rates(trace)
    above_half = sum(1 for r in rates if r > 0.5) / len(rates)
    assert above_half >= 0.70

    for mode in ("per_key_gaps", "per_request_median"):
        rep = analysis.nonseq_randomness_report(trace, mode=mode)
        print(
            f"[informational] {mode}: fraction_random={rep.fraction_random} "
            f"(paper reports 0.89), tested={rep.tested}, skipped={rep.skipped}"
        )


# --- criterion 5 -------------------------------------------------------------

class _ScanCountingStore(HybridMetaStore):
    def __init__(self):
        super().__init__()
        self.scan_result_counts: list[int] = []

    def scan(self, start, end_exclusive, max_results=None):
        rows = super().scan(start, end_exclusive, max_results)
        self.scan_result_counts.append(len(rows))
        return rows


def test_criterion_5_benchmark_protocol_conformance():
    """Preload replay yields zero misses and scans return exactly their run
    lengths; chunk_split multiplies covered positions by exactly k."""
    for trace in (make_fixture_trace(), synth.generate(synth.COOKBOOK_TOOL_AGENT)):
        stream = compile_ops(trace, mode="preload", namespace=b"c5")
        backend = _ScanCountingStore()
        log = replay(stream, backend, workers=1)
        assert all(rec.outcome == "ok" for rec in log.records), "preload must never miss"
        spans = [op.span for op in stream.ops if op.kind == RANGE_SCAN]
        assert backend.scan_result_counts == spans, "scan results must equal run lengths"

        base = stream.covered_positions
        for k in (2, 3, 5):
            split = compile_ops(trace, mode="preload", namespace=b"c5", chunk_split=k)
            assert split.covered_positions == base * k


# --- criterion 6 -------------------------------------------------------------

def test_criterion_6_wire_protocol_transparency():
    """Loopback fixture benchmark outcome-identical to in-process, and
    100,000-frame encode/decode fuzz with zero round-trip mismatches."""
    trace = make_fixture_trace()
    stream = compile_ops(trace, mode="insert_on_miss", namespace=b"c6")

    local_log = replay(stream, HybridMetaStore(), workers=1)

    handle = serve(("127.0.0.1", 0), HybridMetaStore())
    try:
        remote = connect(handle.address, timeout=5.0)
        remote_log = replay(stream, remote, workers=1)
        remote.close()
    finally:
        handle.stop()

    def outcomes(log):
        return [(r.op_kind, r.issue_ms, r.outcome) for r in log.records]

    assert outcomes(remote_log) == outcomes(local_log)

    rng = random.Random(0xF22A)
    for _ in range(100_000):
        req = random_request(rng)
        assert wire.decode_request(*read_whole_frame(wire.encode_request(req))) == req
        opcode, resp = random_response(rng)
        assert wire.decode_response(opcode, wire.encode_response(resp)) == resp


# --- criterion 7 -------------------------------------------------------------

def _cache_hit_rate(trace, cache: CacheConfig) -> float:
    """Drive the metadata access stream (one get per re-accessed block, a put
    on first appearance) and read the cache hit rate off the store."""
    store = HybridMetaStore(cache=cache)
    ns = b"c7"
    seen: set[int] = set()
    for req in trace.requests:
        for bid in req.block_ids:
            if bid in seen:
                store.get(encode_key(ns, bid))
            else:
                seen.add(bid)
                store.put(encode_key(ns, bid), bid)
    stats = store.stats()
    assert stats.gets == stats.cache_hits + stats.cache_misses
    return stats.cache_hits / (stats.cache_hits + stats.cache_misses)


def test_criterion_7_pinning_beats_plain_lru_on_cookbook_trace():
    """Directional only: lru_pin (pin_first_n=16) must achieve a strictly
    higher cache hit rate than plain lru at equal capacity."""
    trace = synth.generate(synth.COOKBOOK_TOOL_AGENT)
    capacity = 64
    lru = _cache_hit_rate(trace, CacheConfig(capacity_entries=capacity, policy="lru"))
    pin = _cache_hit_rate(
        trace,
        CacheConfig(capacity_entries=capacity, policy="lru_pin", pin_first_n=16),
    )
    print(f"[informational] cache hit rate: lru={lru:.4f} lru_pin={pin:.4f}")
    assert pin > lru


# --- criterion 8 -------------------------------------------------------------

def test_criterion_8_normalization_identity_and_synth_determinism(tmp_path):
    """normalize(s, s) is all ones; cmd_synth with a fixed seed produces
    byte-identical traces across two runs."""
    stats = bench.IntervalStats(60, 600)
    rng = random.Random(8)
    for idx in range(10, 20):
        for kind in (POINT_GET, RANGE_SCAN):
            p99 = rng.randrange(1, 10**6)
            stats.rows.append(bench.IntervalRow(idx, kind, 10, p99 // 2, p99))
    self_norm = normalize(stats, stats)
    assert all(row.ratio == 1.0 for row in self_norm.rows)
    assert all(v == 1.0 for v in self_norm.mean_ratio_per_kind.values())

    config = os.path.join(ROOT, "configs", "cookbook_toolagent.json")
    out1, out2 = str(tmp_path / "one.jsonl"), str(tmp_path / "two.jsonl")
    assert cli_main(["synth", "--config", config, "--out", out1]) == 0
    assert cli_main(["synth", "--config", config, "--out", out2]) == 0
    assert report.sha256_file(out1) == report.sha256_file(out2)
    with open(out1 + ".fit.json") as fh:
        fit = json.load(fh)
    assert fit["deviations"]["seq_fraction"] <= 0.05
