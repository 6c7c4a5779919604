"""Seeded benchmark of the kvcmeta metadata plane, end to end and by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``. A run
generates its trace with ``synth`` from ``--seed``, serializes and parses
it, compiles it with ``bench.compile_ops`` and replays it with
``bench.replay`` (closed loop, one worker) against an in-process
``store.HybridMetaStore`` or a ``kvcmeta serve`` child reached through
``service.RemoteBackend``. Set-up is done ``SETUPS`` times, spread over the
run, and its median reported. Replay repeats whole rounds of the same op stream until
``--seconds`` of replay have been timed; every round and its backend are
checked (see checks.py).

Each round is replayed as ``SLICES`` consecutive slices of whole requests.
The host this was built on alternates, for seconds at a time, between full
speed and about half speed (see README.md), so the figures come from the
composite round made of each slice's fastest replay across the run: ops
per second come from its wall time. A latency percentile is, per slice,
the least value over the slice's replays, and then the median over
slices.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run replays untraced first,
so its overhead is measured in the same process, and writes its spans
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SERVER_PY = os.path.join(HERE, "server.py")
MICRO_PY = os.path.join(HERE, "micro.py")

SETUPS = 5
SLICES = 20
NULL_REPLAYS = 3
TRACED_SHARE = 0.25             # traced replay time, as a share of --seconds
BASE_NAMESPACE = b"base"
CLIENT_CODEC = ("encode_request", "read_frame", "decode_response")
REMOTE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    requests: int
    mode: str
    key_scheme: str
    cache: str                      # `kvcmeta serve --cache` syntax
    remote: bool = False
    suffix_blocks: tuple[int, int] | None = None  # None keeps the cookbook's
    base_entries: int = 0           # resident before each round, own namespace


WORKLOADS = {
    # Pure prefill reads through the lru_pin hot tier; ~10^5 residents
    # against a 4096-entry cache.
    "read-pinned": Workload(requests=25_000, mode="preload", key_scheme="ordered",
                            cache="policy=lru_pin,capacity=4096,pin=16"),
    # First-seen blocks are random-order inserts into an index that already
    # holds 2x10^5 entries, so every insert pays the large-n cost; a round
    # stays short enough to repeat several times in a run.
    "ingest-hashed": Workload(requests=1_500, mode="insert_on_miss", key_scheme="hashed",
                              cache="", suffix_blocks=(16, 32), base_entries=200_000),
    # The cookbook trace over loopback TCP to a kvcmeta serve child.
    "remote-mixed": Workload(requests=2_000, mode="insert_on_miss", key_scheme="ordered",
                             cache="", remote=True),
}

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "req_p50_us": "us", "get_p50_us": "us",
    "mem_bytes_per_entry": "B",
}
LAYER_UNITS = {
    "synth.generate_s": "s", "trace.parse_s": "s", "bench.compile_s": "s",
    "store.encode_key_ns": "ns", "store.hash_key_ns": "ns",
    "bench.replay_ns_per_op": "ns", "bench.self_us_per_op": "us",
    "req_p99_us": "us", "get_p99_us": "us",
    "op.scan_p50_us": "us", "op.scan_p99_us": "us",
    "op.insert_p50_us": "us", "op.insert_p99_us": "us",
    "store.get_ns.nocache": "ns", "store.get_ns.lru_pin": "ns", "store.scan16_ns": "ns",
    "store.put_us.1e5": "us", "store.put_us.1e6": "us",
    "store.get_self_us": "us", "store.scan_self_us": "us", "store.put_self_us": "us",
    "store.cache_hit_ratio": "ratio",
    "protocol.encode_get_ns": "ns", "protocol.decode_get_ns": "ns",
    "protocol.encode_scan16_ns": "ns", "protocol.decode_scan16_ns": "ns",
    "protocol.bytes_per_op": "B", "protocol.frames_per_op": "count",
    "protocol.client_codec_us": "us",
    "service.rtt_floor_us": "us", "service.client_wait_us": "us", "service.server_apply_us": "us",
    "service.server_codec_us": "us", "service.server_cpu_us_per_op": "us",
    "tracing.overhead_pct": "%",
    "reconcile.op_gap_us": "us", "reconcile.get_gap_us": "us",
    "reconcile.wait_gap_us": "us",
}


def percentile(values, q: float):
    """Nearest rank: the element at 1-based rank ceil(q * n) of the sort."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(q * len(ordered), 9))) - 1]


def best_percentile(rows, pick, q: float) -> float:
    """The median over slices of each slice's best (least) percentile
    across its replays. Taking the best per slice keeps the slow stretches
    of the host out; the median over slices keeps out a burst inside one
    slice. 0.0 when no replay has samples."""
    best: dict[int, float] = {}
    for k, by_kind, req in rows:
        values = pick(by_kind, req)
        if values:
            p = percentile(values, q)
            best[k] = min(best.get(k, p), p)
    return statistics.median(best.values()) if best else 0.0


def _gets(by_kind, req):
    return by_kind.get("point_get")


def _requests(by_kind, req):
    return req


class ServerChild:
    """``kvcmeta serve`` in a child process (see server.py)."""

    def __init__(self, cache: str, spans: str | None = None):
        cmd = [sys.executable, SERVER_PY, "--cache", cache]
        if spans:
            cmd += ["--spans", spans]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        for line in self.proc.stderr:
            m = re.search(r"serving on [\d.]+:(\d+)", line)
            if m:
                return int(m.group(1))
        raise RuntimeError("kvcmeta serve exited before listening")

    def cpu_s(self) -> float:
        self.proc.stdin.write("cpu\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class NullBackend:
    """Answers every op at once, so replay time against it is the harness."""

    def __init__(self, max_span: int):
        self._rows = [(b"", 0)] * max_span

    def get(self, key):
        return 0

    def scan(self, start, end_exclusive, max_results=None):
        return self._rows[:max_results]

    def put(self, key, value):
        return None


@dataclass
class Replay:
    """One timed replay of one slice."""

    slice: int
    wall_ns: int
    latency_ns: array          # per op, in stream order
    server_cpu_s: float
    span: int                  # its bench.replay span in a traced phase, else -1


@dataclass
class Phase:
    """Every replay of one phase, and totals over all of them."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_ns: int = 0
    replays: list = field(default_factory=list)

    def absorb(self, k: int, records, wall_ns: int, cpu_s: float, span: int) -> None:
        self.attempted += len(records)
        self.failed += sum(1 for r in records if r.outcome != "ok")
        self.wall_ns += wall_ns
        lat = array("q", (r.latency_ns for r in records))
        self.replays.append(Replay(k, wall_ns, lat, cpu_s, span))

    def composite(self) -> list[Replay]:
        """The composite round: each slice's fastest replay."""
        best: dict[int, Replay] = {}
        for rep in self.replays:
            if rep.slice not in best or rep.wall_ns < best[rep.slice].wall_ns:
                best[rep.slice] = rep
        return [best[k] for k in sorted(best)]

    def ops_and_ns(self) -> tuple[int, int]:
        chosen = self.composite()
        return sum(len(r.latency_ns) for r in chosen), sum(r.wall_ns for r in chosen)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, traced: bool):
        import kvcmeta
        from kvcmeta import bench, cli, synth, trace

        import checks

        self.kv, self.bench, self.synth, self.trace_mod = kvcmeta, bench, synth, trace
        self.checks = checks
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.cache = cli.parse_cache_config(self.wl.cache)
        self.key = checks.key_fn(self.wl.key_scheme)
        base_key = checks.key_fn(self.wl.key_scheme, BASE_NAMESPACE)
        self.base = sorted((base_key(i), i) for i in range(self.wl.base_entries))
        self.failures: list[str] = []
        self.servers: list[ServerChild] = []

    # -- set-up ------------------------------------------------------------

    def profile(self):
        cfg = replace(self.synth.COOKBOOK_TOOL_AGENT, num_requests=self.wl.requests,
                      seed=self.seed, label=self.name)
        if self.wl.suffix_blocks:
            cfg = replace(cfg, suffix_blocks=self.synth.SuffixBlocks(*self.wl.suffix_blocks))
        return cfg

    def open_backend(self, preload, spans: str | None = None):
        """A fresh store (or served store) holding the base entries, put in
        key order, and the preload set."""
        server = None
        if self.wl.remote:
            server = ServerChild(self.wl.cache, spans)
            self.servers.append(server)
            backend = self.kv.RemoteBackend("127.0.0.1", server.port, timeout=REMOTE_TIMEOUT_S)
            backend.stats()  # connects
        else:
            backend = self.kv.HybridMetaStore(cache=self.cache)
        for key, value in self.base:
            backend.put(key, value)
        for key, value in preload:
            backend.put(key, value)
        return backend, server

    def close_backend(self, backend, server) -> None:
        if server is not None:
            backend.close()
            server.stop()
            self.servers.remove(server)

    def set_up(self):
        """One full set-up: generate, serialize, parse, compile and open a
        populated backend. Step times are appended to ``setup_steps``."""
        t0 = perf_counter()
        generated = self.synth.generate(self.profile())
        t1 = perf_counter()
        data = self.trace_mod.serialize_trace(generated)
        t2 = perf_counter()
        parsed = self.trace_mod.parse_trace(data, label=self.name)
        t3 = perf_counter()
        stream = self.bench.compile_ops(parsed, mode=self.wl.mode, key_scheme=self.wl.key_scheme)
        t4 = perf_counter()
        backend, server = self.open_backend(stream.preload)
        t5 = perf_counter()
        for name, value in (("synth.generate_s", t1 - t0), ("trace.parse_s", t3 - t2),
                            ("bench.compile_s", t4 - t3), ("setup_s", t5 - t0)):
            self.setup_steps.setdefault(name, []).append(value)
        return parsed, stream, backend, server

    def repeat_set_ups(self, ph: "Phase | None" = None) -> None:
        """Repeat set-ups, discarding their results, spread over the
        untraced phase (one each time another 1/SETUPS of its replay time
        has passed) so that one slow stretch of the host cannot set all of
        them; with no phase, up to SETUPS in all."""
        while len(self.setup_steps["setup_s"]) < SETUPS and (
                ph is None
                or ph.wall_ns >= len(self.setup_steps["setup_s"]) / SETUPS * self.seconds * 1e9):
            _, _, backend, server = self.set_up()
            self.close_backend(backend, server)

    def cut_slices(self) -> None:
        """SLICES op streams of whole requests, in order, with no preload."""
        ops = self.stream.ops
        n_req = len(self.trace.requests)
        self.slices, self.offsets = [], []
        lo = 0
        for k in range(1, SLICES + 1):
            last_req = k * n_req // SLICES
            hi = lo
            while hi < len(ops) and ops[hi].request_ordinal < last_req:
                hi += 1
            self.offsets.append(lo)
            self.slices.append(replace(self.stream, ops=ops[lo:hi], preload=[]))
            lo = hi

    # -- replay ------------------------------------------------------------

    def replay(self, stream, backend):
        try:
            return self.bench.replay(stream, backend, schedule="closed_loop", workers=1).records
        except self.bench.ReplayAborted as exc:
            self.failures.append(f"replay aborted: {exc}")
            return exc.log.records

    def check_backend(self, backend, rounds: int) -> None:
        """Stats after ``rounds`` replays of the stream on this backend."""
        want = self.want
        self.failures += self.checks.check_stats(
            backend.stats(), gets=rounds * want["point_get"], scans=rounds * want["range_scan"],
            puts=len(self.base) + len(self.stream.preload) + rounds * want["insert"],
            resident=len(self.base) + len(self.ids), cache_capacity=self.cache.capacity_entries)

    def phase(self, backend, server, seconds: float, tracer=None, counters=None,
              server_spans: list | None = None, between=None):
        """Replay whole rounds until ``seconds`` of replay are timed. A
        read-only stream reuses one backend; an ingesting one gets a fresh
        backend per round, checked before it is closed. ``between(phase)``
        runs after each round. Returns the backend left open, the rounds
        replayed on it, and the Phase."""
        from kvcmeta import protocol

        from tracer import TracedBackend, patched

        ph = Phase()
        fresh = self.stream.mode == "insert_on_miss"
        on_backend = 0
        layer = "service" if self.wl.remote else "store"
        while ph.rounds == 0 or ph.wall_ns < seconds * 1e9:
            if fresh and on_backend:
                self.check_backend(backend, on_backend)
                self.close_backend(backend, server)
                backend, server = self.open_backend(self.stream.preload,
                                                    self.spans_path(server_spans))
                on_backend = 0
            gc.collect()
            target, codec = backend, nullcontext()
            if tracer is not None:
                target = TracedBackend(backend, tracer, layer, self.ordinals)
                if self.wl.remote:
                    codec = patched(protocol, CLIENT_CODEC, tracer, "protocol", counters)
                slice_id = tracer.name_id("bench.replay")
            with codec:
                for k, piece in enumerate(self.slices):
                    cpu0 = server.cpu_s() if server else 0.0
                    span = tracer.begin(slice_id) if tracer is not None else -1
                    t0 = perf_counter_ns()
                    records = self.replay(piece, target)
                    wall = perf_counter_ns() - t0
                    if tracer is not None:
                        tracer.finish(span)
                    cpu = server.cpu_s() - cpu0 if server else 0.0
                    ph.absorb(k, records, wall, cpu, span)
            ph.rounds += 1
            on_backend += 1
            if between is not None:
                between(ph)
        return backend, server, on_backend, ph

    def spans_path(self, server_spans: list | None) -> str | None:
        if server_spans is None:
            return None
        path = os.path.join(OUT_DIR, f"{self.name}.server-{len(server_spans)}.spans")
        server_spans.append(path)
        return path

    def latencies(self, replays) -> list[tuple[int, dict[str, list[int]], list[int]]]:
        """Per replay: its slice, its op latencies by kind and its
        per-request sums."""
        rows = []
        for rep in replays:
            offset = self.offsets[rep.slice]
            by_kind: dict[str, list[int]] = {}
            sums: dict[int, int] = {}
            for i, lat in enumerate(rep.latency_ns):
                by_kind.setdefault(self.kinds[offset + i], []).append(lat)
                ordinal = self.ordinals[offset + i]
                sums[ordinal] = sums.get(ordinal, 0) + lat
            rows.append((rep.slice, by_kind, list(sums.values())))
        return rows

    # -- the run -----------------------------------------------------------

    def execute(self) -> dict:
        checks = self.checks
        self.setup_steps: dict[str, list[float]] = {}
        self.trace, self.stream, backend, server = self.set_up()
        self.ordinals = [op.request_ordinal for op in self.stream.ops]
        self.kinds = [op.kind for op in self.stream.ops]
        self.cut_slices()
        blocks = [r.block_ids for r in self.trace.requests]
        self.ids = sorted({b for ids in blocks for b in ids})
        self.want = checks.expected_counts(blocks, self.wl.mode, self.wl.key_scheme)
        self.failures += checks.check_stream(self.stream, blocks, self.wl.mode,
                                             self.wl.key_scheme, len(self.ids))
        self.describe()

        backend, server, on_backend, plain = self.phase(backend, server, self.seconds,
                                                        between=self.repeat_set_ups)
        stats = backend.stats()
        self.check_backend(backend, on_backend)
        expect = self.base + [(self.key(b), b) for b in self.ids]
        scans = [op for op in self.stream.ops if op.kind == checks.SCAN]
        self.failures += checks.check_readback(backend, expect, scans, self.key)
        self.close_backend(backend, server)
        if plain.failed:
            self.failures.append(f"{plain.failed} ops missed or failed")
        self.repeat_set_ups()
        setup = {k: statistics.median(v) for k, v in self.setup_steps.items()}

        if self.traced:
            metrics = {k: (v, LAYER_UNITS[k]) for k, v in self.traced_run(setup, plain, stats).items()}
        else:
            metrics = {k: (v, E2E_UNITS[k]) for k, v in self.e2e_metrics(setup, plain).items()}
        return {
            "correct": not self.failures,
            "attempted": plain.attempted,
            "failed": plain.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def describe(self) -> None:
        w = self.want
        resident = len(self.base) + len(self.ids)
        print(f"workload {self.name} seed {self.seed}: {len(self.trace.requests)} requests, "
              f"{len(self.ids)} distinct ids, {w['positions']} positions; ops per round: "
              f"{w['range_scan']} scans, {w['point_get']} gets, {w['insert']} inserts; "
              f"cache capacity {self.cache.capacity_entries} against {resident} resident")

    def e2e_metrics(self, setup, ph: Phase) -> dict[str, float]:
        rows = self.latencies(ph.replays)
        ops, ns = ph.ops_and_ns()
        return {
            "setup_s": setup["setup_s"],
            "ops_per_s": ops / (ns / 1e9),
            "req_p50_us": best_percentile(rows, _requests, 0.50) / 1e3,
            "get_p50_us": best_percentile(rows, _gets, 0.50) / 1e3,
            "mem_bytes_per_entry": self.mem_bytes_per_entry(),
        }

    def mem_bytes_per_entry(self) -> float:
        """Bytes the store allocates per resident entry when populated with
        the workload's final key set, in key order, under its cache config.
        Keys and values are built before tracing starts: they belong to the
        caller."""
        items = sorted(self.base + [(self.key(b), b) for b in self.ids])
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = self.kv.HybridMetaStore(cache=self.cache)
            for k, v in items:
                store.put(k, v)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        if len(store) != len(items):
            self.failures.append("memory population lost entries")
        return held / len(items)

    # -- the traced run ----------------------------------------------------

    def traced_run(self, setup, plain: Phase, stats) -> dict[str, float]:
        from tracer import Tracer

        os.makedirs(OUT_DIR, exist_ok=True)
        tracer = Tracer()
        counters = {"encode_request": [0, 0], "read_frame": [0, 0]}
        server_spans = [] if self.wl.remote else None
        # The traced phase starts on a fresh backend, so its spans and
        # counters cover its own rounds only.
        backend, server = self.open_backend(self.stream.preload, self.spans_path(server_spans))
        backend, server, on_backend, traced = self.phase(
            backend, server, self.seconds * TRACED_SHARE, tracer, counters, server_spans)
        self.check_backend(backend, on_backend)
        self.close_backend(backend, server)
        if traced.failed:
            self.failures.append(f"{traced.failed} traced ops missed or failed")
        tracer.dump(os.path.join(OUT_DIR, f"{self.name}.client.spans"))

        # Layer self times over the composite traced round: the spans that
        # start inside its replays' windows, in both processes.
        windows = self.windows(tracer, traced)
        client = tracer.self_times(windows)
        server_table: dict[str, list[int]] = {}
        for path in server_spans or ():
            for name, (count, total) in Tracer.load(path).self_times(windows).items():
                acc = server_table.setdefault(name, [0, 0])
                acc[0] += count
                acc[1] += total
        out = self.layer_metrics(setup, plain, traced, stats, client, server_table, counters)
        out.update(self.reconcile(plain, traced, tracer, client, out))
        return {k: out[k] for k in LAYER_UNITS}

    def layer_metrics(self, setup, plain: Phase, traced: Phase, stats, client, server,
                      counters) -> dict[str, float]:
        import micro

        rows = self.latencies(plain.replays)
        out = {k: setup[k] for k in ("synth.generate_s", "trace.parse_s", "bench.compile_s")}
        # Tail latencies swing with the host's load far more than medians
        # (README.md), so they are reported here, without a bound.
        out["req_p99_us"] = best_percentile(rows, _requests, 0.99) / 1e3
        out["get_p99_us"] = best_percentile(rows, _gets, 0.99) / 1e3
        for kind, label in (("range_scan", "scan"), ("insert", "insert")):
            def pick(by_kind, req, kind=kind):
                return by_kind.get(kind)
            out[f"op.{label}_p50_us"] = best_percentile(rows, pick, 0.50) / 1e3
            out[f"op.{label}_p99_us"] = best_percentile(rows, pick, 0.99) / 1e3
        out["store.cache_hit_ratio"] = stats.cache_hits / stats.gets if stats.gets else 0.0
        out["bench.replay_ns_per_op"] = self.null_replay_ns()
        ops, traced_ns = traced.ops_and_ns()
        plain_ops, plain_ns = plain.ops_and_ns()

        def per_op_us(table, *names) -> float:
            return sum(table.get(n, (0, 0))[1] for n in names) / ops / 1e3

        def per_call_us(table, name) -> float:
            count, total = table.get(name, (0, 0))
            return total / count / 1e3 if count else 0.0

        store_table = server if self.wl.remote else client
        for kind in ("get", "scan", "put"):
            out[f"store.{kind}_self_us"] = per_call_us(store_table, f"store.{kind}")
        out["bench.self_us_per_op"] = per_op_us(client, "bench.replay")
        out["protocol.client_codec_us"] = per_op_us(
            client, "protocol.encode_request", "protocol.decode_response")
        # The client's send and wait: its op span less the codec calls. The
        # send is not split from the wait because on loopback a send can run
        # the server's whole reply before it returns.
        out["service.client_wait_us"] = per_op_us(
            client, "service.get", "service.scan", "service.put", "protocol.read_frame")
        out["service.server_apply_us"] = per_op_us(server, "store.get", "store.scan", "store.put")
        out["service.server_codec_us"] = per_op_us(
            server, "protocol.decode_request", "protocol.encode_response", "protocol.encode_frame")
        out["service.server_cpu_us_per_op"] = (
            sum(r.server_cpu_s for r in plain.composite()) / plain_ops * 1e6
            if self.wl.remote else 0.0)
        req_frames, req_bytes = counters["encode_request"]
        _, resp_bytes = counters["read_frame"]
        out["protocol.frames_per_op"] = req_frames / traced.attempted
        out["protocol.bytes_per_op"] = (req_bytes + resp_bytes) / traced.attempted
        out["tracing.overhead_pct"] = (traced_ns / ops / (plain_ns / plain_ops) - 1.0) * 100.0
        out.update(micro.run_all(self.kv, self.seed, MICRO_PY))
        return out

    def reconcile(self, plain: Phase, traced: Phase, tracer, client, out) -> dict[str, float]:
        """Traced time along an op's blocking steps in the client (the op
        span with its protocol children, whose self times sum to the op
        span's length) minus the untraced mean op and get latency: what
        tracing adds, or, when negative, untraced time the spans miss. On
        the wire, client wait less the server's traced time and the
        round-trip floor is the wait no span explains."""
        rows = self.latencies(plain.composite())
        layer = "service" if self.wl.remote else "store"
        path = [f"{layer}.{k}" for k in ("get", "scan", "put")] + list(
            f"protocol.{n}" for n in CLIENT_CODEC)
        traced_op_ns = sum(client.get(n, (0, 0))[1] for n in path) / traced.ops_and_ns()[0]
        all_lat = [v for _, by_kind, _ in rows for lat in by_kind.values() for v in lat]
        gets = [v for _, by_kind, req in rows for v in _gets(by_kind, req) or ()]
        get_ns = tracer.durations(tracer.name_id(f"{layer}.get"), self.windows(tracer, traced))
        wait = (out["service.client_wait_us"] - out["service.server_codec_us"]
                - out["service.server_apply_us"] - out["service.rtt_floor_us"])
        return {
            "reconcile.op_gap_us": (traced_op_ns - statistics.fmean(all_lat)) / 1e3,
            "reconcile.get_gap_us": (statistics.fmean(get_ns) - statistics.fmean(gets)) / 1e3
            if gets and get_ns else 0.0,
            "reconcile.wait_gap_us": wait if self.wl.remote else 0.0,
        }

    @staticmethod
    def windows(tracer, ph: Phase) -> list[tuple[int, int]]:
        return sorted((tracer.start[r.span], tracer.end[r.span]) for r in ph.composite())

    def null_replay_ns(self) -> float:
        ph = Phase()
        null = NullBackend(max((op.span for op in self.stream.ops), default=1))
        for _ in range(NULL_REPLAYS):
            gc.collect()
            for k, piece in enumerate(self.slices):
                t0 = perf_counter_ns()
                records = self.replay(piece, null)
                ph.absorb(k, records, perf_counter_ns() - t0, 0.0, -1)
        ops, ns = ph.ops_and_ns()
        return ns / ops

    def stop_all(self) -> None:
        for server in list(self.servers):
            server.stop()
        self.servers.clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "kvcmeta")):
        print(f"error: no kvcmeta package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    finally:
        run.stop_all()
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
