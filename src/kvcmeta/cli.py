"""Command-line entry point.

Subcommands: analyze (trace characterization CSVs + summary), bench (compile
and replay a trace against a backend), serve (expose the in-process store
over TCP), synth (generate a synthetic trace), report (baseline-normalized
p99 tables and SVG charts). Every command writes a manifest.json capturing
the arguments, input digest, and timing needed to re-run it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import select
import signal
import socket
import sys
import threading
from typing import TYPE_CHECKING

# Only what ``serve`` needs is imported here; the other commands import
# their modules when they run, so that a serve process starts lean.
from . import KEY_SCHEMES, MODES, SCHEDULES
from .service import RemoteBackend, TransportError, connect, parse_hostport, serve
from .store import CacheConfig, HybridMetaStore

if TYPE_CHECKING:
    from .bench import IntervalStats
    from .report import RunManifest

log = logging.getLogger("kvcmeta")

_CACHE_KEYS = {  # option name -> (CacheConfig field, converter)
    "policy": ("policy", str.strip),
    "capacity": ("capacity_entries", int),
    "pin": ("pin_first_n", int),
    "halflife": ("hotness_halflife_s", float),
}


def parse_cache_config(text: str) -> CacheConfig:
    """'policy=lru_pin,capacity=4096,pin=16,halflife=600' -> CacheConfig."""
    kwargs = {}
    if text:
        for part in text.split(","):
            name, _, raw = part.partition("=")
            item = _CACHE_KEYS.get(name.strip())
            if item is None or not raw:
                raise ValueError(f"bad cache config item {part!r}")
            field, convert = item
            kwargs[field] = convert(raw)
    return CacheConfig(**kwargs)


def make_backend(spec: str, timeout: float = 1.0):
    """Build a backend from its CLI descriptor.

    inproc[:cache-config] | remote:host:port | external:host:port
    """
    if spec == "inproc" or spec.startswith("inproc:"):
        cfg = parse_cache_config(spec.partition(":")[2])
        return HybridMetaStore(cache=cfg)
    if spec.startswith("remote:"):
        return connect(spec[len("remote:"):], timeout=timeout)
    if spec.startswith("external:"):
        from .external import ExternalBackend

        return ExternalBackend(spec[len("external:"):])
    raise ValueError(f"unknown backend spec {spec!r}")


def _manifest(args, started: str, trace_label: str, digest: str | None,
              backend: str | None = None, aborted: bool = False) -> RunManifest:
    from . import report

    config = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    return report.RunManifest(
        command_line=sys.argv,
        config=config,
        trace_label=trace_label,
        trace_sha256=digest,
        backend=backend,
        started_at=started,
        finished_at=report.utc_now(),
        aborted=aborted,
    )


def cmd_analyze(args) -> int:
    from . import analysis, bench, report
    from .trace import load_trace

    started = report.utc_now()
    trace = load_trace(args.trace)
    os.makedirs(args.out, exist_ok=True)

    cdf = analysis.hit_rate_cdf(trace)
    seq_rows = analysis.sequential_fractions(trace)
    timeline = analysis.reuse_timeline(trace, bucket_seconds=args.bucket_seconds)
    gaps = analysis.nonseq_randomness_report(trace, mode="per_key_gaps")
    per_req = analysis.nonseq_randomness_report(trace, mode="per_request_median")

    report.write_hit_rate_cdf(os.path.join(args.out, "hit_rate_cdf.csv"), cdf)
    report.write_seq_fraction(os.path.join(args.out, "seq_fraction.csv"), seq_rows)
    report.write_runs_test(os.path.join(args.out, "runs_test.csv"), gaps)
    report.write_reuse_timeline(os.path.join(args.out, "reuse_timeline.csv"), timeline)

    rates = analysis.request_hit_rates(trace)
    fractions = [f for _, _, f in seq_rows]
    summary = {
        "trace": trace.label,
        "requests": len(trace.requests),
        "nonempty_requests": len(rates),
        "out_of_order_records": trace.out_of_order,
        "hit_rate": {
            "mean": sum(rates) / len(rates),
            "p50": bench.percentile(rates, 0.50),
            "p90": bench.percentile(rates, 0.90),
            "fraction_above_half": sum(1 for r in rates if r > 0.5) / len(rates),
        },
        "avg_sequential_fraction": sum(fractions) / len(fractions),
        "runs_test": {
            mode_report.mode: {
                "fraction_random": mode_report.fraction_random,
                "tested": mode_report.tested,
                "skipped": mode_report.skipped,
            }
            for mode_report in (gaps, per_req)
        },
    }
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    _manifest(args, started, trace.label, report.sha256_file(args.trace)).write(args.out)
    print(f"analyzed {trace.label}: {len(trace.requests)} requests, "
          f"avg seq fraction {summary['avg_sequential_fraction']:.4f}")
    return 0


def cmd_bench(args) -> int:
    from . import bench, report
    from .trace import load_trace

    started = report.utc_now()
    trace = load_trace(args.trace)
    stream = bench.compile_ops(
        trace,
        mode=args.mode,
        namespace=args.namespace,
        chunk_split=args.chunk_split,
        key_scheme=args.key_scheme,
    )
    backend = make_backend(args.backend, timeout=args.timeout)
    os.makedirs(args.out, exist_ok=True)

    aborted = False
    try:
        latency_log = bench.replay(
            stream,
            backend,
            schedule=args.schedule,
            time_scale=args.time_scale,
            workers=args.workers,
            abort_error_rate=args.abort_error_rate,
        )
    except bench.ReplayAborted as exc:
        latency_log = exc.log
        aborted = True
        with open(os.path.join(args.out, "ABORTED"), "w", encoding="utf-8") as fh:
            fh.write(str(exc) + "\n")
        print(f"replay aborted: {exc}", file=sys.stderr)
    finally:
        if isinstance(backend, RemoteBackend):
            backend.close()

    stats = bench.interval_stats(latency_log, interval_s=args.interval, warmup_s=args.warmup)
    report.write_latency_log(os.path.join(args.out, "latency_log.csv"), latency_log)
    report.write_interval_stats(os.path.join(args.out, "interval_stats.csv"), stats)
    _manifest(args, started, trace.label, report.sha256_file(args.trace),
              backend=args.backend, aborted=aborted).write(args.out)

    by_kind: dict[str, list[int]] = {}
    misses = 0
    for kind, _, latency, outcome in latency_log.rows():
        if outcome.startswith("error"):
            continue
        if outcome == bench.OUTCOME_MISS:
            misses += 1
        by_kind.setdefault(kind, []).append(latency)
    for kind in sorted(by_kind):
        lat = by_kind[kind]
        print(f"p99 {kind}: {bench.percentile(lat, 0.99)} ns "
              f"(n={len(lat)}, p50={bench.percentile(lat, 0.50)} ns)")
    print(f"ops={len(latency_log.latency_ns)} misses={misses} errors={latency_log.errors} "
          f"max_sched_lag_ms={latency_log.max_sched_lag_ns / 1e6:.3f}")
    return 1 if aborted else 0


def cmd_serve(args) -> int:
    host, port = parse_hostport(args.listen)
    store = HybridMetaStore(
        cache=parse_cache_config(args.cache),
        max_entries=args.max_entries,
    )
    try:
        handle = serve((host, port), store)
    except OSError as exc:
        print(f"bind failed: {exc}", file=sys.stderr)
        return 1
    log.info("serving on %s:%d", *handle.address)

    # The C-level handler writes the signal number to ``notify`` from
    # whichever thread receives the signal, and the Python handlers do
    # nothing, so no handler takes a lock that the main thread may hold.
    wake, notify = socket.socketpair()
    with wake, notify:
        notify.setblocking(False)
        prev_fd = signal.set_wakeup_fd(notify.fileno())
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, lambda *_: None)
            while not select.select([wake], [], [], args.stats_interval)[0]:
                log.info("stats %s", store.stats())
            log.info("signal %d: draining", wake.recv(1)[0])
        finally:
            signal.set_wakeup_fd(prev_fd)
            handle.stop()
    log.info("drained, bye")
    return 0


def cmd_synth(args) -> int:
    from . import report, synth
    from .trace import save_trace

    started = report.utc_now()
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = synth.SynthConfig.from_dict(raw)
    if args.seed is not None:
        config = synth.SynthConfig.from_dict({**raw, "seed": args.seed})
    trace = synth.generate(config)
    save_trace(trace, args.out)

    targets = raw.get("targets", {})
    fit = synth.fit_report(trace, targets)
    with open(args.out + ".fit.json", "w", encoding="utf-8") as fh:
        fh.write(fit.to_json())
        fh.write("\n")
    _manifest(args, started, trace.label, report.sha256_file(args.out)).write(
        os.path.dirname(os.path.abspath(args.out)), name=os.path.basename(args.out) + ".manifest.json"
    )
    print(f"wrote {args.out}: {len(trace.requests)} requests; measured {fit.measured}")
    return 0


def _load_inputs(items: list[str]) -> list[tuple[str, IntervalStats]]:
    from . import report

    inputs = []
    for item in items:
        label, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"input must be label=path, got {item!r}")
        inputs.append((label, report.read_interval_stats(path)))
    return inputs


def cmd_report(args) -> int:
    from . import bench, report

    started = report.utc_now()
    inputs = _load_inputs(args.inputs)
    labels = [label for label, _ in inputs]
    baseline_label = args.baseline or labels[0]
    if baseline_label not in labels:
        raise ValueError(f"baseline {baseline_label!r} not among inputs {labels}")
    os.makedirs(args.out_dir, exist_ok=True)

    grids = {label: set(stats.cells()) for label, stats in inputs}
    union = set().union(*grids.values())
    missing_msgs = []
    for label in labels:
        missing = sorted(union - grids[label])
        if missing:
            missing_msgs.append(f"{label}: missing {missing[:10]}"
                                + (" ..." if len(missing) > 10 else ""))
    if missing_msgs:
        raise ValueError("mismatched interval grids: " + "; ".join(missing_msgs))

    base_stats = dict(inputs)[baseline_label]
    normalized = {label: bench.normalize(stats, base_stats) for label, stats in inputs}

    primary = next((lb for lb in labels if lb != baseline_label), baseline_label)
    report.write_normalized(os.path.join(args.out_dir, "normalized.csv"),
                            normalized[primary].rows)
    for label in labels:
        if label != primary:
            report.write_normalized(
                os.path.join(args.out_dir, f"normalized_{label}.csv"),
                normalized[label].rows,
            )

    kinds = sorted({r.op_kind for rep in normalized.values() for r in rep.rows})
    for kind in kinds:
        series = []
        for label in labels:
            pts = [
                (float(r.interval_index), r.ratio)
                for r in normalized[label].rows
                if r.op_kind == kind and r.ratio is not None
            ]
            series.append((label, pts))
        svg = report.svg_line_chart(
            series,
            f"Normalized p99 ({kind}, {baseline_label}=1)",
            "interval index",
            "normalized p99",
        )
        with open(os.path.join(args.out_dir, f"p99_norm_{kind}.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)

    if args.cdf:
        points = report.read_hit_rate_cdf(args.cdf)
        with open(os.path.join(args.out_dir, "hit_rate_cdf.svg"), "w", encoding="utf-8") as fh:
            fh.write(report.svg_cdf_chart(points))

    for label, rep in normalized.items():
        for kind, mean in sorted(rep.mean_ratio_per_kind.items()):
            print(f"{label} {kind}: mean normalized p99 = {mean:.4f}")
    _manifest(args, started, trace_label=",".join(labels), digest=None).write(args.out_dir)
    return 0


def _positive_at_most(high: float):
    """An argparse type: a float in (0, high]."""
    def number(text: str) -> float:
        value = float(text)
        if not 0 < value <= high:
            raise argparse.ArgumentTypeError(f"must be positive and at most {high:g}, got {text}")
        return value
    return number


def _finite_nonnegative(text: str) -> float:
    """An argparse type: a finite float no less than 0 (NaN fails the comparison)."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _int_at_least(low: int):
    """An argparse type: an integer no less than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvcmeta",
        description="KV-cache metadata workload analysis and benchmarking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p = sub.add_parser("analyze", help="characterize a trace into CSVs + summary JSON", **fmt)
    p.add_argument("trace", help="trace file (JSON Lines, .gz accepted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bucket-seconds", type=_int_at_least(1), default=60,
                   help="reuse timeline bucket width (default 60)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="compile a trace and replay it against a backend", **fmt)
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    p.add_argument("--backend", default="inproc",
                   help="inproc[:cache-config] | remote:host:port | external:host:port")
    p.add_argument("--mode", choices=MODES, default="preload")
    p.add_argument("--schedule", choices=SCHEDULES, default="closed_loop")
    p.add_argument("--time-scale", type=_positive_at_most(sys.float_info.max), default=1.0,
                   help="faithful schedule time multiplier (0.01 = 100x faster)")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--interval", type=_int_at_least(1), default=60, help="stats interval seconds")
    p.add_argument("--warmup", type=_int_at_least(0), default=600, help="warm-up exclusion seconds")
    p.add_argument("--chunk-split", type=_int_at_least(1), default=1)
    p.add_argument("--key-scheme", choices=KEY_SCHEMES, default="ordered")
    p.add_argument("--namespace", default="")
    p.add_argument("--abort-error-rate", type=_finite_nonnegative, default=0.01)
    p.add_argument("--timeout", type=_positive_at_most(threading.TIMEOUT_MAX), default=1.0,
                   help="remote timeout seconds: bounds the connect and each send and "
                   "each recv, not a whole op")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="serve the in-process store over TCP", **fmt)
    p.add_argument("--listen", default="127.0.0.1:7440")
    p.add_argument("--cache", default="", help="cache config, e.g. policy=lru_pin,capacity=4096")
    p.add_argument("--max-entries", type=_int_at_least(1), default=None)
    # a wait that select.select accepts
    p.add_argument("--stats-interval", type=_positive_at_most(threading.TIMEOUT_MAX), default=60.0,
                   help="seconds between stats log lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("synth", help="generate a synthetic trace from a JSON config", **fmt)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="normalize interval stats and render SVG charts", **fmt)
    p.add_argument("inputs", nargs="+", metavar="label=interval_stats.csv")
    p.add_argument("--baseline", default=None, help="baseline label (default: first input)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--cdf", default=None, help="hit_rate_cdf.csv to render as SVG")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TransportError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
