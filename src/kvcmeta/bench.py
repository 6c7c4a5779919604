"""Trace-to-operation compilation, replay, and tail-latency aggregation.

Compilation turns each request's block-id list into metadata operations:
every maximal consecutive run of length >= 2 becomes one range scan over the
half-open key interval covering the run, and every remaining singleton
becomes a point get. Two population modes are supported:

* ``preload``        - every distinct id is installed before timing begins;
                       the replay itself is pure reads.
* ``insert_on_miss`` - an id never seen before (in an earlier request or
                       earlier in the same request) compiles to an insert in
                       place of its read, splitting runs around the insert
                       boundaries; later appearances compile to reads.

Inserted/preloaded values are the block id itself, making reads verifiable.
A ``chunk_split`` factor k rewrites each id b into the k consecutive ids
b*k .. b*k+k-1 before segmentation, modelling finer-grained chunking: runs
stretch by k and the metadata op volume grows accordingly.

Replay measures latency around the backend call only; scheduling lag of the
faithful (timestamp-driven) schedule is tracked separately, never folded
into latencies. A replay's ``LatencyLog`` keeps one row per op in four
columns: op kind and outcome as shared strings, issue time and latency in
``array('q')``. It builds no object per op, so a long replay leaves nothing
for the cyclic garbage collector to trace; ``LatencyLog.records`` is a view
that builds each ``LatencyRecord`` only when it is read. Percentiles are
nearest-rank (sort ascending, take the element at 1-based index ceil(q*n)).
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby, starmap
from typing import TYPE_CHECKING

from . import KEY_SCHEMES, MODES, SCHEDULES
from .store import key_encoder

if TYPE_CHECKING:
    from .trace import Trace

POINT_GET = "point_get"
RANGE_SCAN = "range_scan"
INSERT = "insert"

OUTCOME_OK = "ok"
OUTCOME_MISS = "miss"


class ReplayAborted(RuntimeError):
    """Replay stopped early: the error-rate budget was exhausted.

    Carries the partial log assembled so far.
    """

    def __init__(self, message: str, log: "LatencyLog"):
        super().__init__(message)
        self.log = log


@dataclass(slots=True)
class MetadataOp:
    """One compiled benchmark operation.

    ``span`` is the number of block positions the op covers: run length for
    scans, 1 otherwise. For scans, max_results is set to span at replay time.
    """

    kind: str
    issue_ms: int
    request_ordinal: int
    key: bytes | None = None          # point_get / insert
    value: int | None = None          # insert
    start: bytes | None = None        # range_scan
    end_exclusive: bytes | None = None
    span: int = 1


@dataclass
class OpStream:
    """Compiled operation stream plus the untimed preload set."""

    ops: list[MetadataOp]
    preload: list[tuple[bytes, int]]
    mode: str

    @property
    def covered_positions(self) -> int:
        return sum(op.span for op in self.ops)


@dataclass(slots=True)
class LatencyRecord:
    op_kind: str
    issue_ms: int
    latency_ns: int
    outcome: str  # "ok" | "miss" | "error:<ExceptionName>"


class LatencyLog:
    """Per-op rows in columns, plus the replay's scheduling-lag summary and
    error count.

    Row i is ``(op_kinds[i], issue_ms[i], latency_ns[i], outcomes[i])``.
    ``op_kinds`` holds the module's op-kind constants and ``outcomes`` its
    outcome constants or ``"error:<ExceptionName>"``; ``issue_ms`` and
    ``latency_ns`` are ``array('q')``. ``LatencyLog(records=[...])`` fills
    the columns from records.
    """

    __slots__ = ("op_kinds", "issue_ms", "latency_ns", "outcomes", "max_sched_lag_ns", "errors")

    def __init__(self, records: Iterable[LatencyRecord] = (), max_sched_lag_ns: int = 0,
                 errors: int = 0):
        records = list(records)
        self.op_kinds = [r.op_kind for r in records]
        self.issue_ms = array("q", [r.issue_ms for r in records])
        self.latency_ns = array("q", [r.latency_ns for r in records])
        self.outcomes = [r.outcome for r in records]
        self.max_sched_lag_ns = max_sched_lag_ns
        self.errors = errors

    @property
    def records(self) -> "_Records":
        """The rows as a read-only sequence of ``LatencyRecord``s, each
        built when it is read. Getting the view costs O(1)."""
        return _Records(self)

    def rows(self) -> Iterable[tuple[str, int, int, str]]:
        """(op_kind, issue_ms, latency_ns, outcome) per row, in order."""
        return zip(self.op_kinds, self.issue_ms, self.latency_ns, self.outcomes)


class _Records(Sequence):
    """``LatencyLog.records``: the log's rows as ``LatencyRecord``s, built on
    access. Compares equal to any sequence of equal records."""

    __slots__ = ("_log",)

    def __init__(self, log: LatencyLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log.latency_ns)

    def __getitem__(self, i):
        log = self._log
        cols = (log.op_kinds[i], log.issue_ms[i], log.latency_ns[i], log.outcomes[i])
        return list(map(LatencyRecord, *cols)) if isinstance(i, slice) else LatencyRecord(*cols)

    def __iter__(self):
        return starmap(LatencyRecord, self._log.rows())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


def compile_ops(
    trace: Trace,
    mode: str = "preload",
    namespace: bytes | str = b"",
    chunk_split: int = 1,
    key_scheme: str = "ordered",
) -> OpStream:
    """Compile a trace into a deterministic metadata op stream.

    Under the ``hashed`` key scheme keys carry no order, so range scans are
    impossible and every position compiles to a point get (or insert).
    """
    if chunk_split < 1:
        raise ValueError("chunk_split must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if key_scheme not in KEY_SCHEMES:
        raise ValueError(f"unknown key_scheme {key_scheme!r}")
    # Issue times go into a replay log's array('q') column.
    if trace.requests and not (-(1 << 63) <= trace.requests[0].arrival_ms
                               and trace.requests[-1].arrival_ms < 1 << 63):
        raise ValueError("arrival times must fit in a signed 64-bit integer")

    from .analysis import run_bounds

    scans_enabled = key_scheme == "ordered"
    make_key = key_encoder(namespace, hashed=not scans_enabled)
    ops: list[MetadataOp] = []
    append = ops.append
    seen: set[int] = set()
    k = chunk_split

    def reads(start_id: int, length: int, t: int, ordinal: int) -> None:
        if length >= 2 and scans_enabled:
            append(MetadataOp(RANGE_SCAN, t, ordinal, None, None,
                              make_key(start_id), make_key(start_id + length), length))
        else:
            for bid in range(start_id, start_id + length):
                append(MetadataOp(POINT_GET, t, ordinal, make_key(bid)))

    try:
        for ordinal, req in enumerate(trace.requests):
            ids = [b * k + j for b in req.block_ids for j in range(k)] if k > 1 else req.block_ids
            if not ids:
                continue
            t = req.arrival_ms
            bounds = run_bounds(ids)
            for lo, hi in zip(bounds, bounds[1:]):
                if mode == "preload":
                    reads(ids[lo], hi - lo, t, ordinal)
                    continue
                # Never-seen ids compile to inserts; each stretch of already-seen
                # ids becomes reads. A run's ids are distinct, so marking one id
                # seen never moves a later id of the run into the other group.
                for was_seen, group in groupby(ids[lo:hi], seen.__contains__):
                    if was_seen:
                        bids = list(group)
                        reads(bids[0], len(bids), t, ordinal)
                        continue
                    for bid in group:
                        seen.add(bid)
                        append(MetadataOp(INSERT, t, ordinal, make_key(bid), bid))

        preload: list[tuple[bytes, int]] = []
        if mode == "preload":
            # First appearances, in order; b's chunk ids b*k .. b*k+k-1 first
            # appear together, where b first does.
            firsts = dict.fromkeys(chain.from_iterable(req.block_ids for req in trace.requests))
            preload = [(make_key(bid), bid) for b in firsts for bid in range(b * k, b * k + k)]
    except OverflowError:
        # Only an id past 64 bits overflows: a chunk id, or the end key of a
        # scan over a run that ends at the largest id.
        top = max(chain.from_iterable(req.block_ids for req in trace.requests)) * k + k - 1
        if top >= 1 << 64:
            raise ValueError(f"chunk id {top} (chunk_split {k}) does not fit in 64 bits") from None
        raise ValueError(
            f"block id {top} ends a run, and the scan end id {top + 1} does not fit in 64 bits"
        ) from None
    return OpStream(ops, preload, mode)


def _method(backend, name: str):
    """``backend.<name>``, bound once; if the backend lacks it, a stand-in
    whose every call raises the AttributeError that the lookup raises."""
    try:
        return getattr(backend, name)
    except AttributeError:
        return lambda *args, **kwargs: getattr(backend, name)(*args, **kwargs)


def replay(
    opstream: OpStream,
    backend,
    schedule: str = "closed_loop",
    time_scale: float = 1.0,
    workers: int = 1,
    abort_error_rate: float = 0.01,
) -> LatencyLog:
    """Replay a compiled op stream against a backend.

    The preload set is installed before timing starts. Schedule ``faithful``
    dispatches each op no earlier than issue_ms * time_scale after replay
    start; ``closed_loop`` ignores issue times. Under ``faithful``, an op's
    lateness is read after any sleep before it, so time overslept counts,
    and the largest is reported as scheduling lag.

    The log holds one row per completed op in columns (see ``LatencyLog``)
    and no object per op; its ``records`` view builds ``LatencyRecord``s
    only when read.

    ``workers`` threads iterate one shared iterator over the ops with no
    lock: under the GIL a list iterator's ``next`` is atomic, so every op
    runs exactly once. Each worker appends to its own columns, and after the
    join they are merged in worker order and stably sorted by issue time.
    A lock guards only the error count. Against an
    in-process backend, which never releases the GIL, ``workers > 1`` still
    runs one op at a time: a worker runs hundreds of ops before the next
    gets a turn, so its latencies include thread hand-offs, not contention.
    Per-op failures, a call of a method the backend lacks included, are
    recorded as error outcomes. Once errors exceed abort_error_rate * total
    ops, the worker that counts the excess drains the shared iterator, so
    every worker stops at its next op, and the replay raises ReplayAborted
    with the partial log.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if schedule == "faithful" and time_scale <= 0:
        raise ValueError("time_scale must be positive")

    for key, value in opstream.preload:
        backend.put(key, value)

    ops = iter(opstream.ops)
    total = len(opstream.ops)
    error_budget = max(1, math.ceil(abort_error_rate * total)) if total else 0
    lock = threading.Lock()  # guards log.errors
    log = LatencyLog()
    parts = [log] if workers == 1 else [LatencyLog() for _ in range(workers)]
    max_lag = [0] * workers
    faithful = schedule == "faithful"
    get, scan, put = (_method(backend, name) for name in ("get", "scan", "put"))

    start_ns = time.perf_counter_ns()

    def run_worker(wid: int) -> None:
        clock, sleep = time.perf_counter_ns, time.sleep
        part = parts[wid]
        add_issue, add_latency = part.issue_ms.append, part.latency_ns.append
        add_kind, add_outcome = part.op_kinds.append, part.outcomes.append
        for op in ops:
            kind = op.kind
            if faithful:
                target_ns = start_ns + int(op.issue_ms * time_scale * 1e6)
                now = clock()
                if now < target_ns:
                    sleep((target_ns - now) / 1e9)
                    now = clock()
                if now - target_ns > max_lag[wid]:
                    max_lag[wid] = now - target_ns
            t0 = clock()
            try:
                if kind == POINT_GET:
                    outcome = OUTCOME_OK if get(op.key) is not None else OUTCOME_MISS
                elif kind == RANGE_SCAN:
                    rows = scan(op.start, op.end_exclusive, max_results=op.span)
                    outcome = OUTCOME_OK if len(rows) == op.span else OUTCOME_MISS
                else:
                    put(op.key, op.value)
                    outcome = OUTCOME_OK
            except Exception as exc:
                t1 = clock()
                outcome = f"error:{type(exc).__name__}"
                with lock:
                    log.errors += 1
                    if log.errors > error_budget:
                        deque(ops, maxlen=0)  # one C call: no worker takes an op meanwhile
            else:
                t1 = clock()
            add_issue(op.issue_ms)
            add_latency(t1 - t0 or 1)
            add_kind(kind)
            add_outcome(outcome)

    if workers == 1:
        run_worker(0)
    else:
        threads = [threading.Thread(target=run_worker, args=(w,)) for w in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    if workers > 1:
        # The order of a stable sort by issue time over the workers' rows
        # concatenated in worker order.
        issued = list(chain.from_iterable(part.issue_ms for part in parts))
        order = sorted(range(len(issued)), key=issued.__getitem__)
        for name in ("op_kinds", "issue_ms", "latency_ns", "outcomes"):
            column = list(chain.from_iterable(getattr(part, name) for part in parts))
            getattr(log, name).extend(map(column.__getitem__, order))
    log.max_sched_lag_ns = max(max_lag)

    if log.errors > error_budget:
        raise ReplayAborted(
            f"error budget exhausted: {log.errors} errors over {len(log.latency_ns)} completed ops "
            f"(threshold {abort_error_rate:.2%} of {total})",
            log,
        )
    return log


def percentile(samples, q: float):
    """Nearest-rank percentile: element at 1-based index ceil(q*n) of the
    ascending sort. q must lie in (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of empty sample set")
    n = len(ordered)
    # The 1e-9 guard keeps float noise (e.g. 0.99*100 -> 99.00000000000001)
    # from bumping the rank past the exact nearest-rank index.
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[min(rank, n) - 1]


@dataclass(frozen=True)
class IntervalRow:
    interval_index: int
    op_kind: str
    count: int
    p50_ns: int
    p99_ns: int


@dataclass
class IntervalStats:
    """Per-interval, per-op-kind percentile rows (errors tallied apart)."""

    interval_s: int
    warmup_s: int
    rows: list[IntervalRow] = field(default_factory=list)
    error_counts: dict[tuple[int, str], int] = field(default_factory=dict)

    def cells(self) -> dict[tuple[int, str], IntervalRow]:
        return {(r.interval_index, r.op_kind): r for r in self.rows}


def interval_stats(log: LatencyLog, interval_s: int = 60, warmup_s: int = 600) -> IntervalStats:
    """Bucket post-warm-up records into half-open issue-time intervals and
    aggregate count/p50/p99 per (interval, op kind). Error records are
    excluded from percentiles and counted separately. Empty intervals are
    simply absent."""
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    if warmup_s < 0:
        raise ValueError("warmup_s must be >= 0")
    span_ms = interval_s * 1000
    cutoff_ms = warmup_s * 1000
    samples: dict[tuple[int, str], list[int]] = {}
    stats = IntervalStats(interval_s, warmup_s)
    for kind, issued, latency, outcome in log.rows():
        if issued < cutoff_ms:
            continue
        cell = (issued // span_ms, kind)
        if outcome.startswith("error"):
            stats.error_counts[cell] = stats.error_counts.get(cell, 0) + 1
            continue
        samples.setdefault(cell, []).append(latency)
    for (idx, kind) in sorted(samples):
        lat = samples[(idx, kind)]
        stats.rows.append(
            IntervalRow(idx, kind, len(lat), percentile(lat, 0.50), percentile(lat, 0.99))
        )
    return stats


@dataclass(frozen=True)
class NormalizedRow:
    interval_index: int
    op_kind: str
    ratio: float | None  # None when the baseline p99 is 0 (undefined cell)


@dataclass
class NormalizedReport:
    """Baseline-normalized p99 ratios per shared (interval, op kind) cell."""

    rows: list[NormalizedRow]
    mean_ratio_per_kind: dict[str, float]
    undefined_cells: list[tuple[int, str]]


def normalize(stats: IntervalStats, baseline: IntervalStats) -> NormalizedReport:
    """p99 ratios of stats against baseline over their shared cells, plus the
    across-interval mean ratio per op kind. Raises if no cell is shared."""
    ours = stats.cells()
    base = baseline.cells()
    shared = sorted(set(ours) & set(base))
    if not shared:
        raise ValueError("no shared (interval, op_kind) cells to normalize")
    rows: list[NormalizedRow] = []
    undefined: list[tuple[int, str]] = []
    sums: dict[str, list[float]] = {}
    for idx, kind in shared:
        b = base[(idx, kind)].p99_ns
        if b == 0:
            rows.append(NormalizedRow(idx, kind, None))
            undefined.append((idx, kind))
            continue
        ratio = ours[(idx, kind)].p99_ns / b
        rows.append(NormalizedRow(idx, kind, ratio))
        sums.setdefault(kind, []).append(ratio)
    means = {kind: sum(v) / len(v) for kind, v in sums.items()}
    return NormalizedReport(rows, means, undefined)
