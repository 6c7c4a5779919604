"""Workload characterization for prefix-prefill traces.

Implements the four measurements used to profile block-access behavior:

* per-request block hit rate against the set of blocks produced by earlier
  requests, and its empirical CDF;
* positional segmentation of each request's block-id list into maximal
  consecutive runs (id increasing by exactly 1), and the sequential fraction;
* Wald-Wolfowitz runs tests (normal approximation) on the non-sequential
  accesses, in two constructions (per-key access gaps, per-request ids);
* a reuse timeline of (time bucket, block id) access points.

All functions are pure; results for a fixed trace are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median

from .trace import Trace


class DegenerateSequenceError(ValueError):
    """Runs test refused: single-category or too-short sequence."""


@dataclass(frozen=True)
class Run:
    """A maximal positional subsequence of ids increasing by exactly 1."""

    start_id: int
    length: int


@dataclass(frozen=True)
class RunsTestStat:
    """Wald-Wolfowitz runs-test statistic under the normal approximation.

    mean = 1 + 2*n1*n2/(n1+n2)
    var  = 2*n1*n2*(2*n1*n2 - n1 - n2) / ((n1+n2)^2 * (n1+n2-1))
    z = (runs - mean) / sqrt(var),  p = 2*(1 - Phi(|z|))
    """

    n1: int
    n2: int
    runs: int
    z: float
    p_value: float


@dataclass
class RunsTestReport:
    """Per-key (or per-request) runs-test outcomes over a trace.

    ``fraction_random`` is the fraction of tested keys with p > 0.05 and is
    None (undefined) when nothing was testable. ``skipped`` counts candidates
    rejected for too few occurrences or a degenerate dichotomized sequence.
    """

    mode: str
    stats: dict[int, RunsTestStat] = field(default_factory=dict)
    skipped: int = 0

    @property
    def tested(self) -> int:
        return len(self.stats)

    @property
    def fraction_random(self) -> float | None:
        if self.tested == 0:
            return None
        return sum(1 for st in self.stats.values() if st.p_value > 0.05) / self.tested


def request_hit_rate(block_ids, seen: set[int]) -> float:
    """Fraction of the request's distinct block ids already in ``seen``.

    ``seen`` is not mutated. Raises ValueError for an empty request, whose
    hit rate is undefined (callers skip such requests).
    """
    distinct = set(block_ids)
    if not distinct:
        raise ValueError("undefined hit rate: request has no blocks")
    return len(distinct & seen) / len(distinct)


def request_hit_rates(trace: Trace) -> list[float]:
    """Hit rate of every non-empty request, in arrival order.

    The seen-set is updated only between requests: all of a request's new
    blocks become visible to the next request simultaneously, so duplicates
    within one request never self-hit.
    """
    seen: set[int] = set()
    rates = []
    for req in trace.requests:
        if req.block_ids:
            rates.append(request_hit_rate(req.block_ids, seen))
            seen.update(req.block_ids)
    return rates


def hit_rate_cdf(trace: Trace) -> tuple[tuple[float, float], ...]:
    """Empirical CDF of per-request hit rates over all non-empty requests:
    one (hit_rate, cumulative_fraction) point per distinct hit rate, hit
    rates strictly increasing and the last fraction equal to 1."""
    rates = request_hit_rates(trace)
    if not rates:
        raise ValueError("trace has no non-empty requests")
    rates.sort()
    n = len(rates)
    points: list[tuple[float, float]] = []
    i = 0
    while i < n:
        j = i
        while j < n and rates[j] == rates[i]:
            j += 1
        points.append((rates[i], j / n))
        i = j
    return tuple(points)


def run_bounds(ids) -> list[int]:
    """Positions where the maximal +1 runs of a non-empty id sequence start,
    then its length: run r is ``ids[b[r]:b[r + 1]]``."""
    return [0, *[i for i, (a, b) in enumerate(zip(ids, ids[1:]), 1) if b != a + 1], len(ids)]


def segment_runs(block_ids) -> list[Run]:
    """Partition a block-id list positionally into maximal +1 runs.

    Only steps of exactly +1 extend a run; descending or strided ids are
    singletons. Concatenating the runs reproduces the input.
    """
    ids = list(block_ids)
    if not ids:
        return []
    bounds = run_bounds(ids)
    return [Run(ids[lo], hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def sequential_fraction(block_ids) -> float:
    """Fraction of positions belonging to runs of length >= 2."""
    ids = list(block_ids)
    if not ids:
        raise ValueError("undefined sequential fraction: request has no blocks")
    covered = sum(r.length for r in segment_runs(ids) if r.length >= 2)
    return covered / len(ids)


def sequential_fractions(trace: Trace) -> list[tuple[int, int, float]]:
    """(request index, arrival_ms, sequential fraction) for non-empty requests."""
    rows = []
    for idx, req in enumerate(trace.requests):
        if req.block_ids:
            rows.append((idx, req.arrival_ms, sequential_fraction(req.block_ids)))
    return rows


def _phi(x: float) -> float:
    # Standard normal CDF via erfc; absolute error well below 1e-7.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


MIN_RUNS_TEST_LENGTH = 8
MIN_OCCURRENCES = 8  # non-sequential accesses a key or request needs to be tested


def runs_test(binary_seq) -> RunsTestStat:
    """Wald-Wolfowitz runs test on a two-valued sequence.

    Refuses sequences shorter than 8 symbols or with a single category, where
    the normal approximation is unreliable (DegenerateSequenceError).
    """
    seq = list(binary_seq)
    symbols = sorted(set(seq))
    if len(symbols) > 2:
        raise ValueError(f"sequence has {len(symbols)} distinct symbols, expected 2")
    if len(seq) < MIN_RUNS_TEST_LENGTH or len(symbols) < 2:
        raise DegenerateSequenceError(
            f"degenerate sequence: length {len(seq)}, {len(symbols)} categories"
        )
    a = symbols[0]
    n1 = sum(1 for s in seq if s == a)
    n2 = len(seq) - n1
    runs = 1 + sum(1 for prev, cur in zip(seq, seq[1:]) if prev != cur)

    n = n1 + n2
    mean = 1.0 + 2.0 * n1 * n2 / n
    var = (2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)) / (n * n * (n - 1))
    z = (runs - mean) / math.sqrt(var)
    p = 2.0 * (1.0 - _phi(abs(z)))
    return RunsTestStat(n1, n2, runs, z, min(1.0, p))


def _dichotomize(values: list) -> list[int]:
    # Above/below the median, ties dropped (standard Wald-Wolfowitz practice).
    med = median(values)
    return [0 if v < med else 1 for v in values if v != med]


def _nonsequential_ids(block_ids) -> list[int]:
    return [r.start_id for r in segment_runs(block_ids) if r.length == 1]


def nonseq_randomness_report(trace: Trace, mode: str = "per_key_gaps") -> RunsTestReport:
    """Runs-test randomness report over the trace's non-sequential accesses.

    Non-sequential accesses are the positions left as length-1 runs by
    segment_runs. Mode ``per_key_gaps`` (default) tests, for each block id
    with at least ``MIN_OCCURRENCES`` such occurrences, the sequence of
    inter-occurrence gaps (in request ordinal) dichotomized about its median.
    Mode ``per_request_median`` tests each request holding at least
    ``MIN_OCCURRENCES`` non-sequential ids, dichotomizing the id sequence
    about the request's median id; keys of the report are request ordinals.

    Candidates whose dichotomized sequence is degenerate (after tie dropping)
    are counted as skipped. With nothing testable the report carries
    tested = 0 and fraction_random None.
    """
    if mode not in ("per_key_gaps", "per_request_median"):
        raise ValueError(f"unknown mode: {mode!r}")
    report = RunsTestReport(mode=mode)

    if mode == "per_key_gaps":
        occurrences: dict[int, list[int]] = {}
        for ordinal, req in enumerate(trace.requests):
            for bid in _nonsequential_ids(req.block_ids):
                occurrences.setdefault(bid, []).append(ordinal)
        for bid, ords in occurrences.items():
            if len(ords) < MIN_OCCURRENCES:
                report.skipped += 1
                continue
            gaps = [b - a for a, b in zip(ords, ords[1:])]
            _apply_test(report, bid, _dichotomize(gaps))
    else:
        for ordinal, req in enumerate(trace.requests):
            ids = _nonsequential_ids(req.block_ids)
            if not ids:
                continue
            if len(ids) < MIN_OCCURRENCES:
                report.skipped += 1
                continue
            _apply_test(report, ordinal, _dichotomize(ids))
    return report


def _apply_test(report: RunsTestReport, key: int, cats: list[int]) -> None:
    try:
        stat = runs_test(cats)
    except DegenerateSequenceError:
        report.skipped += 1
        return
    report.stats[key] = stat


def reuse_timeline(trace: Trace, bucket_seconds: int = 60) -> tuple[tuple[int, int], ...]:
    """One (bucket index, block id) point per block access occurrence, in
    trace order; bucket index is arrival_ms // (1000 * bucket_seconds)."""
    if bucket_seconds <= 0:
        raise ValueError("bucket_seconds must be positive")
    span = 1000 * bucket_seconds
    return tuple(
        (req.arrival_ms // span, bid)
        for req in trace.requests
        for bid in req.block_ids
    )
