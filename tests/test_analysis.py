from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from kvcmeta import analysis
from kvcmeta.analysis import (
    DegenerateSequenceError,
    Run,
    hit_rate_cdf,
    nonseq_randomness_report,
    request_hit_rate,
    request_hit_rates,
    reuse_timeline,
    runs_test,
    segment_runs,
    sequential_fraction,
)
from kvcmeta.trace import Trace, TraceRequest

# Frozen before the implementation existed, from scipy.special.ndtr and
# cross-checked with statsmodels runstest_1samp (correction=False):
#   n1=n2=5, R=10 -> z=2.6832815729997477, p=0.007290358091535554
#   gaps (1,9)*8  -> n1=n2=8, R=16, p=0.0002913813578468982
ORACLE_Z_ALTERNATING = 2.6832815729997477
ORACLE_P_ALTERNATING = 0.007290358091535554
ORACLE_P_ALT_GAPS = 0.0002913813578468982


def _trace(rows):
    return Trace(tuple(TraceRequest(t, 1, 1, tuple(ids)) for t, ids in rows), label="t")


class TestRequestHitRate:
    def test_all_new(self):
        assert request_hit_rate([10, 11, 12], set()) == 0.0

    def test_fully_cached(self):
        assert request_hit_rate([10, 11, 12], {10, 11, 12}) == 1.0

    def test_partial(self):
        assert request_hit_rate([1, 2, 9], {1, 9}) == pytest.approx(2 / 3)

    def test_duplicates_count_once(self):
        assert request_hit_rate([1, 1, 2], {1}) == 0.5

    def test_empty_is_undefined(self):
        with pytest.raises(ValueError, match="undefined hit rate"):
            request_hit_rate([], {1})

    def test_does_not_mutate_seen(self):
        seen = {1}
        request_hit_rate([1, 2], seen)
        assert seen == {1}


class TestHitRateCdf:
    def test_two_identical_requests(self):
        cdf = hit_rate_cdf(_trace([(0, [1, 2]), (1, [1, 2])]))
        assert cdf == ((0.0, 0.5), (1.0, 1.0))

    def test_disjoint_requests_single_step(self):
        cdf = hit_rate_cdf(_trace([(0, [1]), (1, [2]), (2, [3])]))
        assert cdf == ((0.0, 1.0),)

    def test_fixture(self, fixture_trace):
        assert request_hit_rates(fixture_trace) == [0.0, 1.0, 1 / 6, 1.0, 0.0]
        cdf = hit_rate_cdf(fixture_trace)
        assert cdf == ((0.0, 0.4), (1 / 6, 0.6), (1.0, 1.0))

    def test_duplicates_within_request_do_not_self_hit(self):
        assert request_hit_rates(_trace([(0, [4, 4, 4])])) == [0.0]

    def test_empty_only_trace_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            hit_rate_cdf(_trace([(0, []), (1, [])]))

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_invariants(self, id_lists):
        cdf = hit_rate_cdf(_trace([(i, ids) for i, ids in enumerate(id_lists)]))
        hit_rates = [p[0] for p in cdf]
        cums = [p[1] for p in cdf]
        assert hit_rates == sorted(set(hit_rates))
        assert cums == sorted(cums)
        assert cums[-1] == 1.0
        assert all(0.0 <= h <= 1.0 for h in hit_rates)


def _reference_segment_runs(block_ids) -> list[Run]:
    """``segment_runs`` as a scan that extends each run while the next id is
    its predecessor + 1: the reference for the one-pass boundary search."""
    runs: list[Run] = []
    ids = list(block_ids)
    i = 0
    n = len(ids)
    while i < n:
        j = i + 1
        while j < n and ids[j] == ids[j - 1] + 1:
            j += 1
        runs.append(Run(ids[i], j - i))
        i = j
    return runs


# Id lists made of +1 runs, repeats and jumps, so runs of every length and
# their boundaries (including at both ends) occur often.
_run_heavy_ids = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**64 - 40), st.integers(min_value=1, max_value=6)),
    max_size=8,
).map(lambda parts: [start + i for start, length in parts for i in range(length)])


class TestSegmentRuns:
    @given(st.one_of(_run_heavy_ids, st.lists(st.integers(min_value=0, max_value=12), max_size=30)))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scan(self, ids):
        assert segment_runs(ids) == _reference_segment_runs(ids)
        assert segment_runs(tuple(ids)) == _reference_segment_runs(ids)

    def test_example(self):
        assert segment_runs([5, 6, 7, 42, 9, 10]) == [Run(5, 3), Run(42, 1), Run(9, 2)]

    def test_empty(self):
        assert segment_runs([]) == []

    def test_descending_ids_are_singletons(self):
        assert segment_runs([8, 7, 6]) == [Run(8, 1), Run(7, 1), Run(6, 1)]

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, ids):
        runs = segment_runs(ids)
        assert sum(r.length for r in runs) == len(ids)
        rebuilt = [r.start_id + i for r in runs for i in range(r.length)]
        assert rebuilt == ids
        # maximality: adjacent runs never merge
        pos = 0
        for prev, cur in zip(runs, runs[1:]):
            pos += prev.length
            assert ids[pos] != ids[pos - 1] + 1


class TestSequentialFraction:
    def test_example(self):
        assert sequential_fraction([5, 6, 7, 42, 9, 10]) == pytest.approx(5 / 6)

    def test_one_full_run(self):
        assert sequential_fraction([1, 2, 3, 4]) == 1.0

    def test_all_singletons(self):
        assert sequential_fraction([3, 9, 27]) == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            sequential_fraction([])

    def test_fixture_average(self, fixture_trace):
        rows = analysis.sequential_fractions(fixture_trace)
        assert [(i, t) for i, t, _ in rows] == [(0, 0), (1, 1000), (2, 2000), (3, 3000), (5, 62000)]
        fractions = [f for _, _, f in rows]
        assert fractions == [0.75, 0.75, 5 / 6, 2 / 3, 1.0]
        assert sum(fractions) / len(fractions) == pytest.approx(0.8)

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, ids):
        f = sequential_fraction(ids)
        assert 0.0 <= f <= 1.0
        lengths = [r.length for r in segment_runs(ids)]
        if all(l >= 2 for l in lengths):
            assert f == 1.0
        if all(l == 1 for l in lengths):
            assert f == 0.0


class TestRunsTest:
    def test_perfect_alternation_matches_frozen_oracle(self):
        stat = runs_test([0, 1] * 5)
        assert stat.n1 == stat.n2 == 5
        assert stat.runs == 10
        assert stat.z == pytest.approx(ORACLE_Z_ALTERNATING, abs=1e-12)
        assert stat.p_value == pytest.approx(ORACLE_P_ALTERNATING, abs=1e-12)
        assert abs(stat.p_value - 0.0073) < 0.001

    def test_mean_case_p_is_exactly_one(self):
        # n1=n2=5, R=6 equals the expectation 1 + 2*25/10
        stat = runs_test([0, 0, 1, 1, 0, 0, 1, 1, 0, 1])
        assert stat.runs == 6
        assert stat.z == 0.0
        assert stat.p_value == 1.0

    def test_single_category_degenerate(self):
        with pytest.raises(DegenerateSequenceError):
            runs_test(["a"] * 10)

    def test_too_short_degenerate(self):
        with pytest.raises(DegenerateSequenceError):
            runs_test([0, 1, 0, 1])

    def test_three_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct symbols"):
            runs_test([0, 1, 2] * 4)

    def test_symmetry_around_mean(self):
        # sequences with n1=n2=5 and R = 6 +/- d must yield equal p-values
        def seq_with_runs(r):
            # r runs over 5 zeros and 5 ones, built deterministically
            groups_a, groups_b = (r + 1) // 2, r // 2
            out = []
            za = _split(5, groups_a)
            zb = _split(5, groups_b)
            for i in range(max(groups_a, groups_b)):
                if i < groups_a:
                    out.extend([0] * za[i])
                if i < groups_b:
                    out.extend([1] * zb[i])
            return out

        def _split(total, groups):
            base = total // groups
            rest = total - base * groups
            return [base + (1 if i < rest else 0) for i in range(groups)]

        for d in (1, 2, 3, 4):
            lo = runs_test(seq_with_runs(6 - d))
            hi = runs_test(seq_with_runs(6 + d))
            assert lo.runs == 6 - d and hi.runs == 6 + d
            assert abs(lo.p_value - hi.p_value) < 1e-12

    def test_phi_against_scipy(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        for x in [-8.0, -3.2, -1.0, -0.1, 0.0, 0.5, 1.96, 2.6832815729997477, 7.5]:
            assert analysis._phi(x) == pytest.approx(float(ndtr(x)), abs=1e-12)

    @given(st.lists(st.sampled_from([0, 1]), min_size=8, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_stat_invariants(self, seq):
        if len(set(seq)) < 2:
            with pytest.raises(DegenerateSequenceError):
                runs_test(seq)
            return
        stat = runs_test(seq)
        assert 1 <= stat.runs <= stat.n1 + stat.n2
        assert 0.0 <= stat.p_value <= 1.0
        if stat.z == 0.0:
            assert stat.p_value == 1.0


class TestNonseqRandomnessReport:
    def test_constant_gaps_all_tie_and_skip(self):
        # one id non-sequentially accessed at every request: gaps all 1
        rows = [(i * 1000, [500]) for i in range(12)]
        rep = nonseq_randomness_report(_trace(rows))
        assert rep.tested == 0
        assert rep.skipped == 1
        assert rep.fraction_random is None

    def test_alternating_gaps_fail_randomness(self):
        # id 777 occurs (as a singleton run) at ordinals with gaps 1,9,1,9,...
        ordinals = [0]
        for gap in [1, 9] * 8:
            ordinals.append(ordinals[-1] + gap)
        occ = set(ordinals)
        rows = [(i * 1000, [777] if i in occ else []) for i in range(max(occ) + 1)]
        rep = nonseq_randomness_report(_trace(rows))
        assert rep.tested == 1
        assert rep.stats[777].p_value == pytest.approx(ORACLE_P_ALT_GAPS, abs=1e-12)
        assert rep.stats[777].p_value < 0.05
        assert rep.fraction_random == 0.0

    def test_sequential_positions_are_excluded(self):
        # runs of length >= 2 contribute no non-sequential occurrences
        rows = [(i * 1000, [10, 11, 12]) for i in range(20)]
        rep = nonseq_randomness_report(_trace(rows))
        assert rep.tested == 0 and rep.skipped == 0

    def test_below_min_occurrences_skipped(self, fixture_trace):
        rep = nonseq_randomness_report(fixture_trace)
        # non-seq ids: 7 (x2), 42, 9 -> all below 8 occurrences
        assert rep.tested == 0
        assert rep.skipped == 3

    def test_per_request_median_mode(self):
        # a request with >= 8 non-sequential ids alternating low/high
        ids = [10, 900, 20, 910, 30, 920, 40, 930, 50, 940]
        rep = nonseq_randomness_report(_trace([(0, ids)]), mode="per_request_median")
        assert rep.tested == 1
        assert 0 in rep.stats
        assert rep.stats[0].p_value < 0.05  # strict alternation is non-random

    def test_per_request_median_skips_small_requests(self):
        rep = nonseq_randomness_report(_trace([(0, [5, 100, 7])]), mode="per_request_median")
        assert rep.tested == 0
        assert rep.skipped == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            nonseq_randomness_report(_trace([(0, [1])]), mode="bogus")


class TestReuseTimeline:
    def test_single_bucket(self):
        tl = reuse_timeline(_trace([(0, [1, 2])]))
        assert tl == ((0, 1), (0, 2))

    def test_bucket_floor_division(self):
        tl = reuse_timeline(_trace([(61_000, [5])]), bucket_seconds=60)
        assert tl == ((1, 5),)

    def test_fixture_points(self, fixture_trace):
        tl = reuse_timeline(fixture_trace)
        assert tl[:4] == ((0, 1), (0, 2), (0, 3), (0, 7))
        assert tl[-2:] == ((1, 100), (1, 101))
        assert len(tl) == 19

    def test_bad_bucket(self):
        with pytest.raises(ValueError):
            reuse_timeline(_trace([(0, [1])]), bucket_seconds=0)


def test_analysis_is_deterministic(fixture_trace):
    a = nonseq_randomness_report(fixture_trace)
    b = nonseq_randomness_report(fixture_trace)
    assert a.stats == b.stats and a.tested == b.tested and a.skipped == b.skipped
    assert hit_rate_cdf(fixture_trace) == hit_rate_cdf(fixture_trace)
