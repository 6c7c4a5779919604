"""CSV layouts of the result files: headers named by their row types, exact
bytes where a cell is undefined, and write-then-read round trips."""

from __future__ import annotations

import dataclasses

from kvcmeta import report
from kvcmeta.analysis import hit_rate_cdf
from kvcmeta.bench import (
    INSERT,
    POINT_GET,
    RANGE_SCAN,
    IntervalRow,
    IntervalStats,
    LatencyRecord,
    NormalizedRow,
    normalize,
)


def _stats(cells):
    return IntervalStats(60, 600, [IntervalRow(idx, kind, 10, p99, p99)
                                   for (idx, kind), p99 in sorted(cells.items())])


def test_each_header_is_its_row_types_fields():
    assert (report.INTERVAL_STATS_HEADER, report.NORMALIZED_HEADER,
            report.LATENCY_LOG_HEADER) == (
        ",".join(IntervalRow._fields),
        ",".join(NormalizedRow._fields),
        ",".join(f.name for f in dataclasses.fields(LatencyRecord)),
    )


def test_normalized_csv_bytes_with_an_undefined_cell(tmp_path):
    base = _stats({(10, POINT_GET): 0, (10, RANGE_SCAN): 40, (11, POINT_GET): 8})
    ours = _stats({(10, POINT_GET): 5, (10, RANGE_SCAN): 10, (11, POINT_GET): 12})
    path = tmp_path / "normalized.csv"
    report.write_normalized(str(path), normalize(ours, base).rows)
    assert path.read_bytes() == (
        b"interval_index,op_kind,ratio\n"
        b"10,point_get,nan\n"
        b"10,range_scan,0.25\n"
        b"11,point_get,1.5\n"
    )


def test_interval_stats_round_trip(tmp_path):
    stats = IntervalStats(60, 600, [
        IntervalRow(2, INSERT, 1, 42, 42),
        IntervalRow(2, POINT_GET, 2, 7, 11),
        IntervalRow(4, RANGE_SCAN, 3, 300, 2**33),
    ])
    path = str(tmp_path / "interval_stats.csv")
    report.write_interval_stats(path, stats)
    loaded = report.read_interval_stats(path)
    assert loaded.rows == stats.rows
    assert (loaded.interval_s, loaded.warmup_s) == (None, None)  # the file records neither


def test_hit_rate_cdf_round_trip(tmp_path, fixture_trace):
    points = hit_rate_cdf(fixture_trace)  # holds 1/6, which needs every digit
    path = str(tmp_path / "hit_rate_cdf.csv")
    report.write_hit_rate_cdf(path, points)
    assert report.read_hit_rate_cdf(path) == points
