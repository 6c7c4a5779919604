"""CSV artifacts, SVG charts, and run manifests.

CSV is the authoritative output format; headers are fixed and byte-exact.
A file whose rows have a type takes its header from that type's fields
(``IntervalRow``, ``NormalizedRow``, ``LatencyRecord``), and each row is
written as it is; the other files name their columns in one header
constant. Charts are written as self-contained SVG with no plotting
dependency: the layout is stable for a given input but not guaranteed
bit-identical across tool versions. Every command records a RunManifest
next to its outputs with enough context (arguments, config snapshot, input
digest) to re-run the exact experiment.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

from . import __version__
from .analysis import RunsTestReport
from .bench import IntervalRow, IntervalStats, LatencyLog, LatencyRecord, NormalizedRow

HIT_RATE_CDF_HEADER = "hit_rate,cum_fraction"
SEQ_FRACTION_HEADER = "request_index,arrival_ms,fraction"
RUNS_TEST_HEADER = "key_or_request,p_value,n1,n2,runs"
REUSE_TIMELINE_HEADER = "bucket_s,block_id"
LATENCY_LOG_HEADER = ",".join(f.name for f in fields(LatencyRecord))
INTERVAL_STATS_HEADER = ",".join(IntervalRow._fields)
NORMALIZED_HEADER = ",".join(NormalizedRow._fields)


def _fmt(x) -> str:
    return "nan" if x is None else str(x)


def _write_rows(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_rows(path: str, header: str, types) -> list[tuple]:
    """The rows of a CSV file under ``header``, column i converted by
    ``types[i]``; blank lines are skipped. A wrong header, or a row with the
    wrong number of columns or a value its converter rejects, raises
    ValueError naming ``path:line``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise ValueError(f"{path}:1: unexpected header {found!r}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            try:
                if len(parts) != len(types):
                    raise ValueError(f"expected {len(types)} columns, got {len(parts)}")
                rows.append(tuple(convert(v) for convert, v in zip(types, parts)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return rows


def write_hit_rate_cdf(path: str, points: tuple[tuple[float, float], ...]) -> None:
    _write_rows(path, HIT_RATE_CDF_HEADER, points)


def read_hit_rate_cdf(path: str) -> tuple[tuple[float, float], ...]:
    """Load a hit_rate_cdf.csv produced by write_hit_rate_cdf."""
    return tuple(_read_rows(path, HIT_RATE_CDF_HEADER, (float, float)))


def write_seq_fraction(path: str, rows) -> None:
    """rows: (request_index, arrival_ms, fraction) per non-empty request."""
    _write_rows(path, SEQ_FRACTION_HEADER, rows)


def write_runs_test(path: str, report: RunsTestReport) -> None:
    rows = [
        (key, stat.p_value, stat.n1, stat.n2, stat.runs)
        for key, stat in sorted(report.stats.items())
    ]
    _write_rows(path, RUNS_TEST_HEADER, rows)


def write_reuse_timeline(path: str, points: tuple[tuple[int, int], ...]) -> None:
    _write_rows(path, REUSE_TIMELINE_HEADER, points)


def write_latency_log(path: str, log: LatencyLog) -> None:
    _write_rows(path, LATENCY_LOG_HEADER, log.rows())


def write_interval_stats(path: str, stats: IntervalStats) -> None:
    _write_rows(path, INTERVAL_STATS_HEADER, stats.rows)


def write_normalized(path: str, rows: list[NormalizedRow]) -> None:
    """An undefined ratio (None) is written as ``nan``."""
    _write_rows(path, NORMALIZED_HEADER, rows)


def read_interval_stats(path: str) -> IntervalStats:
    """Load an interval_stats.csv produced by write_interval_stats; the file
    records neither the interval nor the warm-up, so both load as None."""
    rows = _read_rows(path, INTERVAL_STATS_HEADER, (int, str, int, int, int))
    return IntervalStats(None, None, [IntervalRow(*row) for row in rows])


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to re-run the experiment that produced an output dir."""

    command_line: list[str]
    config: dict
    trace_label: str
    trace_sha256: str | None
    backend: str | None
    started_at: str
    finished_at: str
    version: str = __version__
    aborted: bool = False

    def write(self, out_dir: str, name: str = "manifest.json") -> None:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# --- SVG rendering -----------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 36, 48


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt_tick(v: float) -> str:
    if abs(v - round(v)) < 1e-9:
        return str(int(round(v)))
    return f"{v:.3g}"


def svg_line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
    x_domain: tuple[float, float] | None = None,
    step: bool = False,
) -> str:
    """A fixed-layout multi-series line chart. Series points must be sorted
    by x. ``step`` renders right-continuous steps (for CDFs)."""
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = x_domain if x_domain else (min(xs), max(xs))
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]
    for tv in _ticks(x_lo, x_hi):
        x = px(tv)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_MT + plot_h}" stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_MT + plot_h + 16}" text-anchor="middle">{_fmt_tick(tv)}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        y = py(tv)
        out.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_ML + plot_w}" y2="{y:.1f}" stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(tv)}</text>'
        )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#444"/>'
    )
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 10}" text-anchor="middle">{_esc(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">{_esc(y_label)}</text>'
    )

    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords: list[str] = []
        prev_y: float | None = None
        for x, y in pts:
            if step and prev_y is not None:
                coords.append(f"{px(x):.1f},{py(prev_y):.1f}")
            coords.append(f"{px(x):.1f},{py(y):.1f}")
            prev_y = y
        if coords:
            out.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 14 + 14 * idx
        out.append(
            f'<line x1="{_ML + plot_w - 120}" y1="{ly - 4}" x2="{_ML + plot_w - 100}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{_ML + plot_w - 94}" y="{ly}">{_esc(label)}</text>')

    out.append("</svg>\n")
    return "\n".join(out)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_cdf_chart(points) -> str:
    """Step CDF over the hit-rate domain [0, 1]."""
    pts = [(0.0, 0.0)] + [(float(h), float(c)) for h, c in points]
    return svg_line_chart(
        [("cdf", pts)],
        "Block hit rate CDF",
        "hit rate",
        "cumulative fraction",
        x_domain=(0.0, 1.0),
        step=True,
    )
