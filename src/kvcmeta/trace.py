"""Trace data model and canonical JSON-Lines serialization.

A trace is an ordered stream of inference requests, each carrying an arrival
timestamp (milliseconds, rebased so the first request arrives at 0), token
lengths, and the ordered list of logical block ids the request touches.

The on-disk format is UTF-8 JSON Lines, one object per line, with exactly the
fields ``timestamp``, ``input_length``, ``output_length`` and ``hash_ids``
(matching the public Mooncake trace release). Unknown extra fields are
ignored on input and never written on output. Files ending in ``.gz`` are
transparently gzip-compressed.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass, field

BLOCK_ID_MAX = 2**64 - 1

_FIELDS = ("timestamp", "input_length", "output_length", "hash_ids")

# A record that fills its whole line decodes to what json.loads gives,
# without json.loads's whitespace and BOM checks, about half its time on a
# short record.
_decode_prefix = json.JSONDecoder().raw_decode


class TraceParseError(ValueError):
    """A trace stream could not be parsed; the message names its 1-based line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TraceRequest:
    """One serving request: arrival time plus its ordered block-id list.

    ``block_ids`` order is significant and preserved verbatim from the
    source; duplicates are kept (consumers decide what to do with them).
    An empty ``block_ids`` is legal and contributes no metadata operations.
    """

    arrival_ms: int
    input_len: int
    output_len: int
    block_ids: tuple[int, ...]


@dataclass(frozen=True)
class Trace:
    """An immutable, arrival-ordered request stream.

    ``out_of_order`` counts source records whose timestamp regressed relative
    to the previous record; it is diagnostic only and excluded from equality.
    """

    requests: tuple[TraceRequest, ...]
    label: str = ""
    out_of_order: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        prev = None
        for req in self.requests:
            if prev is not None and req.arrival_ms < prev:
                raise ValueError("trace requests must be sorted by arrival_ms")
            prev = req.arrival_ms

    def __len__(self) -> int:
        return len(self.requests)


def _require_uint(record: dict, name: str, line_no: int) -> int:
    if name not in record:
        raise TraceParseError(f"missing field {name!r}", line_no)
    value = record[name]
    # bool is an int subclass; JSON true/false must not slip through.
    if type(value) is not int:
        raise TraceParseError(f"field {name!r} is not an integer: {value!r}", line_no)
    if value < 0:
        raise TraceParseError(f"field {name!r} is negative: {value}", line_no)
    return value


def parse_trace(data: bytes | str, label: str = "") -> Trace:
    """Parse newline-delimited JSON records into a Trace.

    Records are stably sorted by timestamp (so equal-timestamp requests keep
    source order) and timestamps are rebased so the first request arrives at
    0. Out-of-order source records are tolerated and counted, not rejected.

    Raises TraceParseError naming the offending line for malformed records,
    and with message "empty trace" when the stream holds no records.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data

    rows: list[tuple[int, int, int, tuple[int, ...]]] = []
    out_of_order = 0
    prev_ts: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record, end = _decode_prefix(line)
        except json.JSONDecodeError:
            end = -1
        if end != len(line):
            # Whitespace around the record, extra data or invalid JSON:
            # json.loads accepts the first and names the others.
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        if not isinstance(record, dict):
            raise TraceParseError("record is not a JSON object", line_no)

        ts = _require_uint(record, "timestamp", line_no)
        input_len = _require_uint(record, "input_length", line_no)
        output_len = _require_uint(record, "output_length", line_no)
        raw_ids = record.get("hash_ids")
        if raw_ids is None:
            raise TraceParseError("missing field 'hash_ids'", line_no)
        if not isinstance(raw_ids, list):
            raise TraceParseError("field 'hash_ids' is not an array", line_no)
        for v in raw_ids:
            if type(v) is not int:
                raise TraceParseError(f"non-integer block id: {v!r}", line_no)
            if v < 0:
                raise TraceParseError(f"negative block id: {v}", line_no)
            if v > BLOCK_ID_MAX:
                raise TraceParseError(f"block id out of 64-bit range: {v}", line_no)

        if prev_ts is not None and ts < prev_ts:
            out_of_order += 1
        prev_ts = ts
        rows.append((ts, input_len, output_len, tuple(raw_ids)))

    if not rows:
        raise TraceParseError("empty trace")

    rows.sort(key=lambda row: row[0])  # stable: ties keep source order
    base = rows[0][0]
    requests = tuple(TraceRequest(ts - base, inp, out, ids) for ts, inp, out, ids in rows)
    return Trace(requests, label=label, out_of_order=out_of_order)


def serialize_trace(trace: Trace) -> bytes:
    """Serialize to canonical JSON Lines: fixed field order, no extra
    whitespace, one record per line. Bit-identical for equal traces."""
    return "".join(
        '{"timestamp":%d,"input_length":%d,"output_length":%d,"hash_ids":[%s]}\n'
        % (r.arrival_ms, r.input_len, r.output_len, ",".join(map(str, r.block_ids)))
        for r in trace.requests
    ).encode("utf-8")


def load_trace(path: str) -> Trace:
    """Read a trace file (gzip when the name ends in .gz); label = file name."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        data = fh.read()
    return parse_trace(data, label=os.path.basename(path))


def save_trace(trace: Trace, path: str) -> None:
    """Write canonical JSON Lines (gzip when the name ends in .gz)."""
    data = serialize_trace(trace)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(data)
