from __future__ import annotations

import gzip
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from kvcmeta.trace import (
    BLOCK_ID_MAX,
    Trace,
    TraceParseError,
    TraceRequest,
    load_trace,
    parse_trace,
    save_trace,
    serialize_trace,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_parse_single_record():
    data = b'{"timestamp":0,"input_length":2048,"output_length":128,"hash_ids":[1,2,3,4]}'
    t = parse_trace(data)
    assert len(t.requests) == 1
    req = t.requests[0]
    assert req.arrival_ms == 0
    assert req.input_len == 2048
    assert req.output_len == 128
    assert req.block_ids == (1, 2, 3, 4)


def test_parse_empty_hash_ids_accepted():
    t = parse_trace(b'{"timestamp":3,"input_length":1,"output_length":1,"hash_ids":[]}')
    assert t.requests[0].block_ids == ()


def test_parse_rebases_to_zero():
    data = (
        b'{"timestamp":5000,"input_length":1,"output_length":1,"hash_ids":[1]}\n'
        b'{"timestamp":7000,"input_length":1,"output_length":1,"hash_ids":[2]}\n'
    )
    t = parse_trace(data)
    assert [r.arrival_ms for r in t.requests] == [0, 2000]


def test_parse_sorts_out_of_order_with_warning_counter():
    data = (
        b'{"timestamp":10,"input_length":1,"output_length":1,"hash_ids":[1]}\n'
        b'{"timestamp":5,"input_length":2,"output_length":1,"hash_ids":[2]}\n'
        b'{"timestamp":5,"input_length":3,"output_length":1,"hash_ids":[3]}\n'
    )
    t = parse_trace(data)
    assert t.out_of_order == 1
    assert [r.arrival_ms for r in t.requests] == [0, 0, 5]
    # stable: the two timestamp-5 records keep their source order
    assert [r.input_len for r in t.requests] == [2, 3, 1]


def test_parse_preserves_duplicate_ids_and_order():
    t = parse_trace(b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":[9,9,3,4]}')
    assert t.requests[0].block_ids == (9, 9, 3, 4)


@pytest.mark.parametrize(
    "line,fragment",
    [
        (b"not json at all", "invalid JSON"),
        (b"[1,2,3]", "not a JSON object"),
        (b'{"timestamp":0,"input_length":1,"hash_ids":[]}', "output_length"),
        (b'{"timestamp":-1,"input_length":1,"output_length":1,"hash_ids":[]}', "negative"),
        (b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":[-4]}', "negative"),
        (b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":[1.5]}', "non-integer"),
        (b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":[true]}', "non-integer"),
        (b'{"timestamp":true,"input_length":1,"output_length":1,"hash_ids":[]}', "not an integer"),
        (b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":"x"}', "not an array"),
        (b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":[18446744073709551616]}', "64-bit"),
    ],
)
def test_parse_malformed_record_names_line(line, fragment):
    good = b'{"timestamp":0,"input_length":1,"output_length":1,"hash_ids":[1]}\n'
    with pytest.raises(TraceParseError) as exc:
        parse_trace(good + line)
    assert "line 2" in str(exc.value)
    assert fragment in str(exc.value)


def test_parse_empty_stream_is_an_error():
    for data in (b"", b"\n\n  \n"):
        with pytest.raises(TraceParseError, match="empty trace"):
            parse_trace(data)


def test_serialize_empty_trace_is_empty_bytes():
    assert serialize_trace(Trace(())) == b""


def test_serialize_golden_fixture(fixture_trace):
    with open(os.path.join(GOLDEN, "fixture6.jsonl"), "rb") as fh:
        golden = fh.read()
    assert serialize_trace(fixture_trace) == golden


def test_serialize_is_deterministic_and_injective(fixture_trace):
    a = serialize_trace(fixture_trace)
    assert a == serialize_trace(fixture_trace)
    other = Trace(fixture_trace.requests[:-1], label=fixture_trace.label)
    assert serialize_trace(other) != a


def test_round_trip_fixture(fixture_trace):
    data = serialize_trace(fixture_trace)
    again = parse_trace(data, label=fixture_trace.label)
    assert again == fixture_trace


def test_trace_rejects_unsorted_requests():
    with pytest.raises(ValueError, match="sorted"):
        Trace((TraceRequest(5, 1, 1, ()), TraceRequest(0, 1, 1, ())))


def test_load_save_gzip_round_trip(tmp_path, fixture_trace):
    path = str(tmp_path / "t.jsonl.gz")
    save_trace(fixture_trace, path)
    with gzip.open(path, "rb") as fh:
        assert fh.read() == serialize_trace(fixture_trace)
    again = load_trace(path)
    assert again.label == "t.jsonl.gz"
    assert again.requests == fixture_trace.requests


def test_load_save_plain_round_trip(tmp_path, fixture_trace):
    path = str(tmp_path / "t.jsonl")
    save_trace(fixture_trace, path)
    assert load_trace(path).requests == fixture_trace.requests


_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),  # arrival gap
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=1 << 20),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=8),
    ),
    min_size=1,
    max_size=20,
)


@st.composite
def traces(draw) -> Trace:
    rows = draw(_requests)
    arrival = 0
    reqs = []
    for gap, inp, out, ids in rows:
        arrival += gap if reqs else 0  # first request at 0, as parse guarantees
        reqs.append(TraceRequest(arrival, inp, out, tuple(ids)))
    return Trace(tuple(reqs), label="gen")


@given(traces())
@settings(max_examples=200, deadline=None)
def test_round_trip_property(trace):
    again = parse_trace(serialize_trace(trace), label="gen")
    assert again == trace


@given(traces())
@settings(max_examples=50, deadline=None)
def test_parse_output_sorted_and_rebased(trace):
    again = parse_trace(serialize_trace(trace), label="gen")
    arrivals = [r.arrival_ms for r in again.requests]
    assert arrivals == sorted(arrivals)
    assert arrivals[0] == 0


# --- reference codec ----------------------------------------------------------
# The per-id validation walk and the json.dumps serializer that parse_trace
# and serialize_trace replaced with C-level checks and a join; kept as the
# reference both must match byte for byte and error for error.


def _reference_uint(record: dict, name: str, line_no: int) -> int:
    if name not in record:
        raise TraceParseError(f"missing field {name!r}", line_no)
    value = record[name]
    if type(value) is not int:
        raise TraceParseError(f"field {name!r} is not an integer: {value!r}", line_no)
    if value < 0:
        raise TraceParseError(f"field {name!r} is negative: {value}", line_no)
    return value


def _reference_parse_trace(data, label: str = "") -> Trace:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    rows = []
    out_of_order = 0
    prev_ts = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        if not isinstance(record, dict):
            raise TraceParseError("record is not a JSON object", line_no)
        ts = _reference_uint(record, "timestamp", line_no)
        input_len = _reference_uint(record, "input_length", line_no)
        output_len = _reference_uint(record, "output_length", line_no)
        raw_ids = record.get("hash_ids")
        if raw_ids is None:
            raise TraceParseError("missing field 'hash_ids'", line_no)
        if not isinstance(raw_ids, list):
            raise TraceParseError("field 'hash_ids' is not an array", line_no)
        ids = []
        for v in raw_ids:
            if type(v) is not int:
                raise TraceParseError(f"non-integer block id: {v!r}", line_no)
            if v < 0:
                raise TraceParseError(f"negative block id: {v}", line_no)
            if v > BLOCK_ID_MAX:
                raise TraceParseError(f"block id out of 64-bit range: {v}", line_no)
            ids.append(v)
        if prev_ts is not None and ts < prev_ts:
            out_of_order += 1
        prev_ts = ts
        rows.append((ts, TraceRequest(ts, input_len, output_len, tuple(ids))))
    if not rows:
        raise TraceParseError("empty trace")
    rows.sort(key=lambda row: row[0])
    base = rows[0][0]
    requests = tuple(
        TraceRequest(ts - base, r.input_len, r.output_len, r.block_ids) for ts, r in rows
    )
    return Trace(requests, label=label, out_of_order=out_of_order)


def _reference_serialize_trace(trace: Trace) -> bytes:
    out = []
    for r in trace.requests:
        out.append(
            '{"timestamp":%d,"input_length":%d,"output_length":%d,"hash_ids":%s}\n'
            % (r.arrival_ms, r.input_len, r.output_len,
               json.dumps(list(r.block_ids), separators=(",", ":")))
        )
    return "".join(out).encode("utf-8")


@given(traces())
@settings(max_examples=200, deadline=None)
def test_serialize_matches_json_dumps_reference(trace):
    assert serialize_trace(trace) == _reference_serialize_trace(trace)


_valid_ids = st.lists(st.integers(min_value=0, max_value=BLOCK_ID_MAX), max_size=8)
_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # timestamps may regress and tie
        st.integers(min_value=0, max_value=1 << 20),
        _valid_ids,
        st.booleans(),  # an extra field, which parse ignores
        st.booleans(),  # a blank line before the record
        st.sampled_from(["", " ", "\t", " \r"]),  # whitespace around the record
    ),
    min_size=1,
    max_size=12,
)


def _record_line(ts, inp, ids, extra=False) -> str:
    record = {"timestamp": ts, "input_length": inp, "output_length": 1, "hash_ids": ids}
    if extra:
        record["flag"] = True
    return json.dumps(record)


@given(_records, st.booleans())
@settings(max_examples=200, deadline=None)
def test_parse_matches_reference(records, as_bytes):
    lines = []
    for ts, inp, ids, extra, blank, pad in records:
        if blank:
            lines.append("  ")
        lines.append(pad + _record_line(ts, inp, ids, extra) + pad)
    text = "\n".join(lines)
    data = text.encode("utf-8") if as_bytes else text
    got = parse_trace(data, label="gen")
    want = _reference_parse_trace(data, label="gen")
    assert got == want
    assert got.requests == want.requests
    assert got.out_of_order == want.out_of_order


_bad_ids = st.one_of(
    st.booleans(),
    st.floats(),  # NaN and infinities too: json.dumps writes NaN/Infinity, which json.loads reads
    st.integers(max_value=-1),
    st.integers(min_value=BLOCK_ID_MAX + 1, max_value=2**70),
)


@given(
    st.lists(_valid_ids, max_size=4),
    _valid_ids,
    _bad_ids,
    st.lists(st.one_of(st.integers(min_value=0, max_value=BLOCK_ID_MAX), _bad_ids), max_size=4),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_bad_block_id_error_matches_reference(good_lines, prefix, bad, suffix, extra):
    """A record whose ids are valid up to one bad id: the error names the
    same id and line as the per-id walk, whatever follows it."""
    lines = [_record_line(i, 1, ids) for i, ids in enumerate(good_lines)]
    lines.append(_record_line(len(lines), 1, [*prefix, bad, *suffix], extra))
    data = "\n".join(lines).encode("utf-8")
    with pytest.raises(TraceParseError) as want:
        _reference_parse_trace(data)
    with pytest.raises(TraceParseError) as got:
        parse_trace(data)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"line {len(lines)}: ")


def _outcome(parse, data):
    try:
        trace = parse(data)
    except TraceParseError as exc:
        return ("error", str(exc))
    return ("trace", trace.requests, trace.out_of_order)


@given(
    st.lists(_valid_ids, max_size=3),
    _valid_ids,
    st.integers(min_value=0, max_value=200),
    st.sampled_from(["", "x", " {}", ",", "]", "\ufeff", "\ufeff "]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_broken_json_line_matches_reference(good_lines, ids, cut, junk, junk_first):
    """A record line cut short, or with junk before or after it, parses or
    fails exactly as ``json.loads`` of each line does."""
    lines = [_record_line(i, 1, ids_) for i, ids_ in enumerate(good_lines)]
    line = _record_line(len(lines), 1, ids)[:cut]
    lines.append(junk + line if junk_first else line + junk)
    data = "\n".join(lines).encode("utf-8")
    assert _outcome(parse_trace, data) == _outcome(_reference_parse_trace, data)
