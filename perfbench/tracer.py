"""In-memory span recorder used by the traced run.

A span is (name, start, end, parent, request ordinal). Spans are recorded
from the benchmark's own files around calls into the package's public
functions: a proxy backend wraps the store or remote client, and
``patched`` swaps module-level functions for timing wrappers. Columns live
in ``array`` buffers so a run of a million spans stays a few tens of MB, and
the buffers are written to disk once, when the run ends.

The recorder keeps one span stack per process, so spans must be opened from
one thread at a time; every caller in this benchmark is a single-worker
closed loop, and the traced server serves one connection.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter_ns

_COLUMNS = ("name", "start", "end", "parent", "ordinal")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.ordinal = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, ordinal: int = -1) -> int:
        """Open a span; a child inherits its parent's ordinal when given -1."""
        idx = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if ordinal < 0 and parent >= 0:
            ordinal = self.ordinal[parent]
        self.name.append(nid)
        self.parent.append(parent)
        self.ordinal.append(ordinal)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def dump(self, path: str) -> None:
        """One JSON header line (names, span count), then the five columns."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self)}).encode() + b"\n")
            for col in _COLUMNS:
                getattr(self, col).tofile(fh)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                tracer.name_id(name)
            for col in _COLUMNS:
                getattr(tracer, col).fromfile(fh, header["spans"])
        return tracer

    def _selected(self, windows) -> list[int]:
        """Indexes of spans that start inside one of the sorted, disjoint
        (start, end) windows; every span when windows is None."""
        if windows is None:
            return list(range(len(self)))
        lows = [w[0] for w in windows]
        out = []
        for i, s in enumerate(self.start):
            w = bisect_right(lows, s) - 1
            if w >= 0 and s <= windows[w][1]:
                out.append(i)
        return out

    def self_times(self, windows=None) -> dict[str, tuple[int, int]]:
        """name -> (span count, total self ns) over the selected spans. Self
        time is a span's duration minus the durations of its direct
        children, which nest without overlap because every span is opened
        and closed on one stack."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        for i in self._selected(windows):
            nid = self.name[i]
            count[nid] += 1
            total[nid] += dur[i] - child[i]
        return {name: (count[i], total[i]) for i, name in enumerate(self.names)}

    def durations(self, nid: int, windows=None) -> list[int]:
        return [self.end[i] - self.start[i] for i in self._selected(windows)
                if self.name[i] == nid]


class TracedBackend:
    """Backend proxy that opens one span per put/get/scan.

    ``ordinals`` maps the proxy's call sequence to request ordinals (the
    closed loop issues ops in stream order); without it the call sequence
    number itself is recorded, and the reader maps it back.
    """

    def __init__(self, inner, tracer: Tracer, layer: str, ordinals=None):
        self._inner = inner
        self._tracer = tracer
        self._ordinals = ordinals
        self._seq = 0
        self._get = tracer.name_id(f"{layer}.get")
        self._scan = tracer.name_id(f"{layer}.scan")
        self._put = tracer.name_id(f"{layer}.put")

    def _next_ordinal(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        if self._ordinals is None:
            return seq
        return self._ordinals[seq] if seq < len(self._ordinals) else -1

    def get(self, key):
        idx = self._tracer.begin(self._get, self._next_ordinal())
        try:
            return self._inner.get(key)
        finally:
            self._tracer.finish(idx)

    def scan(self, start, end_exclusive, max_results=None):
        idx = self._tracer.begin(self._scan, self._next_ordinal())
        try:
            return self._inner.scan(start, end_exclusive, max_results)
        finally:
            self._tracer.finish(idx)

    def put(self, key, value):
        idx = self._tracer.begin(self._put, self._next_ordinal())
        try:
            return self._inner.put(key, value)
        finally:
            self._tracer.finish(idx)

    def delete(self, key):
        return self._inner.delete(key)

    def stats(self):
        return self._inner.stats()


@contextmanager
def patched(module, names, tracer: Tracer, prefix: str, counters: dict | None = None):
    """Replace ``module.<name>`` with a traced wrapper for the duration.

    Callers that look the function up on the module at call time (as
    ``service`` does with ``protocol``) go through the wrapper.
    ``counters`` maps a name to a [calls, bytes] list updated with the
    size of each call's frame (``len`` of the result, or of a read_frame
    payload plus its 5-byte header).
    """
    saved = {name: getattr(module, name) for name in names}
    for name, fn in saved.items():
        if counters is not None and name in counters:
            fn = _counting(fn, counters[name])
        setattr(module, name, tracer.wrap(fn, f"{prefix}.{name}"))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _counting(fn, tally: list):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        if out is not None:
            tally[0] += 1
            tally[1] += len(out) if isinstance(out, bytes) else 5 + len(out[1])
        return out

    return counted
