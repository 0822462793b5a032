"""In-memory spans around the benchmark's calls into rowpress.

A span is (name, id, parent, req, start_ns, end_ns); spans of one
request share `req`.  Spans are kept in memory and written only when
the run ends.  The probe binary records spans in the same shape, and
`merge` folds them in under a parent span of this process.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder."""

    def __init__(self):
        self.spans = []
        self._next = 0
        self._origin = time.perf_counter_ns()

    def now(self):
        return time.perf_counter_ns() - self._origin

    def at(self, t_perf):
        """A time.perf_counter() reading on this tracer's clock."""
        return int(t_perf * 1e9) - self._origin

    def start(self, name, parent=0, req=0):
        """Open a span; returns the handle end() closes."""
        self._next += 1
        return {"name": name, "id": self._next, "parent": parent,
                "req": req, "start_ns": self.now(), "end_ns": None}

    def end(self, span, end_ns=None):
        span["end_ns"] = self.now() if end_ns is None else end_ns
        self.spans.append(span)

    @contextmanager
    def span(self, name, parent=0, req=0):
        handle = self.start(name, parent, req)
        try:
            yield handle
        finally:
            self.end(handle)

    def merge(self, spans, parent):
        """Adopt spans recorded elsewhere (ids renumbered, roots under
        the handle `parent`, times shifted to start at its start)."""
        base = self._next
        shift = parent["start_ns"]
        for s in spans:
            self.spans.append({
                "name": s["name"], "id": base + s["id"],
                "parent": base + s["parent"] if s["parent"] else parent["id"],
                "req": s["req"], "start_ns": s["start_ns"] + shift,
                "end_ns": s["end_ns"] + shift})
            self._next = max(self._next, base + s["id"])


def span_cost_ns(n=20000, rounds=5):
    """ns to open and close one span on a Tracer (median of rounds)."""
    per = []
    for _ in range(rounds):
        scratch = Tracer()
        t0 = time.perf_counter_ns()
        for i in range(n):
            scratch.end(scratch.start("api.submit", 1, i))
        per.append((time.perf_counter_ns() - t0) / n)
    return sorted(per)[rounds // 2]


def duration_ns(span):
    return span["end_ns"] - span["start_ns"]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover (children that run in
    parallel are counted once).  Returns {span id: ns}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {s["id"]: duration_ns(s) - _covered(children[s["id"]],
                                               s["start_ns"], s["end_ns"])
            for s in spans}


def self_ms_by_name(spans):
    """Total self time per span name, in ms."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += own[s["id"]] / 1e6
    return dict(sorted(out.items()))


def durations_ms(spans, name):
    return [duration_ns(s) / 1e6 for s in spans if s["name"] == name]
