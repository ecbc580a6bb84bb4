"""In-memory spans and counters for the traced run, written out at the end.

A span is (id, name, start, end, parent id, operation id, size).  Spans
are opened by the benchmark's own code around each call into a layer's
public function; refshift itself is not instrumented.  The untraced run
uses NullTracer, whose span() hands back one shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    on = False

    def op(self, op_id, kind):
        return _NULL

    def span(self, name, size=None):
        return _NULL

    def count(self, name, amount):
        pass


class _Span:
    __slots__ = ("tracer", "name", "size", "id", "parent", "start")

    def __init__(self, tracer, name, size):
        self.tracer = tracer
        self.name = name
        self.size = size

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans) + len(tr._stack)
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.id, self.name, self.start, end, self.parent, tr.op_id, self.size))
        return False


class Tracer:
    on = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.op_id = None

    def op(self, op_id, kind):
        self.op_id = op_id
        return _Span(self, "op." + kind, None)

    def span(self, name, size=None):
        return _Span(self, name, size)

    def count(self, name, amount):
        self.counts[name] += amount

    def busy(self):
        """name -> (calls, busy seconds, self seconds)."""
        child = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _, _, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return out

    def sized(self, name):
        return [(size, end - start) for _, n, start, end, _, _, size in self.spans
                if n == name and size]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op_id, size in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "size": size}) + "\n")


def fit_exponent(points):
    """Least-squares slope of log(time) on log(size): (exponent, lo, hi, samples)."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len(pts) < 3:
        return 0.0, 0, 0, len(pts)
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0, 0, 0, len(pts)
    slope = sum((x - mx) * (y - my) for x, y in pts) / sxx
    sizes = [s for s, _ in points]
    return slope, min(sizes), max(sizes), len(pts)
