"""Spans around the benchmark's calls into treetext.

Jobs call the library through ``tracer.call(name, fn, *args)``.  The
recording tracer keeps one span per call (name, start, end, parent span,
job id) in memory; the null tracer runs the same code path without
recording, so the two differ only by the cost of tracing itself.  Both
remember the innermost call that raised, which attributes a failed job
to a module.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class NullTracer:
    recording = False

    def __init__(self):
        self.failed_call = None
        self.job = 0

    def call(self, name, fn, *args):
        try:
            return fn(*args)
        except BaseException:
            if self.failed_call is None:
                self.failed_call = name
            raise

    def count(self, name, n):
        pass


class Tracer(NullTracer):
    recording = True

    def __init__(self):
        super().__init__()
        self.spans: "list[list]" = []  # [name, start, end, parent index, job]
        self.open: "list[int]" = []
        self.counts: Counter = Counter()

    def call(self, name, fn, *args):
        spans, open_ = self.spans, self.open
        index = len(spans)
        span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job]
        spans.append(span)
        open_.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args)
        except BaseException:
            if self.failed_call is None:
                self.failed_call = name
            raise
        finally:
            span[2] = perf_counter()
            open_.pop()

    def count(self, name, n):
        self.counts[name] += n


def self_times(spans) -> "dict[str, float]":
    """Total self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: "dict[str, float]" = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - child[i]
    return dict(totals)


def durations(spans, name) -> "list[float]":
    return [end - start for n, start, end, _, _ in spans if n == name]
