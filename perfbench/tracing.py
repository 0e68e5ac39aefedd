"""In-memory span tracer that wraps layer functions from outside the program.

A span records its name, start, end, parent span and the operation it
belongs to. Wrappers go on the module or instance attribute through which
the program looks a function up, so no file under ``src/`` changes, and
they are removed again when the traced operation ends.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT_SPAN = "bench.op"
_ABSENT = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `clock` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []
        self._op = None

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent,
                               self._op))
        self._stack.append(index)
        return self.spans[index]

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr, name, hook=None):
        """Replace `owner.attr` by a traced call; `hook(span, args, result)`
        may attach counts to the span after the call returns."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(span, args, result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    @contextmanager
    def operation(self, op, install):
        """Trace one operation under a root span; `install(tracer)` puts the
        wrappers in place and they are removed on exit."""
        self._op = op
        try:
            install(self)
            root = self.open(ROOT_SPAN)
            try:
                yield
            finally:
                self.close(root)
        finally:
            self.restore()
            self._op = None

    def to_rows(self):
        """Spans as plain rows, for writing out when the run ends."""
        return [[s.name, s.start, s.end, s.parent, s.op, s.attrs]
                for s in self.spans]


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their sum
    is the part of the parent's interval they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


class SpanStats:
    """Per-operation aggregates over the spans of the given operations.

    Totals are taken per operation and reported as the median across
    operations; per-call figures are the median over every call.
    """

    def __init__(self, spans, ops):
        self.ops = list(ops)
        wanted = set(self.ops)
        self._calls = defaultdict(lambda: defaultdict(int))
        self._incl = defaultdict(lambda: defaultdict(float))
        self._self = defaultdict(lambda: defaultdict(float))
        self._attrs = defaultdict(lambda: defaultdict(float))
        self._per_call = defaultdict(list)
        self._call_attrs = defaultdict(list)
        for span, own in zip(spans, self_times(spans)):
            if span.op not in wanted:
                continue
            self._calls[span.name][span.op] += 1
            self._incl[span.name][span.op] += span.duration
            self._self[span.name][span.op] += own
            self._per_call[span.name].append(span.duration)
            for key, value in span.attrs.items():
                self._attrs[(span.name, key)][span.op] += value
                self._call_attrs[(span.name, key)].append(value)

    def _median_over_ops(self, table):
        if not self.ops:
            return 0.0
        return float(statistics.median(table.get(op, 0) for op in self.ops))

    def calls(self, name):
        return self._median_over_ops(self._calls[name])

    def seconds(self, name):
        return self._median_over_ops(self._incl[name])

    def self_seconds(self, name):
        return self._median_over_ops(self._self[name])

    def attr_total(self, name, key):
        return self._median_over_ops(self._attrs[(name, key)])

    def call_ms(self, name):
        samples = self._per_call[name]
        return 1000.0 * statistics.median(samples) if samples else 0.0

    def call_attr(self, name, key):
        samples = self._call_attrs[(name, key)]
        return float(statistics.median(samples)) if samples else 0.0

    def sum_seconds(self, name):
        return sum(self._incl[name].values())

    def sum_attr(self, name, key):
        return sum(self._attrs[(name, key)].values())
