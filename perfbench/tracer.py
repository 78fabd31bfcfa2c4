"""Outside-in tracing: spans and counts recorded by wrapping the module
attributes that callers look up at call time.

A wrapped attribute (say ``crdd._kernels.rk4_evolve``) is replaced by a
function that opens a span, calls the original, closes the span and adds to
named counters.  Nothing inside the package changes, so spans sit at layer
boundaries only.  Spans are kept in memory as
``[name, start, end, parent, pass_id]`` records and written out at the end.

A target that does not exist (a later refactor deleted or renamed it) is not
an error: ``wrap`` returns False and every metric that depends only on missing
targets is reported as absent.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    """Span/counter recorder with attribute wrapping and restore."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, pass_id]
        self.counts = defaultdict(lambda: defaultdict(int))  # pass_id -> name -> value
        self.captured = defaultdict(lambda: defaultdict(list))  # pass_id -> kind -> values
        self.pass_id = None
        self._stack = []
        self._restore = []
        self.present = set()
        self.missing = set()

    # -- spans -------------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.pass_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name, value=1):
        self.counts[self.pass_id][name] += value

    def capture(self, kind, value):
        """Keep an output of the current pass for checks after the pass."""
        self.captured[self.pass_id][kind].append(value)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, module, attr, name, after=None):
        """Replace ``module.attr`` by a spanning wrapper.

        ``module`` is an importable module path; ``attr`` may be dotted
        (``SummaryTable.to_csv``) to reach a class attribute.  ``name`` is the
        span name, or a callable ``(args, kwargs) -> name``.  ``after`` is
        called as ``after(tracer, args, kwargs, result)`` once the span has
        closed, to add counts or capture outputs.  Returns False, and records
        the target as missing, when it does not exist.
        """
        key = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, last, None)
        if not callable(original):
            self.missing.add(key)
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = self.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, last, wrapper)
        self._restore.append((owner, last, original))
        self.present.add(key)
        return True

    def unwrap_all(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- analysis ----------------------------------------------------------
    def pass_spans(self, pass_id):
        """Spans of one pass, with parent indices re-pointed into the
        returned list (parents outside the pass become -1)."""
        picked = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        pos = {j: k for k, j in enumerate(picked)}
        return [[n, a, b, pos.get(p, -1), q]
                for n, a, b, p, q in (self.spans[i] for i in picked)]

    def dump(self, path, extra=None):
        doc = {"spans": [{"name": n, "start": a, "end": b, "parent": p, "pass": q}
                         for n, a, b, p, q in self.spans],
               "counts": {str(k): dict(v) for k, v in self.counts.items()},
               "missing_targets": sorted(self.missing)}
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Per-span self time: duration minus the part of the span's interval
    covered by its direct children (children clipped to the parent)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, a, b, _, _) in enumerate(spans):
        covered = [(max(a, spans[c][1]), min(b, spans[c][2])) for c in children[i]]
        covered = [(x, y) for x, y in covered if y > x]
        out.append((b - a) - _union_length(covered))
    return out


def nesting_excess(spans):
    """Largest amount by which the durations of a span's direct children
    exceed the span's own duration (0 when every span contains its
    children)."""
    child_sum = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_sum[s[3]] += s[2] - s[1]
    worst = 0.0
    for i, total in child_sum.items():
        worst = max(worst, total - (spans[i][2] - spans[i][1]))
    return worst


def span_totals(spans):
    """name -> (inclusive seconds, self seconds, calls) for a list of spans
    whose parent indices refer to positions in the same list."""
    selfs = self_times(spans)
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for s, st in zip(spans, selfs):
        agg = out[s[0]]
        agg[0] += s[2] - s[1]
        agg[1] += st
        agg[2] += 1
    return {k: tuple(v) for k, v in out.items()}
