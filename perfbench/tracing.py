"""Spans and call capture around depthlab's public functions, from outside.

Nothing under src/ changes: a wrapper is swapped in for the module or class
attribute, and also for every depthlab module that imported the same
function by name (``gd`` and ``audit`` do this for ``mlp`` functions, and
``dists`` for ``boolfn.enumerate_signs``).  Leaving the ``patched`` block
restores every original.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import types
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def _sites(owner, attr):
    """Every (object, name) slot holding the function ``owner.attr``."""
    orig = vars(owner)[attr]
    sites = [(owner, attr)]
    if isinstance(owner, types.ModuleType):
        for name, mod in list(sys.modules.items()):
            if mod is owner or not name.startswith("depthlab"):
                continue
            sites += [(mod, k) for k, v in vars(mod).items() if v is orig]
    return orig, sites


@contextmanager
def patched(replacements):
    """Swap in ``make(original)`` for each (owner, attr, make) while inside."""
    saved = []
    try:
        for owner, attr, make in replacements:
            orig, sites = _sites(owner, attr)
            new = make(orig)
            for obj, name in sites:
                saved.append((obj, name, vars(obj)[name]))
                setattr(obj, name, new)
        yield
    finally:
        for obj, name, old in reversed(saved):
            setattr(obj, name, old)


def recorder(calls: list):
    """Wrapper factory appending (bound arguments, result) of each call."""

    def make(fn):
        sig = inspect.signature(fn)

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((sig.bind(*args, **kwargs).arguments, result))
            return result

        return recorded

    return make


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run: int     # one id per workload round
    attrs: dict  # counts taken from the call's arguments

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``run`` tags the spans of the current round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrapper(self, name, attrs=None):
        """Wrapper factory recording one span per call; ``attrs`` maps the
        bound arguments to counts kept on the span (rows, flops, ...)."""

        def make(fn):
            sig = inspect.signature(fn) if attrs else None

            def traced(*args, **kwargs):
                extra = attrs(sig.bind(*args, **kwargs).arguments) if attrs else {}
                parent = self._stack[-1] if self._stack else -1
                sid = len(self.spans)
                self.spans.append(None)
                self._stack.append(sid)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans[sid] = Span(name, start, end, parent, self.run, extra)

            return traced

        return make

    def dump(self) -> dict:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start", "end", "parent", "run", "attrs"],
            "spans": [[index[s.name], s.start, s.end, s.parent, s.run, s.attrs]
                      for s in self.spans],
        }


class SpanStats:
    """Per-name aggregates over the traced rounds.

    Totals and counts are per round, as the median over rounds; latency
    percentiles pool every call of every traced round.
    """

    def __init__(self, spans, runs):
        self.runs = list(runs)
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        self._rows = {}  # name -> run -> [count, total, self, attrs]
        self._durations = {}
        for i, s in enumerate(spans):
            row = self._rows.setdefault(s.name, {}).setdefault(s.run, [0, 0.0, 0.0, {}])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - child[i]
            for k, v in s.attrs.items():
                row[3][k] = row[3].get(k, 0) + v
            self._durations.setdefault(s.name, []).append(s.duration)

    def _per_run(self, names, pick):
        vals = []
        for run in self.runs:
            vals.append(sum(pick(self._rows[n][run]) for n in names
                            if run in self._rows.get(n, {})))
        return statistics.median(vals) if vals else 0.0

    def count(self, *names):
        return self._per_run(names, lambda r: r[0])

    def total(self, *names):
        return self._per_run(names, lambda r: r[1])

    def self_time(self, *names):
        return self._per_run(names, lambda r: r[2])

    def attr(self, key, *names):
        return self._per_run(names, lambda r: r[3].get(key, 0))

    def durations(self, *names):
        return sorted(d for n in names for d in self._durations.get(n, []))


def p50_and_tail(samples):
    """(median, tail, tail percentile): the tail is the highest percentile
    with at least TAIL_BEYOND samples beyond it, and 0 when there is none."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    p50 = statistics.median(xs)
    if n <= TAIL_BEYOND:
        return p50, 0.0, 0.0
    k = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return p50, xs[k - 1], 100.0 * k / n
