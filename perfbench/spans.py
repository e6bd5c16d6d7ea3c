"""In-memory span recording and self-time analysis.

A span is one call of a wrapped function: name, layer, start, end, the
span that was open on the same thread when it started (its parent), the
thread, and a few measured attributes such as CG iterations.  Each thread
keeps its own stack of open spans, so spans of worker threads nest under
the worker's own spans and never under a span of another thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.layer, self.start, self.end,
                self.parent, self.thread, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans of wrapped functions; safe to use from many threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, measure=None):
        """Return `fn` wrapped in a span.

        `measure(args, kwargs)`, if given, runs before the call and returns
        `(args, kwargs, finish)`; `finish(result)` returns the span's
        attributes.  Spans are recorded even when the call raises.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = None
            if measure is not None:
                args, kwargs, finish = measure(args, kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, layer, start, end, parent,
                                       threading.get_ident(), {"raised": 1}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = finish(result) if finish is not None else {}
            self.spans.append(Span(sid, name, layer, start, end, parent,
                                   threading.get_ident(), attrs))
            return result

        return wrapper


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children are spans whose parent is the span, which by construction run
    on the same thread.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - _union_length(
                [(c.start, c.end) for c in children.get(s.id, ())],
                s.start, s.end)
            for s in spans}


def root_coverage(spans: list[Span], thread: int, lo: float,
                  hi: float) -> float:
    """Time in [lo, hi] that root spans of one thread cover."""
    return _union_length([(s.start, s.end) for s in spans
                          if s.thread == thread and s.parent is None], lo, hi)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
