"""Span recording and span arithmetic for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
``time.perf_counter`` clock, the span that was open on the same thread when
it started (its parent), the thread it ran on and an optional work record
(counts taken from the call's arguments or result).  Spans are kept in
memory and written once, when the traced command has finished.

The arithmetic below works on plain intervals so that it can be tested
without running the program.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables so that each call appends one :class:`Span`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, func, name: str, work=None):
        """Return ``func`` wrapped in a span called ``name``.

        ``work(args, kwargs, result)`` may return a dict of counts stored
        with the span; it is evaluated after the call returns.  A call that
        raises still records its span, without counts.
        """
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            returned = False
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = work(args, kwargs, result) if returned and work else None
                spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), counts)
                )

        return traced


# -- interval arithmetic ---------------------------------------------------------


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def busy_time(spans, names) -> float:
    """Thread-seconds spent inside spans called any of ``names``.

    Overlapping spans of one thread (a function nested in another of the
    set) count once; spans on different threads add up, so two threads
    busy at once count twice.
    """
    names = {names} if isinstance(names, str) else set(names)
    per_thread = defaultdict(list)
    for s in spans:
        if s.name in names:
            per_thread[s.thread].append((s.start, s.end))
    return float(sum(union_length(iv) for iv in per_thread.values()))


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus what its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children[s.sid], s.start, s.end)
        for s in spans
    }


def self_time(spans, name: str, selfs: dict[int, float] | None = None) -> float:
    """Summed self time of every span called ``name``."""
    if selfs is None:
        selfs = self_times(spans)
    return float(sum(selfs[s.sid] for s in spans if s.name == name))


def coverage(spans, lo: float, hi: float) -> float:
    """Share of the wall interval [lo, hi] covered by any span, any thread."""
    if hi <= lo:
        return 0.0
    return union_length(((s.start, s.end) for s in spans), lo, hi) / (hi - lo)


def pool_utilisation(job_spans, lo: float, hi: float, workers: int) -> float:
    """Job thread-seconds inside [lo, hi] over the capacity ``workers * (hi - lo)``."""
    if hi <= lo or workers < 1:
        return 0.0
    busy = sum(max(0.0, min(s.end, hi) - max(s.start, lo)) for s in job_spans)
    return busy / (workers * (hi - lo))
