"""Span arithmetic of the benchmark: self time, coverage and pool utilisation.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import threading

import pytest

from spans import (
    Span,
    Tracer,
    busy_time,
    coverage,
    pool_utilisation,
    self_time,
    self_times,
    union_length,
)

MAIN, WORKER_A, WORKER_B = 1, 2, 3


def span(sid, name, start, end, parent=None, thread=MAIN):
    return Span(sid, name, float(start), float(end), parent, thread)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 2), (2, 3)]) == 3
    assert union_length([(0, 10)], 2, 5) == 3
    assert union_length([(0, 1)], 2, 5) == 0
    assert union_length([]) == 0


def test_self_time_of_nested_spans():
    # stage [0, 10] > apply [1, 7] > kernel [2, 5]; io [8, 9] directly in stage
    spans = [
        span(0, "cli.simulate", 0, 10),
        span(1, "channel.apply_channel", 1, 7, parent=0),
        span(2, "kernels.synthesize_paths", 2, 5, parent=1),
        span(3, "io.atomic_write", 8, 9, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 10 - 6 - 1, 1: 6 - 3, 2: 3, 3: 1}
    assert self_time(spans, "channel.apply_channel", selfs) == 3
    # self times of a tree add up to the root's duration
    assert sum(selfs.values()) == 10


def test_self_time_sums_over_calls():
    spans = [
        span(0, "sbl.sbl_fit", 0, 4),
        span(1, "sbl.peak_select_2d", 1, 2, parent=0),
        span(2, "sbl.sbl_fit", 5, 8),
        span(3, "sbl.peak_select_2d", 6, 6.5, parent=2),
    ]
    assert self_time(spans, "sbl.sbl_fit") == pytest.approx(3 + 2.5)


def test_two_threads_at_once():
    # analyze stage [0, 10] on the main thread; a two-worker pool runs
    # windows on threads A and B that overlap in time
    stage = span(0, "cli.analyze", 0, 10)
    jobs = [
        span(1, "cli.analyze_window", 1, 5, thread=WORKER_A),
        span(2, "cli.analyze_window", 2, 6, thread=WORKER_B),
        span(3, "cli.analyze_window", 5, 9, thread=WORKER_A),
    ]
    fits = [
        span(4, "sbl.sbl_fit", 1, 4, parent=1, thread=WORKER_A),
        span(5, "sbl.sbl_fit", 2, 5, parent=2, thread=WORKER_B),
        span(6, "sbl.sbl_fit", 6, 8, parent=3, thread=WORKER_A),
    ]
    spans = [stage, *jobs, *fits]

    # busy time adds threads: [1,4]+[6,8] on A and [2,5] on B
    assert busy_time(spans, "sbl.sbl_fit") == 3 + 2 + 3
    # coverage is the union over threads: windows cover [1, 9]
    assert coverage(jobs, stage.start, stage.end) == pytest.approx(0.8)
    # 12 job-seconds over a capacity of 2 workers x 10 s
    assert pool_utilisation(jobs, stage.start, stage.end, 2) == pytest.approx(0.6)
    # one worker would have been busy 120 % of the time: the pool overlapped
    assert pool_utilisation(jobs, 0, 10, 1) == pytest.approx(1.2)
    # self time of each window excludes only its own thread's child
    selfs = self_times(spans)
    assert (selfs[1], selfs[2], selfs[3]) == (1, 1, 2)


def test_pool_utilisation_clips_to_the_stage():
    jobs = [span(1, "cli.analyze_window", -2, 3, thread=WORKER_A)]
    assert pool_utilisation(jobs, 0, 10, 1) == pytest.approx(0.3)
    assert pool_utilisation(jobs, 5, 5, 1) == 0.0


def test_tracer_records_parents_per_thread():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "layer.inner", lambda a, k, r: {"n": r})
    traced_outer = tracer.wrap(lambda x: traced_inner(x) * 2, "layer.outer")

    assert traced_outer(1) == 4
    worker = threading.Thread(target=traced_inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["layer.outer"][0]
    nested, threaded = sorted(by_name["layer.inner"], key=lambda s: s.start)
    assert nested.parent == outer.sid and nested.thread == outer.thread
    assert nested.work == {"n": 2}
    assert threaded.parent is None and threaded.thread != outer.thread
    assert outer.start <= nested.start <= nested.end <= outer.end


def test_tracer_keeps_span_of_a_call_that_raises():
    tracer = Tracer()

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fails, "layer.fails", lambda a, k, r: {"n": 1})()
    (s,) = tracer.spans
    assert s.name == "layer.fails" and s.work is None
