import threading

import pytest

from layers import LAYERS, Patch, layer_metrics
from run import _coverage_problems
from spans import Span, Tracer, percentile, self_times

MAIN, WORKER = 1, 2


def patches_for(spans, kinds=None):
    """A patch per span name, as if each span came from a wrapped name."""
    kinds = kinds or {}
    return tuple(Patch(s.name, s.layer, kinds.get(s.name, ())) for s in spans)


def synthetic_spans():
    """Main thread: R [0, 10] > C1 [1, 3], C2 [4, 8] > G [5, 6].
    Worker thread: W [2, 9] > X [3, 4], a root of its own thread although
    R is open on the main thread at the time."""
    return [
        Span(0, "R", "cli", 0.0, 10.0, None, MAIN),
        Span(1, "C1", "fem", 1.0, 3.0, 0, MAIN),
        Span(2, "C2", "perturb", 4.0, 8.0, 0, MAIN),
        Span(3, "G", "fem", 5.0, 6.0, 2, MAIN),
        Span(4, "W", "uq", 2.0, 9.0, None, WORKER),
        Span(5, "X", "fem", 3.0, 4.0, 4, WORKER),
    ]


def test_self_time_on_two_thread_tree():
    got = self_times(synthetic_spans())
    assert got == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0,
                                 4: 6.0, 5: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "P", "cli", 0.0, 10.0, None, MAIN),
             Span(1, "A", "fem", 1.0, 5.0, 0, MAIN),
             Span(2, "B", "fem", 3.0, 12.0, 0, MAIN)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_self_times_and_remainder_add_up():
    spans = synthetic_spans()
    wall = 12.0  # main thread traced from 0 to 12, outside R for 2 s
    m = layer_metrics(spans, patches_for(spans), MAIN, wall, threads=2)
    assert m["fem.self_s"][0] == pytest.approx(4.0)
    assert m["trace.remainder_s"][0] == pytest.approx(2.0)
    assert m["trace.worker_s"][0] == pytest.approx(7.0)
    total = sum(m[f"{layer}.self_s"][0] for layer in LAYERS
                if m[f"{layer}.self_s"][0] is not None)
    assert total + m["trace.remainder_s"][0] == pytest.approx(wall + 7.0)
    # No span of these layers or kinds was recorded, so they are absent.
    assert m["lowrank.self_s"][0] is None
    assert m["fem.solve_calls"][0] is None


def test_coverage_check_needs_spans_over_the_run():
    spans = synthetic_spans()
    patches = patches_for(spans)
    # R covers 10 s of the main thread: 2 s outside it fails, 0.2 s passes.
    assert _coverage_problems(layer_metrics(spans, patches, MAIN, 12.0, 2))
    assert not _coverage_problems(layer_metrics(spans, patches, MAIN, 10.2, 2))
    # A traced wall time shorter than the spans cannot be right either.
    assert _coverage_problems(layer_metrics(spans, patches, MAIN, 9.0, 2))


def test_worker_busy_frac_and_pairs():
    kinds = {"D": ("dispatch",), "T": ("task",), "S": ("sample",)}
    spans = [
        Span(0, "D", "uq", 0.0, 10.0, None, MAIN),
        Span(1, "T", "uq", 0.0, 10.0, None, WORKER),
        Span(2, "T", "uq", 0.0, 5.0, None, 3),
        Span(3, "S", "fields", 0.0, 0.5, 1, WORKER),
        Span(4, "S", "fields", 4.0, 4.5, 1, WORKER),
        Span(5, "solve", "fem", 5.0, 7.0, 1, WORKER),
    ]
    m = layer_metrics(spans, patches_for(spans, kinds), MAIN, 10.0, threads=2)
    assert m["cli.worker_busy_frac"][0] == pytest.approx(15.0 / 20.0)
    # draw at 0 -> next draw at 4; last draw at 4 -> last sibling ends at 7
    assert m["perturb.pair_ms_p50"][0] == pytest.approx(3500.0)
    assert m["perturb.pair_ms_p90"][0] == pytest.approx(4000.0)


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner", "fem")
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(timeout=10)
        inner()

    outer = tracer.wrap(hold, "outer", "cli")
    worker = threading.Thread(target=tracer.wrap(
        lambda: (started.wait(timeout=10), inner(), release.set()),
        "task", "uq"))
    worker.start()
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()

    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            assert by_id[s.parent].thread == s.thread
    roots = sorted(s.name for s in tracer.spans if s.parent is None)
    assert roots == ["outer", "task"]


def test_tracer_records_spans_that_raise():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", "fem")()
    assert [(s.name, s.attrs) for s in tracer.spans] == [("boom", {"raised": 1})]


def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile([7.0], 90) == 7.0
