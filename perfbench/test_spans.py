"""Self-test of the span arithmetic and the operator_eig `.computed` count.

    python3 -m pytest perfbench/test_spans.py
"""

import threading

from spans import Span, Tracer, pass_metrics, self_times


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_nested_self_times_sum_to_the_root():
    # run [0, 10] > check [1, 9] > (heat [2, 5], assemble [6, 7])
    tr = Tracer(clock=ScriptedClock([0, 1, 2, 5, 6, 7, 9, 10]))
    run = tr.open("cli", "cli.report_s@self")
    check = tr.open("diagnose", "scenarios.check_s.conservation@total")
    heat = tr.open("evolve", "evolve.heat_evolve.chebyshev_s@self")
    tr.close(heat)
    asm = tr.open("grid", "grid.assemble_s@self")
    tr.close(asm)
    tr.close(check)
    tr.close(run)
    assert [s.parent for s in tr.spans] == [None, run.id, check.id, check.id]
    assert self_times(tr.spans) == {run.id: 2, check.id: 4, heat.id: 3, asm.id: 1}
    m = pass_metrics(tr.spans, {"grid.assemble.calls": 1})
    assert m["cli.report_s"] == 2
    assert m["scenarios.check_s.conservation"] == 8  # inclusive
    assert m["diagnose.self_s"] == 4
    assert m["evolve.heat_evolve.chebyshev_s"] == 3
    assert m["grid.assemble.calls"] == 1
    assert sum(m[f"{layer}.self_s"] for layer in ("cli", "diagnose", "evolve", "grid")) == 10


def test_concurrent_children_are_subtracted_once():
    parent = Span(0, None, "scenarios", "scenarios.run_checks_s@total", 0.0)
    parent.t1 = 10.0
    spans = [parent]
    for sid, (t0, t1) in enumerate([(1.0, 6.0), (2.0, 8.0), (9.5, 12.0)], start=1):
        child = Span(sid, 0, "diagnose", "scenarios.check_s.structure@total", t0)
        child.t1 = t1
        spans.append(child)
    selfs = self_times(spans)
    # union of [1, 6], [2, 8] and the clipped [9.5, 10] covers 7.5 of 10
    assert abs(selfs[0] - 2.5) < 1e-12
    m = pass_metrics(spans, {})
    assert abs(m["scenarios.check_s.structure"] - 13.5) < 1e-12  # 5 + 6 + 2.5
    assert abs(m["scenarios.run_checks_s"] - 10.0) < 1e-12
    assert abs(m["scenarios.self_s"] - 2.5) < 1e-12


def test_worker_thread_span_is_caused_by_the_open_main_span():
    tr = Tracer()
    outer = tr.open("scenarios", "scenarios.run_checks_s@total")
    seen = []

    def job():
        span = tr.open("diagnose", "scenarios.check_s.structure@total")
        seen.append(span.parent)
        tr.close(span)

    t = threading.Thread(target=job)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tr.close(outer)
    assert seen == [outer.id]


class FakeOperator:
    size = 7


def test_computed_counts_calls_that_overlap_an_unreturned_call():
    tr = Tracer()
    gate = threading.Barrier(2, timeout=10)

    def decompose(op, wait):
        if wait:
            gate.wait()  # both threads are inside before either returns
        return "eig"

    wrapped = tr.eig_wrapper(decompose)
    op, other = FakeOperator(), FakeOperator()
    threads = [threading.Thread(target=wrapped, args=(op, True)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert tr.counts["evolve.operator_eig.computed"] == 2

    assert wrapped(op, False) == "eig"  # after a call returned: a cache hit
    assert tr.counts["evolve.operator_eig.computed"] == 2
    wrapped(other, False)
    assert tr.counts == {
        "evolve.operator_eig.calls": 4,
        "evolve.operator_eig.computed": 3,
        "evolve.operator_eig.size": 21,
    }
    assert len(tr.spans) == 4
