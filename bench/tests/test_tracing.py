import numpy as np

import tracing
from tracing import Span, Tracer


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > main [1, 9] > a [2, 5] > b [3, 4];  main > a [6, 8]
    spans = [Span("op", 0, 10, -1), Span("main", 1, 9, 0), Span("a", 2, 5, 1),
             Span("b", 3, 4, 2), Span("a", 6, 8, 1)]
    selfs = tracing.self_times(spans)
    assert selfs == {"op": 2, "main": 3, "a": 4, "b": 1}
    assert sum(selfs.values()) == 10
    assert tracing.call_counts(spans) == {"op": 1, "main": 1, "a": 2, "b": 1}


def test_tracer_records_nested_spans_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x, k=2: x * k, lambda a, r: ("work", a["k"]))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x, k=3))
    with tracer.span("op"):
        assert outer(1) == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("op", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    assert tracer.counts == {"inner.work": 5}
    assert tracing.self_times(tracer.spans)["inner"] == 2


def test_install_wraps_every_binding_and_uninstall_restores():
    from trigcert import cli, gridcert, principal
    from trigcert.trigpoly import TrigPoly
    originals = (TrigPoly.eval_at, gridcert.superlevel_arcs, principal.superlevel_arcs)
    tracer = Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert principal.superlevel_arcs is gridcert.superlevel_arcs
        assert principal.superlevel_arcs is not originals[1]
        TrigPoly.cosine(1).eval_at(np.zeros(7))
        metrics = tracing.layer_metrics(tracer)
        assert metrics["trigpoly.TrigPoly.eval_at.points"] == 7
        assert metrics["trigpoly.TrigPoly.eval_at.calls"] == 1
        assert "helson.extension_probe.iterations" not in metrics
    finally:
        uninstall()
    assert (TrigPoly.eval_at, gridcert.superlevel_arcs, principal.superlevel_arcs) == originals
    assert cli.run_principal is principal.run_principal
