"""The smoothed descent's gap stop."""

import numpy as np

from trigcert.descent import GAP_EVERY, smoothed_descent


def quadratic():
    """sum (x - 1)^2 + mu, minimized at x = 1 with value mu."""
    def objective(x, mu):
        return float(np.sum((x - 1.0) ** 2)) + mu

    def gradient(x, mu):
        return 2.0 * (x - 1.0)

    return objective, gradient


def test_certified_start_takes_no_step():
    objective, gradient = quadratic()
    x0 = np.array([3.0, -2.0])
    calls = []

    def gap(x, mu):
        calls.append((x, mu))
        return 1.0, 1.0

    x, trace, stages = smoothed_descent(x0, objective, gradient,
                                        stall_rel=1e-12, gap=gap)
    assert x is x0 and np.array_equal(x0, [3.0, -2.0])
    assert trace == []
    assert stages == [{"mu": 1e-2, "steps": 0, "stop": "gap"}]
    assert len(calls) == 1 and calls[0][0] is x0 and calls[0][1] == 1e-2


def test_uncertified_start_descends_as_without_a_hook():
    # a gap that never closes is checked at the start and every GAP_EVERY
    # steps, and leaves the path bit for bit that of the hook-less descent
    objective, gradient = quadratic()
    x0 = np.array([3.0, -2.0])
    calls = []

    def gap(x, mu):
        calls.append(mu)
        return 0.0, 1.0

    x, trace, stages = smoothed_descent(x0, objective, gradient,
                                        stall_rel=1e-12, gap=gap)
    x_ref, trace_ref, stages_ref = smoothed_descent(x0, objective, gradient,
                                                    stall_rel=1e-12)
    assert np.array_equal(x, x_ref) and trace == trace_ref
    assert stages == stages_ref
    assert calls[0] == 1e-2
    assert len(calls) == 1 + sum(s["steps"] // GAP_EVERY for s in stages)
