"""The smoothed descent's gap stop and the certificate it returns."""

import numpy as np
import pytest

from trigcert import CertificateError
from trigcert.descent import GAP_FIRST, smoothed_descent


def quadratic():
    """sum (x - 1)^2 + mu, minimized at x = 1 with value mu."""
    def objective(x, mu):
        return float(np.sum((x - 1.0) ** 2)) + mu

    def gradient(x, mu):
        return 2.0 * (x - 1.0)

    return objective, gradient


def smoothed_l1():
    """sum w sqrt((x - a)^2 + mu^2): badly scaled, so the spectral steps
    overshoot and backtracking has work to do."""
    a = np.array([1.0, -2.0, 0.5, 3.0])
    w = np.array([1.0, 30.0, 0.2, 5.0])

    def objective(x, mu):
        return float(np.sum(w * np.sqrt((x - a) ** 2 + mu * mu)))

    def gradient(x, mu):
        return w * (x - a) / np.sqrt((x - a) ** 2 + mu * mu)

    return objective, gradient


def test_certified_start_takes_no_step():
    objective, gradient = quadratic()
    x0 = np.array([3.0, -2.0])
    calls = []

    def gap(x, mu):
        calls.append((x, mu))
        return 1.0, 1.0, x

    x, bracket, stages = smoothed_descent(x0, objective, gradient,
                                          stall_rel=1e-12, gap=gap)
    assert x is x0 and np.array_equal(x0, [3.0, -2.0])
    assert bracket == (1.0, 1.0)
    assert stages == [{"mu": 1e-2, "steps": 0, "stop": "gap"}]
    assert len(calls) == 1 and calls[0][0] is x0 and calls[0][1] == 1e-2


def test_uncertified_start_descends_as_without_a_hook():
    # a gap that never closes is checked at the start, after GAP_FIRST,
    # 2 GAP_FIRST, 4 GAP_FIRST, ... steps of each stage and once at exit,
    # and leaves the path bit for bit that of the hook-less descent
    objective, gradient = quadratic()
    x0 = np.array([3.0, -2.0])
    calls = []

    def gap(x, mu):
        calls.append(mu)
        return 0.0, 1.0, x

    x, _, stages = smoothed_descent(x0, objective, gradient,
                                    stall_rel=1e-12, gap=gap)
    x_ref, bracket_ref, stages_ref = smoothed_descent(x0, objective, gradient,
                                                      stall_rel=1e-12)
    assert np.array_equal(x, x_ref) and bracket_ref is None
    assert stages == stages_ref
    assert calls[0] == 1e-2 and calls[-1] == stages[-1]["mu"]
    # (steps // GAP_FIRST).bit_length() counts the j with GAP_FIRST 2^j <= steps
    assert len(calls) == 2 + sum((s["steps"] // GAP_FIRST).bit_length()
                                 for s in stages)


def test_gap_schedule_doubles_in_each_stage():
    # -sum(x) has no minimum and a constant gradient: every step of length
    # 1 is accepted, so each stage runs to the 5000-step cap, where the
    # doubling schedule makes 9 checks
    def objective(x, mu):
        return -float(np.sum(x))

    steps = []  # the mu of each iteration

    def gradient(x, mu):
        steps.append(mu)
        return -np.ones_like(x)

    calls = []

    def gap(x, mu):
        calls.append((mu, steps.count(mu)))
        return 0.0, 1.0, x

    _, _, stages = smoothed_descent(np.zeros(2), objective, gradient,
                                    stall_rel=1e-12, gap=gap)
    mus = (1e-2, 1e-4, 1e-8)
    assert stages == [{"mu": mu, "steps": 5000, "stop": "cap"} for mu in mus]
    assert calls == ([(1e-2, 0)]
                     + [(mu, 10 * 2**j) for mu in mus for j in range(9)]
                     + [(1e-8, 5000)])


def test_exit_check_point_and_bracket_are_returned():
    # no check closes, so the certificate is the exit check's: its point,
    # which need not be the iterate, and its bracket
    objective, gradient = smoothed_l1()
    x0 = np.zeros(4)
    checks = []

    def gap(x, mu):
        y = x.copy()
        checks.append((x, mu, y))
        return 0.5 * len(checks), 1e6, y

    y, bracket, stages = smoothed_descent(x0, objective, gradient,
                                          stall_rel=1e-12, gap=gap)
    x_end, _, stages_ref = smoothed_descent(x0, objective, gradient,
                                            stall_rel=1e-12)
    assert stages == stages_ref and "gap" not in [s["stop"] for s in stages]
    x, mu, y_last = checks[-1]
    assert y is y_last and np.array_equal(x, x_end)
    assert mu == stages[-1]["mu"]
    assert bracket == (0.5 * len(checks), 1e6)


def test_dual_an_ulp_above_hi_is_capped():
    objective, gradient = quadratic()
    x0 = np.array([3.0, -2.0])
    hi = 2.0
    lo = hi * (1.0 + 1e-13)
    _, bracket, _ = smoothed_descent(x0, objective, gradient, stall_rel=1e-12,
                                     gap=lambda x, mu: (lo, hi, x))
    assert bracket == (hi, hi)


def test_dual_far_above_hi_raises():
    objective, gradient = quadratic()
    x0 = np.array([3.0, -2.0])
    hi = 2.0
    lo = hi * (1.0 + 1e-11)
    with pytest.raises(CertificateError) as info:
        smoothed_descent(x0, objective, gradient, stall_rel=1e-12,
                         gap=lambda x, mu: (lo, hi, x))
    assert info.value.name == "gap-dual"
    assert (info.value.lhs, info.value.rhs) == (lo, hi)


def test_objective_never_increases_over_accepted_points():
    # the gradient is taken once an iteration, at the point the last step
    # accepted (or the stage's start), so the objective read there traces
    # the accepted points; a lower mu only lowers it
    objective, gradient = smoothed_l1()
    seen = []

    def recorded(x, mu):
        seen.append(objective(x, mu))
        return gradient(x, mu)

    _, bracket, stages = smoothed_descent(np.zeros(4), objective, recorded,
                                          stall_rel=1e-12)
    assert bracket is None
    assert sum(s["steps"] for s in stages) > 20
    assert len(seen) >= sum(s["steps"] for s in stages)
    assert (np.diff(seen) <= 0.0).all()
