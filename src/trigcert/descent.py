"""Smoothed first-order minimizer shared by the extension probe and the
multiplier search: Barzilai-Borwein spectral steps (Barzilai & Borwein
1988) safeguarded by monotone backtracking, on an objective smoothed by
mu and solved again as mu decreases.  It also owns both callers'
certificate: it checks their gap hook, a [dual, primal] bracket of the
unsmoothed minimum and the point of its primal end, stops once the
bracket is within GAP_REL, and returns the last check's point and
bracket under one roundoff rule for a dual above the primal.
"""

import numpy as np

from .errors import CertificateError

GAP_FIRST = 10  # a stage's gap checks come after 10, 20, 40, ... steps
GAP_REL = 1e-5  # the descent ends once hi - lo <= GAP_REL * lo


def _straight_line(x, g):
    return lambda t: x - t * g


def smoothed_descent(x0, objective, gradient, stall_rel: float,
                     line=_straight_line, gap=None):
    """Minimize objective(x, mu) from x0 for mu = 1e-2, 1e-4, 1e-8, each
    stage warm started at the last.

    A stage ends after 5000 iterations, when backtracking drives the step
    to 1e-14, or after 50 consecutive iterations whose relative decrease
    is below stall_rel.  gradient(x, mu) may be projected onto the tangent
    space of constraints; x0 is not modified.  line(x, g) returns the map
    t -> x - t g that gives every backtrack's trial point; a caller that
    can update what its objective needs along the line, more cheaply than
    from scratch at each trial, passes its own.

    gap(x, mu), when given, returns (lo, hi, y): a bracket of the
    unsmoothed minimum and the point y whose value is hi, x itself or a
    better point the hook found.  It is checked at x0 with mu = 1e-2,
    after GAP_FIRST, 2 GAP_FIRST, 4 GAP_FIRST, ... accepted steps of each
    stage (9 checks in a stage at the cap) and, when no check has closed,
    once at the exit point with the last stage's mu.  The doubling
    schedule ends a stage soon after its bracket closes, yet keeps the
    checks few where a hook is dear and a stage runs long.  Once
    hi - lo <= GAP_REL * lo the whole descent ends there: no later stage
    can improve on a point already certified near-optimal, and a
    certified x0 leaves the one stage record {mu 1e-2, steps 0, stop "gap"}.
    The last check's lo is capped at hi when it is at most 1e-12
    relative above it, and CertificateError("gap-dual") is raised when it
    is further above: the dual is then unsound.

    Returns (y, (lo, hi), stages) from the last check, or (x, None,
    stages) without a hook; stages holds one {mu, steps, stop} record a
    stage, stop naming what ended it: "cap", "step", "stall" or "gap".
    """
    x = x0
    stages = []
    if gap is not None:
        check = gap(x0, 1e-2)
        if _closed(check):
            return _certificate(check, [{"mu": 1e-2, "steps": 0, "stop": "gap"}])
    for mu in (1e-2, 1e-4, 1e-8):
        F = objective(x, mu)
        step = 1.0
        steps = stall = 0
        next_check = GAP_FIRST
        prev_x = prev_g = None
        for _ in range(5000):
            g = gradient(x, mu)
            if prev_g is not None:
                dx, dg = x - prev_x, g - prev_g
                denom = float(np.real(np.vdot(dg, dg)))
                if denom > 0:
                    step = abs(float(np.real(np.vdot(dx, dg)))) / denom
            prev_x, prev_g = x, g
            trial = line(x, g)
            cand = trial(step)
            Fc = objective(cand, mu)
            while Fc > F - 1e-15 and step > 1e-14:
                step *= 0.5
                cand = trial(step)
                Fc = objective(cand, mu)
            if step <= 1e-14:
                stop = "step"
                break
            rel = (F - Fc) / max(F, 1e-300)
            x, F = cand, Fc
            steps += 1
            if gap is not None and steps == next_check:
                next_check *= 2
                check = gap(x, mu)
                if _closed(check):
                    stop = "gap"
                    break
            stall = stall + 1 if rel < stall_rel else 0
            if stall >= 50:
                stop = "stall"
                break
        else:
            stop = "cap"
        stages.append({"mu": mu, "steps": steps, "stop": stop})
        if stop == "gap":
            break
    if gap is None:
        return x, None, stages
    if stop != "gap":
        check = gap(x, mu)
    return _certificate(check, stages)


def _closed(check) -> bool:
    lo, hi, _ = check
    return hi - lo <= GAP_REL * lo


def _certificate(check, stages):
    """(y, (lo, hi), stages) for the last check (lo, hi, y).  Where the two
    ends meet at the optimum, roundoff can put the float dual an ulp or so
    above hi, and it is capped there; further above, the dual is unsound."""
    lo, hi, y = check
    if lo > hi * (1.0 + 1e-12):
        raise CertificateError("gap-dual", lo, hi)
    return y, (min(lo, hi), hi), stages
