"""Smoothed first-order minimizer shared by the extension probe and the
multiplier search: Barzilai-Borwein spectral steps (Barzilai & Borwein
1988) safeguarded by monotone backtracking, on an objective smoothed by
mu and solved again as mu decreases.  Both callers pass a gap hook, a
[dual, primal] bracket of the unsmoothed minimum, checked at the start
point and then every GAP_EVERY steps, and the descent ends once that
bracket is within GAP_REL; a hook that certifies the start point (the
extension probe's, by Newton on its KKT system) leaves no step to take.
"""

import numpy as np

GAP_EVERY = 100  # accepted steps of a stage between two gap checks
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

    gap(x, mu), when given, returns a bracket (lo, hi) of the unsmoothed
    minimum, hi the value at x (or at a better point the hook keeps); it
    is called once at x0 with mu = 1e-2 and after every GAP_EVERY
    accepted steps of a stage, and once hi - lo <= GAP_REL * lo the whole
    descent ends there: no later stage can improve on a point already
    certified near-optimal.  A certified x0 is returned as it is, with
    the one stage record {mu 1e-2, steps 0, stop "gap"}.

    Returns (x, trace, stages): trace holds the objective after every
    accepted step, and stages one {mu, steps, stop} record a stage, stop
    naming what ended it: "cap", "step", "stall" or "gap".
    """
    x = x0
    trace = []
    stages = []
    if gap is not None:
        lo, hi = gap(x0, 1e-2)
        if hi - lo <= GAP_REL * lo:
            return x0, trace, [{"mu": 1e-2, "steps": 0, "stop": "gap"}]
    for mu in (1e-2, 1e-4, 1e-8):
        start = len(trace)
        F = objective(x, mu)
        step = 1.0
        stall = 0
        prev_x = prev_g = None
        for k in range(1, 5001):
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
            trace.append(F)
            if gap is not None and k % GAP_EVERY == 0:
                lo, hi = gap(x, mu)
                if hi - lo <= GAP_REL * lo:
                    stop = "gap"
                    break
            stall = stall + 1 if rel < stall_rel else 0
            if stall >= 50:
                stop = "stall"
                break
        else:
            stop = "cap"
        stages.append({"mu": mu, "steps": len(trace) - start, "stop": stop})
        if stop == "gap":
            break
    return x, trace, stages
