"""Smoothed first-order minimizer shared by the extension probe and the
multiplier search: Barzilai-Borwein spectral steps (Barzilai & Borwein
1988) safeguarded by monotone backtracking, on an objective smoothed by
mu and solved again as mu decreases.
"""

import numpy as np


def smoothed_descent(x0, objective, gradient, stall_rel: float):
    """Minimize objective(x, mu) from x0 for mu = 1e-2, 1e-4, 1e-8, each
    stage warm started at the last.

    A stage ends after 5000 iterations, when backtracking drives the step
    to 1e-14, or after 50 consecutive iterations whose relative decrease
    is below stall_rel.  gradient(x, mu) may be projected onto the tangent
    space of constraints; x0 is not modified.

    Returns (x, trace), trace holding the objective after every accepted
    step.
    """
    x = x0
    trace = []
    for mu in (1e-2, 1e-4, 1e-8):
        F = objective(x, mu)
        step = 1.0
        stall = 0
        prev_x = prev_g = None
        for _ in range(5000):
            g = gradient(x, mu)
            if prev_g is not None:
                dx, dg = x - prev_x, g - prev_g
                denom = float(np.real(np.vdot(dg, dg)))
                if denom > 0:
                    step = abs(float(np.real(np.vdot(dx, dg)))) / denom
            prev_x, prev_g = x, g
            cand = x - step * g
            Fc = objective(cand, mu)
            while Fc > F - 1e-15 and step > 1e-14:
                step *= 0.5
                cand = x - step * g
                Fc = objective(cand, mu)
            if step <= 1e-14:
                break
            rel = (F - Fc) / max(F, 1e-300)
            x, F = cand, Fc
            trace.append(F)
            stall = stall + 1 if rel < stall_rel else 0
            if stall >= 50:
                break
    return x, trace
