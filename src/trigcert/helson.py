"""Staged product construction of a thin carrier set, empirical Helson
certification by sampled measures, and an extension-norm probe.

run_stages drives the compact-set pipeline once per stage, each stage tied
to the next element of a fixed dense enumeration of real trigonometric
polynomials, and multiplies the mollified plateaus f_j together.  The
partial products stay near 1 in A_q while vanishing, to reported
tolerance, outside the shrinking intersection K.  helson_certificate
samples atomic measures on K and certifies, per measure, the pairing
chain |integral of P d mu| <= ||P||_A * sup |mu_hat|.  extension_probe
solves the interpolation program min ||f||_A + (1/eps)||f||_{A_p} over
degree-bounded polynomials matching target values on K.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .descent import smoothed_descent
from .errors import CertificateError, PreconditionError
from .gridcert import ArcSet
from .principal import PrincipalConfig, outside_report, run_principal
from .trigpoly import TWO_PI, CoeffSeq, Interval, TrigPoly


# -- dense enumeration of real trigonometric polynomials ---------------------

# compact candidate records (degree, dyadic level, numerator tuple); the
# polynomials themselves are rebuilt on demand to keep the cache small
_DENSE_CACHE = []
_DENSE_BLOCK = 0


def _order_key(item):
    D, m, nums = item
    return (
        D,
        m,
        sum(abs(k) for k in nums),
        sum(1 for k in nums if k < 0),
        tuple((k == 0, abs(k), k < 0) for k in nums),
    )


def _block_candidates(s):
    """All candidates of size s = degree + level + magnitude bits."""
    out = []
    for D in range(1, s + 1):
        for m in range(0, s - D + 1):
            bits = s - D - m
            top = 1 << bits
            low = top >> 1  # max numerator must exceed this (0 when bits=0)
            for nums in itertools.product(range(-top, top + 1), repeat=2 * D + 1):
                mx = max(abs(k) for k in nums)
                if mx <= low or mx > top:
                    continue
                if nums[2 * D - 1] == 0 and nums[2 * D] == 0:
                    continue  # degree would drop below D
                if m and not any(k & 1 for k in nums):
                    continue  # level m must be minimal
                out.append((D, m, nums))
    out.sort(key=_order_key)
    return out


def _to_poly(D, m, nums):
    den = 1 << m
    poly = TrigPoly.const(Fraction(nums[0], den)) if nums[0] else TrigPoly.zero()
    for i in range(1, D + 1):
        a, b = nums[2 * i - 1], nums[2 * i]
        if a:
            poly = poly + TrigPoly.cosine(i, Fraction(a, den), exact=True)
        if b:
            poly = poly + TrigPoly.sine(i, Fraction(b, den), exact=True)
    return poly


def dense_sequence(j: int) -> TrigPoly:
    """j-th element (1-based) of a fixed enumeration of real nonzero
    trigonometric polynomials with dyadic-rational coefficients.

    Candidates a0 + sum a_i cos(it) + b_i sin(it) with numerators k/2^m
    are graded by size = degree + level m + magnitude bits of the largest
    numerator; within a grade the order is (degree, level, coefficient
    mass, negative count, elementwise simplicity).  The first elements are
    cos t, sin t, -cos t, -sin t, 1 + cos t, ...  Every polynomial with a
    nonconstant term appears exactly once; pure constants are skipped
    (they carry no sign structure for the stage pipeline).
    """
    if j < 1:
        raise PreconditionError("index must be >= 1", field="j")
    global _DENSE_BLOCK
    while len(_DENSE_CACHE) < j:
        _DENSE_BLOCK += 1
        _DENSE_CACHE.extend(_block_candidates(_DENSE_BLOCK))
    return _to_poly(*_DENSE_CACHE[j - 1])


# -- staged products ----------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    """One stage of the product construction.

    step_norm encloses ||S_j - S_{j-1}||_{A_q}, the step into this stage
    (S_0 = 1), with budget 2^{-1-j}: 1/4 for the first stage, halving.
    """

    j: int
    u: TrigPoly
    eps: float
    f: CoeffSeq
    P: TrigPoly
    K: ArcSet
    S: CoeffSeq
    step_norm: Interval
    step_budget: float
    within_budget: bool
    achieved_eps: float


def _stage_overrides(config, J):
    if config is None:
        return [{} for _ in range(J)]
    if isinstance(config, dict):
        return [dict(config) for _ in range(J)]
    cfgs = [dict(c) for c in config]
    if len(cfgs) < J:
        raise PreconditionError("need one config per stage", field="config")
    return cfgs[:J]


def run_stages(q: float, J: int, config=None):
    """Product S_J = f_1 ... f_J of per-stage plateaus, with step norms,
    the carrier intersection K, and an outside-K report.

    config: a mapping of PrincipalConfig overrides applied to every stage,
    or one mapping per stage.  Each stage j runs the compact-set pipeline
    with u = dense_sequence(j) (unless overridden) and an eps budget
    2^{-1-j} / ||S_{j-1}||_A, so the chain sums below 1.  Stages report
    their achieved defect; only theoretical-mode stages hard-fail.

    Returns (stages, S, K, certificates).
    """
    if J < 1:
        raise PreconditionError("J must be >= 1", field="J")
    overrides = _stage_overrides(config, J)
    stages = []
    S = CoeffSeq(np.ones(1, dtype=complex), 0)
    K = None
    for j in range(1, J + 1):
        ov = overrides[j - 1]
        u = ov.pop("u", None)
        if u is None:
            u = dense_sequence(j)
        budget = 2.0 ** (-1 - j)
        norm_prev = S.a_p_norm(1.0).hi
        # 0.99 keeps the chain inequality strict
        eps_j = ov.pop("eps", 0.99 * budget / norm_prev)
        ov.setdefault("N", 2)
        cfg = PrincipalConfig(q=q, eps=eps_j, u=u, **ov)
        try:
            out = run_principal(cfg)
        except CertificateError as exc:
            raise CertificateError(
                exc.name, exc.lhs, exc.rhs,
                message=f"stage {j} (eps {eps_j:.6g}): {exc}",
            )
        S_next = S.multiply(out.f)
        step = S_next.add(S, -1.0).a_p_norm(q)
        K = out.K if K is None else K.intersect(out.K)
        stages.append(StageRecord(
            j=j, u=u, eps=eps_j, f=out.f, P=out.P, K=out.K, S=S_next,
            step_norm=step, step_budget=budget,
            within_budget=step.hi < budget, achieved_eps=out.achieved_eps,
        ))
        S = S_next
    one = CoeffSeq(np.ones(1, dtype=complex), 0)
    final_norm = S.add(one, -1.0).a_p_norm(q)
    if K:
        out_max, out_tail = outside_report(S, K)
    else:
        out_max, out_tail = 0.0, S.tail_l1()
    certificates = {
        "final_norm": final_norm,
        "final_norm_ok": final_norm.hi < 1.0,
        "steps_ok": all(r.within_budget for r in stages),
        "step_norms": [r.step_norm for r in stages],
        "step_budgets": [r.step_budget for r in stages],
        "outside_max": out_max,
        "outside_bound": out_max + out_tail,
        "k_nonempty": bool(K),
        "k_measure": K.measure if K else 0.0,
    }
    return stages, S, K, certificates


# -- sampled-measure certification -------------------------------------------


@dataclass(frozen=True)
class SampledMeasure:
    """Atomic measure on K with TV = 1 and its transform statistics."""

    atoms: tuple
    masses: tuple
    sup_mu_hat: float
    argmax_n: int
    pairing_lower: float
    pairing_ok: bool


def _atoms_uniform(K: ArcSet, count: int, rng) -> np.ndarray:
    lens = np.array([b - a for a, b in K.arcs])
    starts = np.array([a for a, _ in K.arcs])
    cum = np.cumsum(lens)
    x = rng.random(count) * cum[-1]
    idx = np.searchsorted(cum, x, side="right")
    idx = np.minimum(idx, len(lens) - 1)
    return starts[idx] + (x - (cum[idx] - lens[idx]))


def helson_certificate(K: ArcSet, P_list, trials: int, M: int, seed: int = 0,
                       max_atoms: int = 8):
    """Empirical lower estimate of the transform floor over measures on K.

    Samples atomic measures (atom positions uniform in K by arc length,
    masses with uniform magnitudes and fair signs, normalized to TV = 1),
    scans sup_{|n| <= M} |mu_hat(n)|, and returns the minimum over trials
    together with the worst measure.  For each sampled measure and each
    stage polynomial P the pairing chain

        |sum_n P_hat(-n) mu_hat(n)|  <=  ||P||_A * max_{spec P} |mu_hat|

    is checked outright, and |pairing| / ||P||_A is recorded as a certified
    lower bound on the scanned sup.  This is evidence, not a proof: the
    genuine quantifier ranges over all measures.

    Trials draw from per-trial seeds spawned off the master seed, so the
    result does not depend on execution order.
    """
    if not K:
        raise PreconditionError("K must be nonempty", field="K")
    if trials < 1:
        raise PreconditionError("trials must be >= 1", field="trials")
    if M < 0:
        raise PreconditionError("M must be >= 0", field="M")
    for P in P_list:
        if P.degree > M:
            raise PreconditionError("stage polynomial spectrum exceeds the scan cutoff",
                                    field="P_list")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    ns = np.arange(-M, M + 1)
    delta = math.inf
    worst = None
    for trial_seed in seeds:
        rng = np.random.default_rng(trial_seed)
        count = int(rng.integers(1, max_atoms + 1))
        pos = _atoms_uniform(K, count, rng)
        mags = rng.random(count) + 1e-12
        mags /= mags.sum()
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        masses = signs * mags
        mu_hat = np.exp(-1j * np.outer(ns, pos)) @ masses
        abs_hat = np.abs(mu_hat)
        sup_hat = float(abs_hat.max())
        arg = int(ns[int(np.argmax(abs_hat))])
        best_lower = 0.0
        ok = True
        for P in P_list:
            spec = sorted(P.coeffs)
            # pairing sum_n P_hat(-n) mu_hat(n) = sum_{k in spec} P_hat(k) mu_hat(-k)
            pairing = sum(complex(P.coeffs[k]) * mu_hat[M - k] for k in spec)
            sup_spec = max(abs_hat[M - k] for k in spec)
            a1 = P.coeff_l1()
            if abs(pairing) > a1 * sup_spec * (1.0 + 1e-12):
                ok = False
            best_lower = max(best_lower, abs(pairing) / a1)
        if sup_hat < delta:
            delta = sup_hat
            worst = SampledMeasure(tuple(pos), tuple(masses), sup_hat, arg,
                                   best_lower, ok)
    return delta, worst


# -- extension-norm probe ------------------------------------------------------


def _probe_objective(c, mu, p, eps):
    w = np.sqrt(np.abs(c) ** 2 + mu * mu)
    return float(w.sum() + (1.0 / eps) * np.sum(w**p) ** (1.0 / p))


def _probe_gradient(c, mu, p, eps):
    w = np.sqrt(np.abs(c) ** 2 + mu * mu)
    lp = np.sum(w**p) ** (1.0 / p - 1.0)
    return c / w + (1.0 / eps) * lp * w ** (p - 2.0) * c


def extension_probe(K: ArcSet, points, values, p: float, eps: float, d: int,
                    delta_hat: float = None):
    """Degree-d interpolant of the target values on K minimizing the
    composite norm ||f||_A + (1/eps) ||f||_{A_p}.

    First-order method on the smoothed coefficients sqrt(|c|^2 + mu^2)
    with continuation mu = 1e-2, 1e-4, 1e-8; every iterate is projected
    back onto the affine interpolation constraints, and backtracking keeps
    the objective trace monotone.  The 2d+1 complex coefficients make the
    program feasible whenever the points are distinct and at most 2d+1.

    Returns (f, report); report carries the achieved norms, the constraint
    residual, and, when delta_hat is given, the comparison against the
    guarantee ||f||_B <= (1/delta_hat) * ||h||_{C(K)}.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=complex)
    if not K:
        raise PreconditionError("K must be nonempty", field="K")
    if p <= 1.0:
        raise PreconditionError("p must exceed 1", field="p")
    if eps <= 0.0:
        raise PreconditionError("eps must be positive", field="eps")
    if d < 1:
        raise PreconditionError("degree budget must be >= 1", field="d")
    if points.ndim != 1 or points.shape != values.shape:
        raise PreconditionError("points and values must be matching vectors")
    if len(points) > 2 * d + 1:
        raise PreconditionError("underdetermined interpolation: more than 2d+1 points",
                                field="d")
    for t in points:
        if not K.contains(float(t) % TWO_PI, slack=1e-9):
            raise PreconditionError("sample point outside K", field="points")
    wrapped = np.sort(points % TWO_PI)
    if len(wrapped) > 1:
        gaps = np.diff(np.concatenate([wrapped, [wrapped[0] + TWO_PI]]))
        if gaps.min() < 1e-9:
            raise PreconditionError("sample points must be distinct", field="points")

    report = {"p": p, "eps": eps, "d": d, "h_sup": float(np.abs(values).max())}
    if not np.any(values):
        report.update(a_norm=0.0, a_p_norm=0.0, b_norm=0.0, residual=0.0,
                      iterations=0, objective_trace=[])
        if delta_hat:
            report["guarantee"] = 0.0
            report["guarantee_ok"] = True
        return TrigPoly.zero(), report

    freqs = np.arange(-d, d + 1)
    A = np.exp(1j * np.outer(points, freqs))
    A_pinv = np.linalg.pinv(A)

    def objective(c, mu):
        return _probe_objective(c, mu, p, eps)

    def gradient(c, mu):
        g = _probe_gradient(c, mu, p, eps)
        return g - A_pinv @ (A @ g)  # tangent to the constraint set

    c, trace = smoothed_descent(A_pinv @ values, objective, gradient, stall_rel=1e-12)
    c = c - A_pinv @ (A @ c - values)  # back onto the constraints

    residual = float(np.abs(A @ c - values).max())
    if residual >= 1e-8:
        raise CertificateError("probe-residual", residual, 1e-8)
    a_norm = float(np.abs(c).sum())
    ap_norm = float(np.sum(np.abs(c) ** p) ** (1.0 / p))
    report.update(
        a_norm=a_norm,
        a_p_norm=ap_norm,
        b_norm=a_norm + ap_norm / eps,
        residual=residual,
        iterations=len(trace),
        objective_trace=trace,
    )
    if delta_hat:
        report["guarantee"] = report["h_sup"] / delta_hat
        report["guarantee_ok"] = report["b_norm"] <= report["guarantee"]
    f = TrigPoly({int(k): complex(v) for k, v in zip(freqs, c) if v != 0})
    return f, report
