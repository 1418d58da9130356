"""Staged product construction of a thin carrier set, a sampled estimate
of its transform floor, and an extension-norm probe.

run_stages drives the compact-set pipeline once per stage, each stage tied
to the next element of a fixed dense enumeration of real trigonometric
polynomials, and multiplies the mollified plateaus f_j together.  The
partial products stay near 1 in A_q while vanishing, to reported
tolerance, outside the shrinking intersection K.  helson_certificate
returns the least sup |mu_hat| over randomly sampled atomic measures on
K: sampled evidence, an upper estimate of the infimum over all measures,
not a bound on it.  extension_probe solves the interpolation program
min ||f||_A + (1/eps)||f||_{A_p} over degree-bounded polynomials matching
target values on K, by Newton's method on its small KKT system with the
smoothed descent as the fallback, and brackets its minimum between a dual
bound and the value reached.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .descent import smoothed_descent
from .errors import CertificateError, PreconditionError
from .gridcert import ArcSet, outside_report
from .principal import PrincipalConfig, run_principal
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


def run_stages(q: float, J: int):
    """Product S_J = f_1 ... f_J of per-stage plateaus, with step norms,
    the carrier intersection K, and an outside-K report.

    Each stage j runs the compact-set pipeline at N = 2 with
    u = dense_sequence(j) and an eps budget 2^{-1-j} / ||S_{j-1}||_A, so
    the chain sums below 1.  Stages report their achieved defect; only
    theoretical-mode stages hard-fail.

    Returns (stages, S, K, certificates).
    """
    if J < 1:
        raise PreconditionError("J must be >= 1", field="J")
    stages = []
    S = CoeffSeq(np.ones(1, dtype=complex), 0)
    K = None
    for j in range(1, J + 1):
        u = dense_sequence(j)
        budget = 2.0 ** (-1 - j)
        norm_prev = S.a_p_norm(1.0).hi
        # 0.99 keeps the chain inequality strict
        eps_j = 0.99 * budget / norm_prev
        cfg = PrincipalConfig(q=q, eps=eps_j, u=u, N=2)
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
    out_max, out_tail = outside_report(S, K)
    certificates = {
        "final_norm": final_norm,
        "final_norm_ok": final_norm.hi < 1.0,
        "steps_ok": all(r.within_budget for r in stages),
        "step_norms": [r.step_norm for r in stages],
        "step_budgets": [r.step_budget for r in stages],
        "outside_max": out_max,
        "outside_bound": out_max + out_tail,
        "k_nonempty": bool(K),
        "k_measure": K.measure,
    }
    return stages, S, K, certificates


# -- sampled transform floor ------------------------------------------------

_MAX_ATOMS = 8  # atoms of one sampled measure, at most


def _atoms_uniform(K: ArcSet, count: int, rng) -> np.ndarray:
    starts = K.arcs[:, 0]
    lens = K.arcs[:, 1] - starts
    cum = np.cumsum(lens)
    x = rng.random(count) * cum[-1]
    idx = np.searchsorted(cum, x, side="right")
    idx = np.minimum(idx, len(lens) - 1)
    return starts[idx] + (x - (cum[idx] - lens[idx]))


def helson_certificate(K: ArcSet, trials: int, M: int, seed: int = 0) -> float:
    """Least sup_{|n| <= M} |mu_hat(n)| over randomly sampled atomic
    measures on K: sampled evidence, not a bound.

    Each trial draws 1 to _MAX_ATOMS atoms uniform in K by arc length,
    with uniform magnitudes and fair signs normalized to TV = 1.  The
    transform floor of K is an infimum over all measures on K, so the
    least of the sampled sups estimates it from above and bounds nothing.

    Trials draw from per-trial seeds spawned off the master seed, so the
    result does not depend on execution order.
    """
    if not K:
        raise PreconditionError("K must be nonempty", field="K")
    if trials < 1:
        raise PreconditionError("trials must be >= 1", field="trials")
    if M < 0:
        raise PreconditionError("M must be >= 0", field="M")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    ns = np.arange(-M, M + 1)
    delta = math.inf
    for trial_seed in seeds:
        rng = np.random.default_rng(trial_seed)
        count = int(rng.integers(1, _MAX_ATOMS + 1))
        pos = _atoms_uniform(K, count, rng)
        mags = rng.random(count) + 1e-12
        mags /= mags.sum()
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        mu_hat = np.exp(-1j * np.outer(ns, pos)) @ (signs * mags)
        delta = min(delta, float(np.abs(mu_hat).max()))
    return delta


# -- extension-norm probe ------------------------------------------------------


def _dirichlet_gram(points: np.ndarray, d: int) -> np.ndarray:
    """A A^H for the rows A_j = exp(i n x_j), |n| <= d, in closed form:
    sum_n exp(i n u) = sin((d + 1/2) u) / sin(u / 2) at u = x_j - x_k, and
    2d + 1 on the diagonal."""
    u = points[:, None] - points[None, :]
    off = ~np.eye(len(points), dtype=bool)
    G = np.full(u.shape, 2.0 * d + 1.0)
    G[off] = np.sin((d + 0.5) * u[off]) / np.sin(0.5 * u[off])
    return G


def _gauss_jordan(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with M X = B, by Gauss-Jordan elimination with partial pivoting,
    in plain numpy: no LAPACK call, so the bits do not depend on the BLAS
    thread count.  It inverts the Gram matrix (B = I) and solves the
    Newton steps of _kkt_newton.  A singular M gives a meaningless or
    non-finite X (a zero pivot divides by zero); the callers reject it,
    by the residual check or by a finiteness check on the step."""
    n = len(M)
    W = np.hstack([M, B.reshape(n, -1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            r = k + int(np.argmax(np.abs(W[k:, k])))
            if r != k:
                W[[k, r]] = W[[r, k]]
            W[k] /= W[k, k]
            col = W[:, k].copy()
            col[k] = 0.0
            W -= np.outer(col, W[k])
    return W[:, n:].reshape(B.shape)


_B_NORM_RIGOUR = "float dual bound, roundoff not counted (ROADMAP item 5)"


def _dual_norm(y_abs: np.ndarray, q: float, eps: float) -> float:
    """N*(y) = min{t : ||(|y| - t)_+||_q <= t / eps}, the dual norm of
    N(c) = ||c||_1 + (1/eps) ||c||_p for q = p / (p - 1), from the moduli
    |y|, by bisection on [0, max |y|].  The end returned is the bracket's
    upper one, where the condition holds, so the value does not fall
    below N*(y) (float roundoff aside)."""
    lo, hi = 0.0, float(y_abs.max())
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        excess = np.maximum(y_abs - mid, 0.0)
        if float(np.sum(excess**q)) ** (1.0 / q) <= mid / eps:
            hi = mid
        else:
            lo = mid


_NEWTON_STEPS = 8  # damped Newton steps of one gap check, at most


def _kkt_newton(A: np.ndarray, A_H: np.ndarray, v: np.ndarray, lam: np.ndarray,
                q: float, eps: float):
    """Damped Newton on the probe's KKT system, from a multiplier lam
    scaled so that N*(A^H lam) = 1.

    With y = A^H lam, the minimizer of N over A c = v is c = s u(lam),
    u = (|y| - 1)_+^(q-1) y / |y|, where lam and s solve the 2m + 1 real
    equations s A u - v = 0 and eps ||(|y| - 1)_+||_q - 1 = 0.  s starts
    at its least-squares value.  The Jacobian is analytic: with a = |y|
    and psi(a) = (a - 1)_+^(q-1) / a, du = psi dy + (psi'(a)/a) y Re(conj(y) dy),
    one column for each real direction of lam and A u for s.  A step
    solves it by _gauss_jordan and is halved until ||F|| decreases; a
    non-finite step, or one that does not decrease ||F|| at 2^-10 of its
    length, ends the solve.  Each Jacobian column is its own gemv, so a
    thread count splits outputs, never a sum.

    Returns (lam, s u) at the last accepted point.
    """
    m = len(v)

    def state(lam):
        """y = A^H lam, (|y| - 1)_+, psi(|y|) and A u."""
        y = A_H @ lam
        a = np.abs(y)
        ex = np.maximum(a - 1.0, 0.0)
        psi = np.divide(ex ** (q - 1.0), a, out=np.zeros_like(a), where=ex > 0.0)
        return y, a, ex, psi, A @ (psi * y)

    def residual(s, st):
        _, _, ex, _, Au = st
        r = s * Au - v
        norm = eps * float(np.sum(ex**q)) ** (1.0 / q) - 1.0
        return np.concatenate([r.real, r.imag, [norm]])

    def jacobian(s, st):
        y, a, ex, psi, Au = st
        beta = np.divide((q - 1.0) * ex ** (q - 2.0) - psi, a * a,
                         out=np.zeros_like(a), where=ex > 0.0)  # psi'(a) / a
        scale = eps * float(np.sum(ex**q)) ** (1.0 / q - 1.0)
        J = np.zeros((2 * m + 1, 2 * m + 1))
        for j in range(m):
            col_j = np.conj(A[j])  # A^H e_j
            for k, dy in ((j, col_j), (m + j, 1j * col_j)):
                re = np.real(np.conj(y) * dy)
                dAu = s * (A @ (psi * dy + beta * re * y))
                J[:m, k], J[m : 2 * m, k] = dAu.real, dAu.imag
                J[2 * m, k] = scale * float(np.sum(psi * re))
        J[:m, 2 * m], J[m : 2 * m, 2 * m] = Au.real, Au.imag
        return J

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        st = state(lam)
        Au = st[4]
        s = float(np.real(np.sum(np.conj(Au) * v)) / np.sum(np.abs(Au) ** 2))
        F = residual(s, st)
        size = float(np.sum(F * F))
        for _ in range(_NEWTON_STEPS):
            step = _gauss_jordan(jacobian(s, st), -F)
            if not np.all(np.isfinite(step)):
                break
            dlam = step[:m] + 1j * step[m : 2 * m]
            t = 1.0
            while t >= 2.0**-10:
                trial = state(lam + t * dlam)
                F_t = residual(s + t * step[2 * m], trial)
                size_t = float(np.sum(F_t * F_t))
                if size_t < size:
                    break
                t *= 0.5
            else:
                break
            lam, s = lam + t * dlam, s + t * step[2 * m]
            st, F, size = trial, F_t, size_t
    y, _, _, psi, _ = st
    return lam, s * psi * y


def extension_probe(K: ArcSet, points, values, p: float, eps: float, d: int):
    """Degree-d interpolant of the target values on K minimizing the
    composite norm ||f||_A + (1/eps) ||f||_{A_p}.

    First-order method on the smoothed coefficients sqrt(|c|^2 + mu^2)
    with continuation mu = 1e-2, 1e-4, 1e-8; every iterate is projected
    back onto the affine interpolation constraints, and backtracking keeps
    the objective monotone over the accepted points.  The probe's gap hook
    forms the bracket below, and smoothed_descent checks it at the start
    point and after 10, 20, 40, ... accepted steps of each stage, ends
    once the relative duality gap is at most 1e-5, and returns the last
    check's point and bracket.  Each check also runs _kkt_newton from the
    descent's multiplier: at most 8 damped Newton steps on the 2m + 1 real
    KKT equations of the m points, which converge quadratically where the
    descent converges sublinearly, so a check at the start usually
    certifies it and the descent takes no step.  The descent stays the globalizer: where Newton fails, it goes
    on.  The 2d+1 complex coefficients make the program feasible whenever
    the points are distinct and at most 2d+1.  The projection is
    c - A^H G^-1 A c, with A the rows exp(i n x_j) and G = A A^H the
    closed-form Dirichlet-kernel Gram matrix of the points, inverted once
    without LAPACK by the _gauss_jordan that also solves the Newton steps.
    Nearly coincident points make G singular to roundoff; the constraints
    are then missed, and the residual check (1e-8) fails.

    The minimum is bracketed as [b_norm_lo, b_norm_hi], the descent's
    certificate.  b_norm_hi is N(c) = ||c||_1 + (1/eps) ||c||_p at the
    returned c, which is b_norm: the smaller of N at the descent's point
    and at Newton's candidate, which counts only if it meets the
    constraints to 1e-8.  b_norm_lo is the larger of Re(lam^H v) / N*(A^H lam)
    over two multipliers, the descent's lam = G^-1 A grad N_mu(c) and
    Newton's, with N*(y) = min{t : ||(|y| - t)_+||_q <= t/eps} found by
    bisection.  Any lam gives a lower bound by weak duality, so Newton
    leaves the bracket as sound as the descent's.  Both ends are float
    values, roundoff not counted: smoothed_descent caps a dual an ulp or
    so above b_norm_hi at it, and raises CertificateError("gap-dual") on
    one more than 1e-12 relative above.

    Returns (f, report); report carries the achieved norms, the bracket
    and its width b_norm_gap, the constraint residual, each descent
    stage's steps and stop reason (a stage stopped at "cap" ran out of
    iterations, one at "gap" met the gap tolerance and ended the descent).
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
    if not np.all(K.dilate(1e-9).mask(points % TWO_PI)):
        raise PreconditionError("sample point outside K", field="points")
    wrapped = np.sort(points % TWO_PI)
    if len(wrapped) > 1:
        gaps = np.diff(np.concatenate([wrapped, [wrapped[0] + TWO_PI]]))
        if gaps.min() < 1e-9:
            raise PreconditionError("sample points must be distinct", field="points")

    report = {"p": p, "eps": eps, "d": d, "h_sup": float(np.abs(values).max())}
    if not np.any(values):
        report.update(a_norm=0.0, a_p_norm=0.0, b_norm=0.0, b_norm_lo=0.0,
                      b_norm_hi=0.0, b_norm_gap=0.0,
                      b_norm_rigour=_B_NORM_RIGOUR, residual=0.0,
                      iterations=0, descent_stages=[])
        return TrigPoly.zero(), report

    freqs = np.arange(-d, d + 1)
    A = np.exp(1j * np.outer(points, freqs))
    # A^H is stored row-major, so that both products are BLAS dot products
    # along rows: a thread count splits their outputs, never a sum
    # (z @ conj(A) splits the sum over the rows of A)
    A_H = np.ascontiguousarray(A.conj().T)
    G = _dirichlet_gram(points, d)
    G_inv = _gauss_jordan(G, np.eye(len(points))).astype(complex)

    def lift(y):
        """A^H G^-1 y, the least-norm c with A c = y."""
        return A_H @ (G_inv @ y)

    def residual_of(c):
        return float(np.abs(A @ c - values).max())

    def checked_residual(c):
        residual = residual_of(c)
        if not residual < 1e-8:  # a NaN from a singular Gram fails too
            raise CertificateError("probe-residual", residual, 1e-8)
        return residual

    # the gradient at an accepted point reads the magnitudes its objective
    # just formed, so the last ones are kept (c is never modified)
    last = [None] * 5  # c, mu, w = sqrt(|c|^2 + mu^2), w^p and its sum

    def magnitudes(c, mu):
        if c is not last[0] or mu != last[1]:
            w = np.sqrt(np.abs(c) ** 2 + mu * mu)
            wp = w**p
            last[:] = c, mu, w, wp, float(np.sum(wp))
        return last[2:]

    def objective(c, mu):
        w, _, total = magnitudes(c, mu)
        return float(w.sum() + (1.0 / eps) * total ** (1.0 / p))

    def smoothed_gradient(c, mu):
        w, wp, total = magnitudes(c, mu)
        lp = total ** (1.0 / p - 1.0)
        # (1/w + (lp/eps) w^(p-2)) c, with w^(p-2) read off w^p
        return (1.0 + (lp / eps) * wp / w) / w * c

    def gradient(c, mu):
        g = smoothed_gradient(c, mu)
        return g - lift(A @ g)  # tangent to the constraint set

    q = p / (p - 1.0)

    def composite_norm(c):
        abs_c = np.abs(c)
        return float(abs_c.sum() + np.sum(abs_c**p) ** (1.0 / p) / eps)

    def dual_bound(lam):
        """(Re(lam^H v) / N*(A^H lam), N*(A^H lam)): any lam gives a lower
        bound on min N over A c = v, since
        Re(lam^H v) = Re <A^H lam, c> <= N*(A^H lam) N(c)."""
        dual = _dual_norm(np.abs(A_H @ lam), q, eps)
        pairing = float(np.real(np.vdot(lam, values)))
        return (max(pairing, 0.0) / dual if dual > 0.0 else 0.0), dual

    def gap(c, mu):
        """(lo, hi, point) of min N over A c = v.  lo is the larger dual
        bound of the KKT multiplier lam = G^-1 A grad N_mu(c) and of
        _kkt_newton's multiplier started there.  hi is the smaller N of c,
        projected back onto the constraints, and of Newton's candidate
        s u + lift(v - A s u), which counts only if its residual is below
        1e-8; the point is the one hi belongs to."""
        lam = G_inv @ (A @ smoothed_gradient(c, mu))
        lo, dual = dual_bound(lam)
        feasible = [c - lift(A @ c - values)]
        if dual > 0.0:
            lam, su = _kkt_newton(A, A_H, values, lam / dual, q, eps)
            lo = max(lo, dual_bound(lam)[0])
            cand = su + lift(values - A @ su)
            if residual_of(cand) < 1e-8:
                feasible.append(cand)
        norms = [composite_norm(x) for x in feasible]
        best = int(np.argmin(norms))
        return lo, norms[best], feasible[best]

    start = lift(values)
    checked_residual(start)
    c, (b_lo, b_hi), stages = smoothed_descent(start, objective, gradient,
                                               stall_rel=1e-12, gap=gap)
    residual = checked_residual(c)
    a_norm = float(np.abs(c).sum())
    ap_norm = float(np.sum(np.abs(c) ** p) ** (1.0 / p))
    report.update(
        a_norm=a_norm,
        a_p_norm=ap_norm,
        b_norm=b_hi,
        b_norm_lo=b_lo,
        b_norm_hi=b_hi,
        b_norm_gap=b_hi - b_lo,
        b_norm_rigour=_B_NORM_RIGOUR,
        residual=residual,
        iterations=sum(stage["steps"] for stage in stages),
        descent_stages=stages,
    )
    f = TrigPoly.from_arrays(freqs, c)
    return f, report
