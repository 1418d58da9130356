"""l^p cyclicity diagnostics.

Three instruments: multiplier_deficit searches for P making P*f close to 1
in A_p (small values are cyclicity evidence), obstruction_bound turns a
sequence S with S*f = 0 into the lower bound |S_hat(0)| / ||S||_{A_q} on
that deficit over every multiplier, and smooth_noncyclic_witness builds a
C^2 function vanishing exactly on a given arc set together with that bound
at p and at 2.  For a windowed f the solver brackets the degree-d deficit
between a dual bound and the value it reaches, which decides nothing about
cyclicity; the obstruction certifies non-cyclicity as far as its
hypothesis S*f = 0 and its enclosures hold.
"""

import math

import numpy as np

from .descent import smoothed_descent
from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import ArcSet, outside_report
from .trigpoly import TWO_PI, CoeffSeq, Interval, TrigPoly

_DIM_BUDGET = 1 << 24
# smooth_noncyclic_witness: its window half-width, and the largest |S| off
# K it accepts as support in K
_WITNESS_WINDOW = 2048
_OUTSIDE_TOL = 1e-5
# what a windowed p < 2 deficit row's two ends are
DEFICIT_RIGOUR = {"lo": "float dual bound, roundoff not counted",
                  "hi": "A_p norm at the returned P"}
# what the witness's obstruction rows rest on
_OBSTRUCTION_RIGOUR = (
    "structural + enclosure: S*f = 0 as S is supported in K, by construction "
    "for a run_stages product and only on the scan grid (s_outside_max) for "
    "an S read from a file; the enclosures of S_hat(0) and ||S||_{A_q} count "
    "no roundoff and no CoeffSeq.multiply window error (ROADMAP items 1 and 5)")


def _as_seq(f) -> CoeffSeq:
    return f.as_coeffseq() if isinstance(f, TrigPoly) else f


def _deficit_value(f: CoeffSeq, P_hat: np.ndarray, d: int, p: float) -> Interval:
    P_seq = CoeffSeq(P_hat.astype(complex), d)
    one = CoeffSeq(np.ones(1, dtype=complex), 0)
    return one.add(P_seq.multiply(f), -1.0).a_p_norm(p)


def _toeplitz_inverse(a: np.ndarray):
    """The map y -> T^-1 y for the Hermitian positive definite Toeplitz T
    with first column a, T_jk = a[j - k] and a[-m] = conj(a[m]).

    T is factored once as T^-1 = U diag(1/b_k[k]) U^H: column k of the
    upper triangular U is Levinson's backward vector b_k, which solves the
    leading (k+1) x (k+1) block against its last unit vector, so U^H T U
    is diagonal with the real, positive b_k[k].  Step k of the recursion
    extends b and the forward vector f, which solves the block against
    its first unit vector.  Factor and map use plain numpy products and
    sums, no LAPACK or BLAS call, so the bits do not depend on the thread
    count.
    """
    n = len(a)
    U = np.zeros((n, n), dtype=complex)
    ac = a.conj()
    f = b = np.array([1.0 / a[0]])
    U[0, 0] = b[0]
    for k in range(1, n):
        ef = np.sum(a[k:0:-1] * f)  # row k of T, left of the diagonal, at f
        eb = np.sum(ac[1 : k + 1] * b)
        f0, b0 = np.append(f, 0.0), np.insert(b, 0, 0.0)
        den = 1.0 - ef * eb
        f, b = (f0 - ef * b0) / den, (b0 - eb * f0) / den
        U[: k + 1, k] = b
    inv_diag = 1.0 / np.diagonal(U).real
    Uc = U.conj()

    def solve(y):
        return np.sum(U * (np.sum(Uc * y[:, None], axis=0) * inv_diag), axis=1)

    return solve


def _p2_multiplier(fw: np.ndarray, M: int, d: int, solve):
    """Exact least-squares multiplier for the window part.

    The columns of C are the 2d+1 shifts of the f window, so C^H C is
    Hermitian Toeplitz with the window's autocorrelation as its first
    column, and solve, that matrix's _toeplitz_inverse, solves the normal
    equations; C is never formed.  They square C's condition number, so
    the residual's orthogonality to every column, which holds at the
    optimum, is checked.
    """
    e0 = np.zeros(2 * (M + d) + 1, dtype=complex)
    e0[M + d] = 1.0
    P_hat = solve(np.correlate(e0, fw, mode="valid"))  # C^H e0
    r = e0 - np.convolve(P_hat, fw)
    ortho = float(np.abs(np.correlate(r, fw, mode="valid")).max())
    if ortho > 1e-8 * max(1.0, float(np.abs(fw).max())):
        raise CertificateError("p2-orthogonality", ortho, 1e-8)
    return P_hat


def _multiplier_search(fw: np.ndarray, M: int, d: int, p: float, solve):
    """(objective, gradient, line, residual, gap) for smoothed_descent on
    sum (|r|^2 + mu^2)^{p/2}, r = e0 - P*f over the window.

    residual(P) is kept for the last point formed.  line carries it along
    the step, r + t (g*f), so a step convolves once however often it
    backtracks, and an accepted point's gradient reads the residual and
    |r|^2 + mu^2 its objective formed.  P is never modified, so points
    are matched by identity.

    gap(P, mu) returns (lo, hi, P), a bracket of the window minimum for
    smoothed_descent's certificate: hi = ||r||_p unsmoothed at P, and
    lo = |S'_{M+d}| / ||S'||_q, q = p/(p-1), for S = (|r|^2 + mu^2)^{(p-2)/2} r
    (C^H S is the gradient over -p) projected onto null(C^H) as
    S' = S - C T^-1 C^H S by _project_null, with solve the T^-1 of
    _p2_multiplier, factored once a rung.  Every r = e0 - C P then has
    <S', r> = conj(S'_{M+d}), and Holder gives the bound for every
    multiplier of degree <= d.
    """
    e0 = np.zeros(2 * (M + d) + 1, dtype=complex)
    e0[M + d] = 1.0
    q = p / (p - 1.0)
    last = [None, None]  # a point and its residual
    smooth = [None, None, None]  # a residual, mu and |r|^2 + mu^2

    def residual(P):
        if P is not last[0]:
            last[:] = P, e0 - np.convolve(P, fw)
        return last[1]

    def smoothed(P, mu):
        r = residual(P)
        if r is not smooth[0] or mu != smooth[1]:
            smooth[:] = r, mu, np.abs(r) ** 2 + mu * mu
        return smooth[2]

    def objective(P, mu):
        return float(np.sum(smoothed(P, mu) ** (p / 2.0)))

    def dual_vector(P, mu):
        return smoothed(P, mu) ** (p / 2.0 - 1.0) * residual(P)

    def gradient(P, mu):
        # C^H s; correlate conjugates its second argument itself
        return -p * np.correlate(dual_vector(P, mu), fw, mode="valid")

    def line(P, g):
        r, gf = residual(P), np.convolve(g, fw)

        def trial(t):
            cand = P - t * g
            last[:] = cand, r + t * gf
            return cand

        return trial

    def gap(P, mu):
        S = _project_null(dual_vector(P, mu), fw, solve)
        dual = float(np.sum(np.abs(S) ** q)) ** (1.0 / q)
        lo = float(abs(S[M + d])) / dual if dual > 0.0 else 0.0
        hi = float(np.sum(np.abs(residual(P)) ** p)) ** (1.0 / p)
        return lo, hi, P

    return objective, gradient, line, residual, gap


def _project_null(S: np.ndarray, fw: np.ndarray, solve) -> np.ndarray:
    """S - C T^-1 C^H S, S's projection onto null(C^H): C^H of it is 0 up
    to roundoff, which the gap's dual bound does not count."""
    return S - np.convolve(solve(np.correlate(S, fw, mode="valid")), fw)


def _check_multiplier_problem(f: CoeffSeq, p: float, d: int) -> None:
    """multiplier_deficit's checks on its inputs and its dimension budget,
    made before anything is solved."""
    if not (1.0 < p <= 2.0):
        raise PreconditionError("p must lie in (1, 2]", field="p")
    if d < 0:
        raise PreconditionError("degree budget must be >= 0", field="d")
    if not np.any(f.window):
        raise PreconditionError("f must have a nonzero window", field="f")
    rows = 2 * (f.M + d) + 1
    if (2 * d + 1) * rows > _DIM_BUDGET:
        raise ResourceError("multiplier problem dimension over budget",
                            budget=_DIM_BUDGET, required=(2 * d + 1) * rows)


def multiplier_deficit(f, p: float, d: int):
    """Smallest ||1 - P*f||_{A_p} over complex multipliers of degree <= d.

    Returns (value, P); value is an Interval that encloses that minimum
    for a windowed f.  At p = 2 the window minimum is the exact
    least-squares solution, verified by orthogonality of the residual, and
    value is [hi, hi].  The window's autocorrelation and the factor of its
    Toeplitz matrix (_toeplitz_inverse) are formed once, and serve that
    solve and every gap check of the search.  For p in (1, 2) the solver
    minimizes the smoothed coefficient objective (continuation mu = 1e-2,
    1e-4, 1e-8, monotone backtracking, warm started at the p = 2
    solution), and smoothed_descent checks _multiplier_search's window
    bracket at the start and after GAP_FIRST, 2 GAP_FIRST, 4 GAP_FIRST,
    ... steps of each stage; it stops once hi - lo <= GAP_REL * lo, or
    else on a stage's own rule (step, stall after 50 iterations of
    relative decrease below 1e-10, or cap).  value is then [lo, hi]: lo
    the descent's dual end, a float bound with roundoff not counted, and
    hi the A_p norm at the returned P, with lo capped at it (the descent
    already caps lo at the window norm, and raises CertificateError
    "gap-dual" on a dual more than 1e-12 relative above that).

    For an f with a tail the window dual does not bound the minimum, and
    value is the norm enclosure at the returned P, widened by the
    propagated product tail.  When hi exceeds 1, which a wide product tail
    times a large ||P||_1 can cause, P = 0 is returned with its exact
    value [1, 1] instead.

    Deficits are invariant under scaling of f: the window is normalized to
    unit peak and the multiplier rescaled back, so equal inputs up to a
    scalar give identical values.
    """
    f = _as_seq(f)
    _check_multiplier_problem(f, p, d)
    scale = float(np.abs(f.window).max())
    fw = f.window / scale
    # correlate conjugates its second argument: entry k is
    # sum_n fw[n + k] conj(fw[n]), the first column of T = C^H C
    solve = _toeplitz_inverse(np.correlate(np.pad(fw, (0, 2 * d)), fw,
                                           mode="valid"))
    P_hat = _p2_multiplier(fw, f.M, d, solve)
    lo = None
    if p < 2.0:
        objective, gradient, line, _, gap = _multiplier_search(fw, f.M, d, p,
                                                               solve)
        P_hat, (lo, _), _ = smoothed_descent(P_hat, objective, gradient,
                                             stall_rel=1e-10, line=line, gap=gap)
    P_hat = P_hat / scale
    value = _deficit_value(f, P_hat, d, p)
    if value.hi > 1.0:
        # P = 0 leaves ||1||_{A_p} = 1 exactly
        value, P_hat = Interval(1.0, 1.0), np.zeros_like(P_hat)
    elif lo is not None and f.tail_const == 0.0:
        value = Interval(min(lo, value.hi), value.hi)
    P = TrigPoly.from_arrays(np.arange(-d, d + 1), P_hat)
    return value, P


def cyclicity_profile(f, p: float, d_max: int, ds=None):
    """Table of (d, value) rows, hi nonincreasing in d.

    A row's hi is the best upper bound reached at degree <= d (budgets
    nest, so the running minimum is itself a valid bound at every d).  Its
    lo is the rung's own lower end from multiplier_deficit, never a smaller
    rung's: for a windowed f at p < 2 the dual bound for degree <= d, and
    at p = 2 the exact minimum, both at most hi.  For a tailed f or the
    P = 0 fallback lo belongs to the rung's own P only, and is capped at hi
    where a smaller rung's multiplier did better.
    Default ladder: every degree up to 16, then doubling.
    """
    f = _as_seq(f)
    if ds is None:
        if d_max <= 16:
            ds = list(range(0, d_max + 1))
        else:
            ds = list(range(0, 17)) + [d for d in
                                       (32, 64, 128, 256, 512, 1024) if d < d_max]
            ds.append(d_max)
    # the largest rung is checked first: an over-budget ladder fails before
    # its smaller rungs are solved
    _check_multiplier_problem(f, p, max(ds, default=0))
    rows = []
    best = math.inf
    for d in sorted(set(ds)):
        value, _ = multiplier_deficit(f, p, d)
        best = min(best, value.hi)
        rows.append((d, Interval(min(value.lo, best), best)))
    return rows


def obstruction_bound(S, f, p: float) -> float:
    """Lower bound |S_hat(0)| / ||S||_{A_q}, q = p/(p-1), on ||1 - P*f||_{A_p}
    over every multiplier P, for an S that annihilates f.

    f is the function whose deficit is bounded, and it is not read: the
    hypothesis S*f = 0, a product of functions on the circle, is the
    caller's to establish, for instance by S supported where f vanishes.
    With the pairing <S, g> = sum_n g_hat(-n) S_hat(n), the mean of S*g,
    it gives <S, P*f> = 0 for every P, so <S, 1 - P*f> = S_hat(0), and
    Holder gives

        |S_hat(0)| <= ||S||_{A_q} ||1 - P*f||_{A_p}.

    The bound divides by the hi end of the A_q enclosure, so S's tail
    counts against it.
    """
    S = _as_seq(S)
    if p <= 1.0:
        raise PreconditionError("p must exceed 1", field="p")
    aq = S.a_p_norm(p / (p - 1.0))
    if aq.hi == 0.0:
        raise PreconditionError("S must be nonzero", field="S")
    return float(abs(S.window[S.M])) / aq.hi


# -- smooth witness ------------------------------------------------------------


def _gap_profiles(K: ArcSet):
    """(a, b, normalizer) per complementary gap; the profile on (a, b) is
    ((t-a)(b-t))^3 * normalizer, peaking at 1.  A gap running through 0
    is taken whole from components() (its b then exceeds 2 pi), so the
    witness does not pick up a spurious zero at t = 0."""
    return [(a, b, (4.0 / ((b - a) ** 2)) ** 3)
            for a, b in K.complement().components().tolist()]


def witness_values(K: ArcSet, t) -> np.ndarray:
    """Exact evaluation of the witness profile: zero on K by construction."""
    t = np.asarray(t, dtype=float) % TWO_PI
    out = np.zeros_like(t)
    for a, b, s in _gap_profiles(K):
        tt = np.where(t < a, t + TWO_PI, t) if b > TWO_PI else t
        inside = (tt > a) & (tt < b)
        u = tt[inside]
        out[inside] = ((u - a) * (b - u)) ** 3 * s
    return out


def _power_integrals(n: np.ndarray, L: float, kmax: int) -> np.ndarray:
    """I_k(n) = integral_0^L u^k e^{-i n u} du for k = 0..kmax, vectorized
    over n != 0.  Uses the by-parts recursion when |n| L >= 1 and a Taylor
    series otherwise (the recursion cancels catastrophically for small
    |n| L)."""
    n = np.asarray(n, dtype=float)
    out = np.zeros((kmax + 1, len(n)), dtype=complex)
    big = np.abs(n) * L >= 1.0
    if np.any(big):
        nb = n[big]
        e = np.exp(-1j * nb * L)
        I = (e - 1.0) / (-1j * nb)
        out[0, big] = I
        for k in range(1, kmax + 1):
            I = (L**k) * e / (-1j * nb) + (k / (1j * nb)) * I
            out[k, big] = I
    if np.any(~big):
        ns = n[~big]
        for k in range(kmax + 1):
            total = np.zeros(len(ns), dtype=complex)
            term = np.full(len(ns), L ** (k + 1) / (k + 1), dtype=complex)
            total += term
            for j in range(1, 40):
                term = term * (-1j * ns) * L * (k + j) / (j * (k + j + 1))
                total += term
                if float(np.abs(term).max()) < 1e-18:
                    break
            out[k, ~big] = total
    return out


def _witness_tail_const(profiles) -> float:
    """Bound |f_hat(n)| <= V / (2 pi n^4) where V collects the third
    derivative jumps at the gap ends and the total variation inside."""
    V = 0.0
    for a, b, s in profiles:
        L = b - a
        # profile = s (L^3 u^3 - 3 L^2 u^4 + 3 L u^5 - u^6) in u = t - a
        # f''' = s (6 L^3 - 72 L^2 u + 180 L u^2 - 120 u^3): ends +-6 s L^3
        V += 2.0 * 6.0 * s * L**3
        # f'''' = s (-72 L^2 + 360 L u - 360 u^2); antiderivative of f''''
        def G(u):
            return s * (-72.0 * L**2 * u + 180.0 * L * u**2 - 120.0 * u**3)
        disc = 360.0**2 - 4.0 * 360.0 * 72.0
        r1 = L * (360.0 - math.sqrt(disc)) / 720.0
        r2 = L * (360.0 + math.sqrt(disc)) / 720.0
        V += abs(G(r1) - G(0.0)) + abs(G(r2) - G(r1)) + abs(G(L) - G(r2))
    return V / TWO_PI


def smooth_noncyclic_witness(K: ArcSet, S, eps_smooth: float, p: float = 4.0 / 3.0):
    """Nonnegative C^2 function vanishing exactly on K, with certified
    n^{-4} coefficient tail, and the obstruction bound S gives it.

    On each complementary gap (a, b) the profile is ((t-a)(b-t))^3 scaled
    to peak 1; the window coefficients, |n| <= _WITNESS_WINDOW, are
    closed-form arc integrals and the tail constant comes from four
    integrations by parts (the third derivative has bounded variation).
    Since the tail exponent is 4 the weighted sum
    sum |f_hat(n)| |n|^{eps_smooth}  converges for any eps_smooth <= 2,
    which is the certified smoothness margin.

    S must be numerically supported in K (max outside below _OUTSIDE_TOL),
    which is obstruction_bound's hypothesis S*f = 0 checked on the scan
    grid.  The report carries obstruction_bound(S, f, p), a lower bound on
    ||1 - P*f||_{A_p} over every multiplier P, the same ratio at p = 2 as
    obstruction_bound_l2, and obstruction_rigour, what the two rest on.
    """
    S = _as_seq(S)
    if not K:
        raise PreconditionError("K must be nonempty", field="K")
    comp = K.complement()
    if not comp:
        raise PreconditionError("K must have nonempty complement", field="K")
    if not 0.0 < eps_smooth <= 2.0:
        raise PreconditionError("eps_smooth must lie in (0, 2]", field="eps_smooth")
    out_max, out_tail = outside_report(S, K)
    if out_max > _OUTSIDE_TOL:
        raise PreconditionError(
            f"S is not supported in K: max outside {out_max:.3e} exceeds "
            f"{_OUTSIDE_TOL:.1e}", field="S")

    profiles = _gap_profiles(K)
    M = _WITNESS_WINDOW
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    n_all = np.arange(-M, M + 1)
    nz = n_all != 0
    n_nz = n_all[nz].astype(float)
    for a, b, s in profiles:
        L = b - a
        # (u (L - u))^3 = L^3 u^3 - 3 L^2 u^4 + 3 L u^5 - u^6
        poly = {3: L**3, 4: -3.0 * L**2, 5: 3.0 * L, 6: -1.0}
        I = _power_integrals(n_nz, L, 6)
        gap = np.zeros(len(n_nz), dtype=complex)
        gap0 = 0.0
        for k, ck in poly.items():
            gap += ck * I[k]
            gap0 += ck * L ** (k + 1) / (k + 1)
        coeffs[nz] += s * np.exp(-1j * n_nz * a) * gap / TWO_PI
        coeffs[M] += s * gap0 / TWO_PI
    tail_const = _witness_tail_const(profiles)
    f = CoeffSeq(coeffs, M, tail_const, 4.0)

    weighted = float(np.sum(np.abs(coeffs) * np.maximum(1.0, np.abs(n_all)) ** eps_smooth))
    weighted += 2.0 * tail_const * M ** (eps_smooth - 3.0) / (3.0 - eps_smooth)
    report = {
        "tail_const": tail_const,
        "tail_exp": 4.0,
        "eps_smooth": eps_smooth,
        "weighted_l1_bound": weighted,
        "s_hat0": float(abs(S.window[S.M])),
        "s_outside_max": out_max,
        "s_outside_bound": out_max + out_tail,
        "on_k_exact_max": 0.0,
        "obstruction_bound": obstruction_bound(S, f, p),
        "obstruction_bound_l2": obstruction_bound(S, f, 2.0),
        "obstruction_rigour": _OBSTRUCTION_RIGOUR,
    }
    return f, report
