"""l^p cyclicity diagnostics.

Three instruments: multiplier_deficit searches for P making P*f close to 1
in A_p (small values are cyclicity evidence), obstruction_bound turns an
annihilating coefficient sequence S into a certified lower bound on that
deficit, and smooth_noncyclic_witness builds a C^2 function vanishing
exactly on a given arc set together with its obstruction ladder.  The
solver gives upper bounds, the obstruction lower bounds; neither decides
cyclicity from finite data.
"""

import math

import numpy as np

from .descent import smoothed_descent
from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import ArcSet
from .principal import outside_report
from .trigpoly import TWO_PI, CoeffSeq, Interval, TrigPoly

_DIM_BUDGET = 1 << 24


def _as_seq(f) -> CoeffSeq:
    return f.as_coeffseq() if isinstance(f, TrigPoly) else f


def _deficit_value(f: CoeffSeq, P_hat: np.ndarray, d: int, p: float) -> Interval:
    P_seq = CoeffSeq(P_hat.astype(complex), d)
    one = CoeffSeq(np.ones(1, dtype=complex), 0)
    return one.add(P_seq.multiply(f), -1.0).a_p_norm(p)


def _p2_multiplier(fw: np.ndarray, M: int, d: int):
    """Exact least-squares multiplier for the window part.

    Columns of C are the shifts of the f window; the residual must be
    orthogonal to all of them at the optimum.
    """
    rows = 2 * (M + d) + 1
    C = np.zeros((rows, 2 * d + 1), dtype=complex)
    for j in range(2 * d + 1):
        C[j : j + 2 * M + 1, j] = fw
    e0 = np.zeros(rows, dtype=complex)
    e0[M + d] = 1.0
    P_hat, *_ = np.linalg.lstsq(C, e0, rcond=None)
    r = e0 - C @ P_hat
    ortho = float(np.abs(C.conj().T @ r).max())
    if ortho > 1e-8 * max(1.0, float(np.abs(fw).max())):
        raise CertificateError("p2-orthogonality", ortho, 1e-8)
    return P_hat


def _smoothed_descent(fw: np.ndarray, M: int, d: int, p: float,
                      P_hat: np.ndarray) -> np.ndarray:
    """Minimize sum (|1 - P*f|^2 + mu^2)^{p/2} over the window by
    smoothed_descent, warm started at P_hat."""
    e0 = np.zeros(2 * (M + d) + 1, dtype=complex)
    e0[M + d] = 1.0

    def residual(P):
        return e0 - np.convolve(P, fw)

    def objective(P, mu):
        r = residual(P)
        return float(np.sum((np.abs(r) ** 2 + mu * mu) ** (p / 2.0)))

    def gradient(P, mu):
        r = residual(P)
        s = (np.abs(r) ** 2 + mu * mu) ** (p / 2.0 - 1.0) * r
        # C^H s; correlate conjugates its second argument itself
        return -p * np.correlate(s, fw, mode="valid")

    P, _ = smoothed_descent(P_hat, objective, gradient, stall_rel=1e-10)
    return P


def multiplier_deficit(f, p: float, d: int):
    """Smallest ||1 - P*f||_{A_p} over complex multipliers of degree <= d.

    Returns (value, P).  value is an Interval: exact for a windowed f,
    widened by the propagated product tail otherwise.  At p = 2 the window
    minimum is the exact least-squares solution, verified by orthogonality
    of the residual; for p in (1, 2) the solver minimizes the smoothed
    coefficient objective (continuation mu = 1e-2, 1e-4, 1e-8, monotone
    backtracking, stop after 50 iterations of relative decrease below
    1e-10) warm started at the p = 2 solution, so the value is an upper
    bound on the true minimum.

    Deficits are invariant under scaling of f: the window is normalized to
    unit peak and the multiplier rescaled back, so equal inputs up to a
    scalar give identical values.
    """
    f = _as_seq(f)
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
    scale = float(np.abs(f.window).max())
    fw = f.window / scale
    P_hat = _p2_multiplier(fw, f.M, d)
    if p < 2.0:
        P_hat = _smoothed_descent(fw, f.M, d, p, P_hat)
    P_hat = P_hat / scale
    value = _deficit_value(f, P_hat, d, p)
    freqs = range(-d, d + 1)
    P = TrigPoly({n: complex(c) for n, c in zip(freqs, P_hat) if c != 0})
    return value, P


def cyclicity_profile(f, p: float, d_max: int, ds=None):
    """Table of (d, value) rows, nonincreasing in d.

    Each row reports the best upper bound achieved at degree <= d (budgets
    nest, so the running minimum is itself a valid bound at every d).
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
    rows = []
    best = None
    best_P = None
    for d in sorted(set(ds)):
        value, P = multiplier_deficit(f, p, d)
        if best is None or value.hi < best.hi:
            best, best_P = value, P
        rows.append((d, best, best_P))
    return [(d, v) for d, v, _ in rows]


def obstruction_bound(S, f, p: float, d: int):
    """Certified lower bound on min_{deg P <= d} ||1 - P*f||_{A_p} from an
    annihilating sequence S with finite A_q norm, q = p/(p-1).

    The pairing convention is <S, g> = sum_n g_hat(-n) S_hat(n), so the
    translate pairings sit in the convolution S * f read at frequencies
    -n.  pairing_residual is their max over |n| <= d plus the off-window
    slack from the tails.  Via Holder,

        ||1 - P*f||_{A_p} >= (|S_hat(0)| - ||P||_l1 * residual) / ||S||_{A_q}

    and the returned bound caps the multiplier mass at d + 1; a residual
    of zero makes the cap irrelevant.
    """
    S, f = _as_seq(S), _as_seq(f)
    if p <= 1.0:
        raise PreconditionError("p must exceed 1", field="p")
    if d < 0:
        raise PreconditionError("d must be >= 0", field="d")
    q = p / (p - 1.0)
    aq = S.a_p_norm(q)
    if aq.hi == 0.0:
        raise PreconditionError("S must be nonzero", field="S")
    conv = np.convolve(S.window, f.window)
    center = S.M + f.M
    lo = max(0, center - d)
    seg = conv[lo : center + d + 1]
    sup_f_hat = float(np.abs(f.window).max())
    sup_s_hat = float(np.abs(S.window).max())
    slack = (S.tail_l1() * max(sup_f_hat, _tail_peak(f))
             + f.tail_l1() * max(sup_s_hat, _tail_peak(S))
             + S.tail_l1() * _tail_peak(f))
    residual = float(np.abs(seg).max()) + slack
    s0 = float(abs(S.window[S.M]))
    bound = max(0.0, s0 - (d + 1) * residual) / aq.hi
    return bound, residual


def _tail_peak(f: CoeffSeq) -> float:
    if f.tail_const == 0.0:
        return 0.0
    return f.tail_const * float(f.M + 1) ** (-f.tail_exp)


# -- smooth witness ------------------------------------------------------------


def _gap_profiles(K: ArcSet):
    """(a, b, normalizer) per complementary gap; the profile on (a, b) is
    ((t-a)(b-t))^3 * normalizer, peaking at 1.  A gap running through 0
    is taken whole from components() (its b then exceeds 2 pi), so the
    witness does not pick up a spurious zero at t = 0."""
    return [(a, b, (4.0 / ((b - a) ** 2)) ** 3)
            for a, b in K.complement().components()]


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


def smooth_noncyclic_witness(K: ArcSet, S, eps_smooth: float, p: float = 4.0 / 3.0,
                             d_ladder=(1, 2, 4, 8, 16, 32, 64),
                             outside_tol: float = 1e-5, window: int = 2048):
    """Nonnegative C^2 function vanishing exactly on K, with certified
    n^{-4} coefficient tail, and its obstruction ladder against S.

    On each complementary gap (a, b) the profile is ((t-a)(b-t))^3 scaled
    to peak 1; the window coefficients are closed-form arc integrals and
    the tail constant comes from four integrations by parts (the third
    derivative has bounded variation).  Since the tail exponent is 4 the
    weighted sum  sum |f_hat(n)| |n|^{eps_smooth}  converges for any
    eps_smooth <= 2, which is the certified smoothness margin.

    S must be numerically supported in K (max outside below outside_tol).
    The report carries obstruction_bound(S, f, p, d) over d_ladder;
    positive entries certify that no multiplier of that degree pushes the
    deficit of f below the bound.
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
    if out_max > outside_tol:
        raise PreconditionError(
            f"S is not supported in K: max outside {out_max:.3e} exceeds "
            f"{outside_tol:.1e}", field="S")

    profiles = _gap_profiles(K)
    M = int(window)
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
    s0 = float(abs(S.window[S.M]))
    ladder = [(d,) + obstruction_bound(S, f, p, d) for d in d_ladder]
    report = {
        "tail_const": tail_const,
        "tail_exp": 4.0,
        "eps_smooth": eps_smooth,
        "weighted_l1_bound": weighted,
        "s_hat0": s0,
        "s_hat0_vacuous": s0 == 0.0,
        "s_outside_max": out_max,
        "s_outside_bound": out_max + out_tail,
        "on_k_exact_max": 0.0,
        "ladder": ladder,
        "ladder_positive": any(b > 0.0 for _, b, _ in ladder),
    }
    return f, report
