"""Compact-set pipeline: from (q, eps, u) build arcs K, a smooth f carried
by K with small A_q defect, and a polynomial P that is large on K and agrees
in sign with u there.

The steps: auxiliary flat polynomial phi, a bounded real weight w adapted to
the sign of u, a lacunary Riesz product lambda averaged against the signed
atomic measure rho, the superlevel set E of the dilate average X, exact
Fourier coefficients of lambda restricted to E, and a B-spline mollifier
whose closed-form transform yields the coefficient tail of f.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import (
    ArcSet,
    certified_min_abs_and_sign,
    certified_sup,
    restricted_fourier,
    superlevel_arcs,
)
from .kahane import build_rho, interval_constant
from .riesz import RieszSpec, c2_constant, choose_nu, riesz_lambda
from .rudin_shapiro import build_phi
from .trigpoly import TWO_PI, CoeffSeq, Interval, TrigPoly, synth_real

I0 = (Fraction(1, 4), Fraction(1, 3))

# window cap: complex arrays of 2M+1 entries must stay well under memory
_MAX_WINDOW = 1 << 22


@dataclass(frozen=True)
class WeightCert:
    """Certificates attached to the weight w: sup bound, L2 mass, and the
    sign dichotomy (w u > 0 or |w| < tau, everywhere)."""

    method: str
    degree: int
    sup_bound: float
    l2: float
    threshold: float
    threshold_mode: str
    tau: float
    dichotomy: str
    fejer_m: int = 0

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "degree": self.degree,
            "sup_bound": self.sup_bound,
            "l2": self.l2,
            "threshold": self.threshold,
            "threshold_mode": self.threshold_mode,
            "tau": self.tau,
            "dichotomy": self.dichotomy,
            "fejer_m": self.fejer_m,
        }


@dataclass(frozen=True)
class PrincipalConfig:
    q: float
    eps: float
    u: TrigPoly
    N: int
    mode: str = "empirical"
    c1: float = 0.0  # 0 means: default for the mode
    gamma: float = 0.5
    r: int = 4  # mollifier order (r-fold box autoconvolution)
    eta: float = 0.0  # mollifier support width; 0 means auto from the margin
    window: int = 0  # f coefficient window; 0 means auto
    w_degree_budget: int = 4096

    def __post_init__(self):
        if self.q <= 2:
            raise PreconditionError("q must exceed 2", field="q")
        if self.eps <= 0:
            raise PreconditionError("eps must be positive", field="eps")
        if self.N < 1:
            raise PreconditionError("N must be >= 1", field="N")
        if self.mode not in ("theoretical", "empirical"):
            raise PreconditionError("mode must be theoretical or empirical", field="mode")
        if not 0 < self.gamma < 1:
            raise PreconditionError("gamma must lie in (0, 1)", field="gamma")
        if self.r < 2:
            raise PreconditionError("mollifier order must be >= 2", field="r")
        if not isinstance(self.u, TrigPoly) or not self.u.coeffs:
            raise PreconditionError("u must be a nonzero TrigPoly", field="u")
        if not self.u.is_real():
            raise PreconditionError("u must be real", field="u")
        if self.mode == "theoretical" and c2_constant(self.c1_value) <= 0:
            raise PreconditionError(
                "theoretical mode needs c2(c1) > 0; take c1 < 3.7e-5", field="c1"
            )

    @property
    def c1_value(self) -> float:
        if self.c1 > 0:
            return self.c1
        return 2e-5 if self.mode == "theoretical" else 0.05

    @property
    def c3(self) -> float:
        return self.c1_value / 2.0

    @property
    def c2(self) -> float:
        return c2_constant(self.c1_value)

    @property
    def c4(self) -> float:
        return float(interval_constant(*I0))

    @property
    def c5(self) -> float:
        # smallest exponent the chain tolerates; when c2 <= 0 (empirical
        # cutoffs) only the gamma^q/q branch is meaningful
        branch = self.gamma**self.q / self.q
        if self.c2 > 0:
            branch = min(branch, self.c2 / (2.0 * self.c4))
        return 0.9 * branch

    @property
    def delta(self) -> float:
        return math.exp(-self.c5 * self.N)


@dataclass(frozen=True)
class PrincipalOutput:
    K: ArcSet
    f: CoeffSeq
    P: TrigPoly
    certificates: dict
    E: ArcSet = None
    w: TrigPoly = None
    w_cert: WeightCert = None
    X: TrigPoly = None
    lam: TrigPoly = None
    eta: float = 0.0
    report: tuple = ()

    @property
    def achieved_eps(self) -> float:
        return self.certificates["a_q_defect"].hi


def _fejer_step_weight(plus: ArcSet, minus: ArcSet, m: int) -> TrigPoly:
    """Fejer mean of the step function 1_plus - 1_minus.  Since the Fejer
    kernel is a nonnegative unit mass, the result is bounded by 1 in sup
    norm whenever the arc families are disjoint."""
    half = np.zeros(m + 1, dtype=complex)
    for sgn, arcs in ((1.0, plus), (-1.0, minus)):
        for a, b in arcs.arcs:
            half[0] += sgn * (b - a) / TWO_PI
            n = np.arange(1, m + 1)
            half[1:] += sgn * (np.exp(-1j * n * b) - np.exp(-1j * n * a)) / (-2j * np.pi * n)
    taper = 1.0 - np.arange(m + 1) / (m + 1.0)
    half *= taper
    coeffs = {}
    for n in range(m + 1):
        c = complex(half[n])
        if c != 0:
            coeffs[n] = c
            if n:
                coeffs[-n] = c.conjugate()
    return TrigPoly(coeffs)


def _gf_for_spacing(degree: int, h: float, cap: int = 1 << 24) -> int:
    # grid factor whose sample spacing 2 pi / next_pow2(gf (d+1)) is <= h
    target = min(cap, int(math.ceil(TWO_PI / h)))
    return max(4, -(-target // (degree + 1)))


def _certify_dichotomy(w: TrigPoly, u: TrigPoly, tau: float) -> str:
    """Certify: at every point either w u > 0 or |w| < tau.

    Where |w| >= tau is covered by the outer superlevel hulls; on those
    hulls the signs of w and u are certified to agree.  Off the hulls
    |w| < tau holds by the superlevel soundness sandwich.  The sample
    spacing is tied to tau: at the hull boundary |w| is only about tau,
    so the Lipschitz slack must sit well below that."""
    if w.degree == 0:
        lvl = float(complex(w.coeff(0)).real)
        if abs(lvl) < tau:
            return "certified"
        _, verdict = certified_min_abs_and_sign(u, ArcSet([(0.0, TWO_PI)]), 64)
        want = "positive" if lvl > 0 else "negative"
        if verdict != want:
            return "failed: constant weight against mixed-sign u"
        return "certified"
    h = tau / (4.0 * w.degree * certified_sup(w, 8))
    for signed in (w, w.scale(-1.0)):
        try:
            _, hull = superlevel_arcs(signed, tau)
        except PreconditionError as exc:
            return f"failed: {exc}"
        if not hull:
            continue
        _, vw = certified_min_abs_and_sign(signed, hull, _gf_for_spacing(w.degree, h))
        if vw != "positive":
            return "failed: weight sign not certified on its own hull"
        u_here = u if signed is w else u.scale(-1.0)
        _, vu = certified_min_abs_and_sign(u_here, hull, _gf_for_spacing(u.degree, h))
        if vu != "positive":
            return "failed: u changes sign where |w| >= tau"
    return "certified"


def _l2_mass(w: TrigPoly) -> float:
    return float(abs(complex(w.l2_norm_sq())))


def _min_gap(plus: ArcSet, minus: ArcSet) -> float:
    """Smallest circular gap between a plus arc and an adjacent minus arc."""
    labeled = sorted([(a, b, 0) for a, b in plus.arcs]
                     + [(a, b, 1) for a, b in minus.arcs])
    gap = TWO_PI
    for i, (_, b, lab) in enumerate(labeled):
        a_next, _, lab_next = labeled[(i + 1) % len(labeled)]
        if lab != lab_next:
            gap = min(gap, (a_next - b) % TWO_PI)
    return gap


def energy_threshold(N: int, mode: str) -> float:
    """Required L2 mass of w: (1 + e^-N)^(-1/N) in theoretical mode, the
    flagged desk-scale value 1/2 otherwise."""
    if mode == "theoretical":
        return (1.0 + math.exp(-N)) ** (-1.0 / N)
    return 0.5


def build_w(u: TrigPoly, N: int, c3: float, mode: str = "empirical",
            degree_budget: int = 4096):
    """Real weight with certified sup <= 1, certified sign dichotomy at
    level c3 against u, and L2 mass above the mode threshold.

    Candidates in order of degree: a constant (u sign-definite), u scaled
    to unit coefficient-l1 (sup <= 1 structurally), then Fejer means of
    a notched sign pattern of u at increasing degree."""
    if not u.coeffs:
        raise PreconditionError("u must be nonzero", field="u")
    if not u.is_real():
        raise PreconditionError("u must be real", field="u")
    if not 0 < c3 < 1:
        raise PreconditionError("c3 must lie in (0, 1)", field="c3")
    threshold = energy_threshold(N, mode)
    tmode = "theoretical" if mode == "theoretical" else "empirical-flagged"

    full = ArcSet([(0.0, TWO_PI)])
    _, u_verdict = certified_min_abs_and_sign(u, full, 64)
    if u_verdict in ("positive", "negative"):
        w = TrigPoly.const(1.0 if u_verdict == "positive" else -1.0)
        cert = WeightCert("constant", 0, 1.0, 1.0, threshold, tmode, c3, "certified")
        return w, cert

    l1 = u.coeff_l1()
    w = u.scale(1.0 / l1)
    sup = w.coeff_l1()
    if sup <= 1.0 and _l2_mass(w) >= threshold:
        # w is a positive multiple of u, so w u = u^2 / l1 is positive off
        # the zeros of u and |w| vanishes on them: the dichotomy holds
        # structurally at any tau > 0
        cert = WeightCert("unit-l1-scaled", w.degree, sup, _l2_mass(w),
                          threshold, tmode, c3, "certified")
        return w, cert

    # Fejer means of the notched sign pattern of u.  The notch level
    # kappa keeps the regions away from every zero of u (tangential ones
    # included); without it the dichotomy is false wherever u vanishes
    # inside a region, since there |w| stays near 1 but w u = 0.
    sup_u = certified_sup(u, 8)
    for kf in (0.32, 0.16, 0.08, 0.04):
        kappa = kf * sup_u
        try:
            plus, _ = superlevel_arcs(u, kappa)
            minus, _ = superlevel_arcs(u.scale(-1.0), kappa)
        except PreconditionError:
            continue
        if not plus or not minus:
            continue
        coverage = (plus.measure + minus.measure) / TWO_PI
        if coverage < threshold:
            continue
        gap = _min_gap(plus, minus)
        if gap <= 0:
            continue
        # the kernel tail past half a notch must sit under the dichotomy
        # level, which needs roughly m > 8 / (c3 * gap)
        m = 1 << max(3, math.ceil(math.log2(8.0 / (c3 * gap))))
        l2_reached = False
        while m <= degree_budget:
            w = _fejer_step_weight(plus, minus, m)
            l2 = _l2_mass(w)
            if l2 >= threshold:
                l2_reached = True
                verdict = _certify_dichotomy(w, u, c3)
                if verdict == "certified":
                    cert = WeightCert("fejer", w.degree, 1.0, l2, threshold,
                                      tmode, c3, verdict, fejer_m=m)
                    return w, cert
            m *= 2
        if l2_reached:
            # smaller kappa only narrows the notches and needs higher degree
            break
    raise ResourceError(
        "no weight within the degree budget met the threshold",
        budget=degree_budget, required=2 * degree_budget,
    )


def build_P(phi: TrigPoly, nu: int, N: int, c3: float) -> TrigPoly:
    """P(t) = (1/(c3 N)) sum_j phi(nu^j t).  The dilates have pairwise
    disjoint spectra, so the coefficient-l1 norm is exactly l1(phi)/c3."""
    if nu <= phi.degree:
        raise PreconditionError("nu must exceed deg phi for disjoint spectra", field="nu")
    if N < 1:
        raise PreconditionError("N must be >= 1", field="N")
    acc = TrigPoly.zero()
    for j in range(1, N + 1):
        acc = acc + phi.dilate(nu**j)
    return acc.scale(1.0 / (c3 * N))


def _spline_hat(n: np.ndarray, eta: float, r: int) -> np.ndarray:
    """Transform of the r-fold autoconvolution of a box of width eta/r:
    a cardinal-sine power, nonnegative kernel, unit mass."""
    x = n * (eta / (2.0 * r)) / math.pi  # np.sinc(x) = sin(pi x)/(pi x)
    return np.sinc(x) ** r


def _deriv_l1_bound(f: TrigPoly) -> float:
    # int |f'| <= 2 pi sqrt(sum n^2 |c_n|^2) by Cauchy-Schwarz + Parseval
    acc = 0.0
    for n, c in f.coeffs.items():
        acc += (n * abs(complex(c))) ** 2
    return TWO_PI * math.sqrt(acc)


def _level_floor(X: TrigPoly, K: ArcSet, c3: float):
    """Certified lower bound for X on K that strictly beats c3.

    Pointwise Lipschitz certification of min_K X is hopeless here: the
    slack scales with deg X while the true gap above c3 is tiny.  The
    adaptive superlevel bisection refines only near the level set, so we
    ladder down levels c3 + beta until the inner arcs swallow K."""
    beta = 0.25 * c3
    while beta > 1e-6 * c3:
        inner, _ = superlevel_arcs(X, c3 + beta, grid_factor=8)
        if inner and K.subset_of(inner):
            return c3 + beta, True
        beta *= 0.5
    return 0.0, False


def _dilation_margin(E: ArcSet, G: ArcSet, cap: float = 0.5) -> float:
    """Largest m (up to cap, within bisection tolerance) with
    dilate(E, m) still inside G."""
    if not E.subset_of(G):
        return 0.0
    lo, hi = 0.0, cap
    if E.dilate(cap).subset_of(G):
        return cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if E.dilate(mid).subset_of(G):
            lo = mid
        else:
            hi = mid
    return lo


def _exact_delta(delta: float) -> Fraction:
    # round down so the knot count can only grow (conservative)
    return Fraction(math.floor(delta * 10**9), 10**9)


def run_principal(config: PrincipalConfig) -> PrincipalOutput:
    q, N, mode = config.q, config.N, config.mode
    c1, c3 = config.c1_value, config.c3
    report = []

    def note(name, value):
        report.append((name, value))

    # 1. flat auxiliary polynomial
    bundle = build_phi(q, config.gamma)
    phi = bundle.to_trigpoly()
    phi_l1 = phi.coeff_l1()
    note("phi_k", bundle.k)
    note("phi_a_q_norm", bundle.a_norm)
    note("phi_l1", phi_l1)

    # 2. weight; the dichotomy level is c3/l1(phi) so that the sign chain
    # |P w| > 1 => |w| > c3/l1(phi) closes for any phi scale
    tau = c3 / phi_l1
    w, w_cert = build_w(config.u, N, tau, mode, config.w_degree_budget)
    note("w_method", w_cert.method)
    note("w_l2", w_cert.l2)

    # 3. lacunarity
    nu = choose_nu(phi, w, N)
    note("nu", nu)

    # 4. signed atomic measure on I0
    rho = build_rho(I0[0], I0[1], _exact_delta(config.delta))
    note("rho_knots", rho.n)
    note("delta", config.delta)

    # 5. lambda averaged against rho
    spec = RieszSpec(phi, w, N, nu, mode="exact")
    lam = TrigPoly.zero()
    for s_j, m_j in zip(rho.knots, rho.masses):
        lam = lam + riesz_lambda(spec, s_j).scale(float(m_j))
    lam = lam.to_float()
    lam_mass = complex(lam.coeff(0)).real
    note("lambda_mass", lam_mass)
    note("lambda_terms", len(lam.coeffs))

    # per-atom expectations E(X_j) = s |phi|_2^2 |w|_2^2
    phi_l2 = float(abs(complex(phi.l2_norm_sq())))
    atom_means = [float(s_j) * phi_l2 * w_cert.l2 for s_j in rho.knots]
    note("atom_means_min", min(atom_means))

    # defect of lambda against the atomic-moment bound
    lam_defect = _a_q_window_norm(lam, q)
    lam_bound = config.delta * math.exp(config.gamma**q * N / q)
    note("lambda_a_q_defect", lam_defect)
    note("lambda_defect_bound", lam_bound)

    # 6. dilate average
    X = spec.average_poly()
    sup_X = certified_sup(X)
    note("X_degree", X.degree)
    note("X_sup_bound", sup_X)

    # 7. superlevel arcs at c1, and the retreat level c3 = c1/2
    E_inner, _ = superlevel_arcs(X, c1, grid_factor=8)
    E = E_inner.snap_inward(24)
    if not E:
        raise CertificateError("superlevel-empty", 0.0, c1,
                               "X never certifiably reaches c1")
    G3, _ = superlevel_arcs(X, c3, grid_factor=8)
    note("E_measure", E.measure)
    note("E_arcs", len(E.arcs))

    # 8. mollifier width from the certified containment margin
    margin = _dilation_margin(E, G3)
    if margin <= 0:
        raise CertificateError("margin", margin, 0.0,
                               "no certified gap between E and {X > c3}")
    eta = config.eta if config.eta > 0 else 1.8 * margin
    K = E.dilate(eta / 2.0)
    if not K.subset_of(G3):
        raise CertificateError("containment", eta / 2.0, margin,
                               "dilated E escapes the certified region X > c3")
    note("margin", margin)
    note("eta", eta)
    note("K_measure", K.measure)

    # 9. restricted coefficients of lambda over E, exactly
    lam_seq = lam.as_coeffseq()
    r = config.r
    M_f = config.window or _auto_window(eta, r)
    h_hat = restricted_fourier(lam_seq.window, lam_seq.M, E, M_f)
    note("f_window", M_f)

    # 10. mollify: f_hat(n) = h_hat(n) chi_hat(n), with the closed-form
    # spline transform providing the power tail
    ns = np.arange(-M_f, M_f + 1)
    f_window = h_hat * _spline_hat(ns, eta, r)
    # variation of h = lambda 1_E: interior variation of lambda plus the
    # jumps at the arc endpoints (each at most sup lambda <= l1 norm)
    var_h = _deriv_l1_bound(lam) + 2.0 * len(E.arcs) * lam.coeff_l1()
    tail_const = (var_h / TWO_PI) * (2.0 * r / eta) ** r
    f = CoeffSeq(f_window, M_f, tail_const=tail_const, tail_exp=r + 1.0)

    # 11. polynomial P and the certificate chain
    P = build_P(phi, nu, N, c3)
    a_norm_P = P.coeff_l1()
    Cq = phi_l1 / c3
    note("P_a_norm", a_norm_P)
    note("Cq", Cq)

    min_X_on_K, x_ok = _level_floor(X, K, c3)
    min_abs_P = min_X_on_K / c3
    # on K: |P| >= P w = X/c3 > 1, and |w| >= X/(c3 |P|_A) > tau forces
    # w u > 0 there by the dichotomy, hence P u = (P w)(w u)/w^2 > 0
    sign_ok = x_ok and w_cert.dichotomy == "certified" and w_cert.sup_bound <= 1.0
    sign_Pu = "positive" if sign_ok else "unknown"

    defect = _defect_interval(f, q)
    note("a_q_defect_lo", defect.lo)
    note("a_q_defect_hi", defect.hi)

    out_max, out_bound = outside_report(f, K)
    note("f_outside_max", out_max)
    note("f_outside_bound", out_bound)

    certificates = {
        "a_q_defect": defect,
        "min_abs_P": min_abs_P,
        "min_abs_P_ok": bool(min_abs_P > 1.0 and x_ok),
        "sign_Pu": sign_Pu,
        "a_norm_P": a_norm_P,
        "Cq": Cq,
        "min_X_on_K": min_X_on_K,
        "w_sup": w_cert.sup_bound,
        "w_l2": w_cert.l2,
        "w_l2_ok": bool(w_cert.l2 >= w_cert.threshold),
        "lambda_mass": lam_mass,
        "lambda_defect": lam_defect,
        "lambda_defect_bound": lam_bound,
        "lambda_defect_ok": bool(lam_defect <= lam_bound),
        "atom_means": atom_means,
        "atom_means_ok": bool(min(atom_means) > 0.01),
        "f_outside_max": out_max,
        "f_outside_bound": out_bound,
        "achieved_eps": defect.hi,
    }

    if mode == "theoretical":
        _assert_certificates(certificates, config.eps)

    return PrincipalOutput(
        K=K, f=f, P=P, certificates=certificates, E=E, w=w, w_cert=w_cert,
        X=X, lam=lam, eta=eta, report=tuple(report),
    )


def _auto_window(eta: float, r: int) -> int:
    # 16 halvings of the spline factor past its decay knee 2r/eta; keeps
    # the truncation residue outside K a couple of orders under the tails
    target = int(16.0 * 2.0 * r / eta)
    M = 1 << 14
    while M < target and M < _MAX_WINDOW:
        M <<= 1
    return min(M, _MAX_WINDOW)


def _a_q_window_norm(g: TrigPoly, q: float) -> float:
    acc = 0.0
    for n, c in g.coeffs.items():
        if n == 0:
            continue
        acc += abs(complex(c)) ** q
    zero_dev = abs(complex(g.coeff(0)) - 1.0) ** q
    return (acc + zero_dev) ** (1.0 / q)


def _defect_interval(f: CoeffSeq, q: float) -> Interval:
    window = -f.window.copy()
    window[f.M] += 1.0
    return CoeffSeq(window, f.M, f.tail_const, f.tail_exp).a_p_norm(q)


def outside_report(f: CoeffSeq, K: ArcSet, grid_cap: int = 1 << 23):
    """Max of the windowed f over a uniform grid restricted to the
    complement of K, plus the rigorous off-window slack."""
    comp = K.complement()
    if not comp:
        return 0.0, f.tail_l1()
    M_g = 1 << 12
    while M_g < 2 * (f.M + 1) and M_g < grid_cap:
        M_g <<= 1
    vals = synth_real(f.window[f.M :], M_g)
    t = np.arange(M_g) * (TWO_PI / M_g)
    outside = np.abs(vals[~K.mask(t)])
    mx = float(outside.max()) if outside.size else 0.0
    return mx, f.tail_l1()


def _assert_certificates(certs: dict, eps: float) -> None:
    checks = [
        ("w-l2-threshold", certs["w_l2_ok"], certs["w_l2"], 0.0),
        ("min-abs-P", certs["min_abs_P_ok"], certs["min_abs_P"], 1.0),
        ("sign-Pu", certs["sign_Pu"] == "positive", 0.0, 0.0),
        ("lambda-defect", certs["lambda_defect_ok"], certs["lambda_defect"],
         certs["lambda_defect_bound"]),
        ("a-q-defect", certs["achieved_eps"] <= eps, certs["achieved_eps"], eps),
    ]
    for name, ok, lhs, rhs in checks:
        if not ok:
            raise CertificateError(name, lhs, rhs, f"certificate {name} failed")
