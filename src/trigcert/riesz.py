"""Riesz-type products lambda_s(t) = prod_j (1 + s w(t) phi(nu^j t)).

With nu larger than twice every participating degree, the factors have
pairwise disjoint spectra in the nu-adic sense: the only way a product
of terms lands on frequency zero is taking 1 from every factor.  That
single fact gives unit mass, equal expectations, the closed-form subset
moments, and the concentration of the mass of lambda_s^2 on the set
where the average X(t) = w(t) (1/N) sum_j phi(nu^j t) is not small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .concentration import DiscreteProbSpace
from .errors import PreconditionError, ResourceError
from .gridcert import certified_sup, indicator_coeffs, superlevel_arcs, uniform_grid
from .trigpoly import QComplex, TrigPoly, _window_convolve, next_pow2

# exact expansion cap: the dense window of lambda_s must stay addressable
_EXACT_DEGREE_BUDGET = 1 << 20

# dyadic grid of l2_concentration_check's inner superlevel set
_GRID_BITS = 22

S_RANGE = (Fraction(1, 4), Fraction(1, 3))

DEFAULT_C1_THEORETICAL = 2e-5


def choose_nu(phi: TrigPoly, w: TrigPoly, N: int) -> int:
    """Smallest nu with nu > 2 max{deg phi, N deg w}."""
    if N < 1:
        raise PreconditionError("N must be >= 1", field="N")
    return 2 * max(phi.degree, N * w.degree) + 1


@dataclass(frozen=True)
class RieszSpec:
    """Inputs of the product: real phi with zero mean and sup <= 1, real
    w with sup <= 1, N factors, lacunarity nu."""

    phi: TrigPoly
    w: TrigPoly
    N: int
    nu: int

    def __post_init__(self):
        if self.N < 1:
            raise PreconditionError("N must be >= 1", field="N")
        if not self.phi.is_real():
            raise PreconditionError("phi must be real", field="phi")
        if not self.w.is_real():
            raise PreconditionError("w must be real", field="w")
        if self.phi.coeff(0) != 0:
            raise PreconditionError("phi must have zero mean", field="phi")
        if self.nu <= 2 * max(self.phi.degree, self.N * self.w.degree):
            raise PreconditionError(
                f"nu = {self.nu} is not > 2 max(deg phi, N deg w)", field="nu"
            )
        if certified_sup(self.phi, 8) > 1 + 1e-6:
            raise PreconditionError("phi must have certified sup <= 1", field="phi")
        if certified_sup(self.w, 8) > 1 + 1e-6:
            raise PreconditionError("w must have certified sup <= 1", field="w")
        if self.total_degree > _EXACT_DEGREE_BUDGET:
            raise ResourceError(
                "exact expansion exceeds the coefficient budget "
                f"(total degree about nu^N = {self.nu}^{self.N})",
                budget=_EXACT_DEGREE_BUDGET,
                required=self.total_degree,
            )

    @property
    def total_degree(self) -> int:
        return (
            sum(self.nu**j * self.phi.degree for j in range(1, self.N + 1))
            + self.N * self.w.degree
        )

    def variable_poly(self, j: int) -> TrigPoly:
        """X_j(t) = w(t) phi(nu^j t)."""
        if not 1 <= j <= self.N:
            raise PreconditionError("j out of range", field="j")
        return self.w * self.phi.dilate(self.nu**j)

    def average_poly(self) -> TrigPoly:
        """X(t) = w(t) (1/N) sum_j phi(nu^j t)."""
        acc = TrigPoly.zero()
        for j in range(1, self.N + 1):
            acc = acc + self.phi.dilate(self.nu**j)
        return self.w * acc.scale(1.0 / self.N)


def _check_s(s):
    sf = float(s)
    if not 0 < sf < 1:
        raise PreconditionError("s must be in (0, 1)", field="s")
    return s


def riesz_lambda(spec: RieszSpec, s) -> TrigPoly:
    """The product itself, expanded; Fraction inputs come out exact."""
    _check_s(s)
    lam = TrigPoly.const(1)
    for j in range(1, spec.N + 1):
        factor = TrigPoly.const(1) + (spec.w * spec.phi.dilate(spec.nu**j)).scale(s)
        lam = lam * factor
    return lam


def lambda_evaluator(spec: RieszSpec, s):
    sf = float(s)

    def evaluate(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        acc = np.ones_like(t)
        wv = spec.w.eval_at(t).real
        for j in range(1, spec.N + 1):
            acc = acc * (1.0 + sf * wv * spec.phi.eval_at(spec.nu**j * t).real)
        return acc

    return evaluate


def verify_moment_formula(spec: RieszSpec, s, A):
    """lhs = E[prod_{j in A} X_j] under d mu_s = lambda_s dm; rhs is the
    closed form (s ||phi||_L2^2)^|A| * mean(w^(2|A|)).

    lhs is the mean of the expanded integrand; Fraction inputs come out
    exact.
    """
    _check_s(s)
    A = sorted(set(int(j) for j in A))
    if not A or A[0] < 1 or A[-1] > spec.N:
        raise PreconditionError("A must be a nonempty subset of 1..N", field="A")
    w2a = TrigPoly.const(1)
    for _ in range(2 * len(A)):
        w2a = w2a * spec.w
    l2 = spec.phi.l2_norm_sq()
    if isinstance(s, Fraction) and isinstance(l2, Fraction):
        rhs = (s * l2) ** len(A) * w2a.mean()
    else:
        rhs = (float(s) * float(l2)) ** len(A) * w2a.mean()
    integrand = riesz_lambda(spec, s)
    for j in A:
        integrand = integrand * spec.variable_poly(j)
    lhs = integrand.mean()
    lhs, rhs = _as_real(lhs), _as_real(rhs)
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        err = float(abs(lhs - rhs))
    else:
        lhs, rhs = float(lhs), float(rhs)
        err = abs(lhs - rhs)
    return lhs, rhs, err


def _as_real(x):
    if isinstance(x, QComplex):
        if x.im != 0:
            return complex(x).real
        return x.re
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, complex):
        return x.real
    return x


# -- L2 concentration --------------------------------------------------------


def c2_constant(c1: float) -> float:
    """(1/8)(1/100 - c1)^2 - c1/3: one admissible constant pair tying the
    tail exponent to the cutoff c1."""
    return (0.01 - c1) ** 2 / 8.0 - c1 / 3.0


@dataclass(frozen=True)
class ConcentrationReport:
    lhs: float
    rhs: float
    holds: bool
    c1: float
    c2: float
    mode: str
    method: str
    resolution: int


def l2_concentration_check(
    spec: RieszSpec,
    s,
    c1: float = DEFAULT_C1_THEORETICAL,
    mode: str = "theoretical",
) -> ConcentrationReport:
    """Upper-bound integral of lambda_s^2 over {X < c1} against 2 e^{-c2 N}.

    lhs is ||lambda||_2^2 minus the integral of lambda^2 over an inner
    (certified) superlevel set of X, snapped inward to the dyadic grid of
    _GRID_BITS bits and computed through indicator Fourier coefficients;
    it is an upper bound on the true integral, so `holds` is a sound
    claim.
    """
    _check_s(s)
    sf = float(s)
    if not float(S_RANGE[0]) < sf < float(S_RANGE[1]):
        raise PreconditionError("s must lie in (1/4, 1/3)", field="s")
    if float(spec.phi.l2_norm_sq()) < 0.25 - 1e-12:
        raise PreconditionError("phi must satisfy ||phi||_L2 >= 1/2", field="phi")
    c2 = c2_constant(c1)
    if mode == "theoretical" and c2 <= 0:
        raise PreconditionError(
            f"c1 = {c1} gives nonpositive tail exponent c2 = {c2}", field="c1"
        )
    if mode not in ("theoretical", "empirical"):
        raise PreconditionError("mode must be theoretical or empirical", field="mode")
    rhs = 2.0 * math.exp(-c2 * spec.N)
    X = spec.average_poly()
    seq = riesz_lambda(spec, s).as_coeffseq()
    inner, _ = superlevel_arcs(X, c1, grid_factor=8)
    total = float(seq.l2_norm_sq_window())
    if inner:
        snapped = inner.snap_inward(_GRID_BITS)
        sq = _window_convolve(seq.window, seq.window)
        ind = indicator_coeffs(snapped, 2 * seq.M, _GRID_BITS)
        on_inner = float(np.real(np.vdot(ind, sq)))
    else:
        on_inner = 0.0
    lhs = max(0.0, total - on_inner)
    return ConcentrationReport(lhs, rhs, lhs <= rhs, c1, c2, mode, "exact-arcs",
                               1 << _GRID_BITS)


# -- bridge to finite probability spaces -------------------------------------


def grid_space(spec: RieszSpec, s):
    """(space, variables, normalization deviation): weights proportional
    to lambda_s on a grid of M points strictly finer than every integrand
    degree, so subset-product expectations by quadrature are exact, and
    the N variables as one (N, M) float array.
    """
    _check_s(s)
    deg = 2 * spec.total_degree
    M = next_pow2(deg + 2)
    if M > (1 << 24):
        raise ResourceError("grid for exact quadrature too large", required=M)
    t = uniform_grid(M)
    lam_vals = lambda_evaluator(spec, s)(t)
    total = float(lam_vals.sum())
    deviation = abs(total / M - 1.0)
    weights = lam_vals / total
    variables = np.array([spec.variable_poly(j).eval_at(t).real
                          for j in range(1, spec.N + 1)])
    return DiscreteProbSpace(weights), variables, deviation
