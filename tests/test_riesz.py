"""Riesz products: normalization, moments, concentration."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from trigcert import PreconditionError, ResourceError, TrigPoly
from trigcert.concentration import check_almost_multiplicative
from trigcert.riesz import (
    RieszSpec,
    c2_constant,
    choose_nu,
    grid_space,
    l2_concentration_check,
    lambda_evaluator,
    riesz_lambda,
    verify_moment_formula,
)

COS_EXACT = TrigPoly.cosine(1, exact=True)
ONE = TrigPoly.const(1)


def spec_cos(N=2, nu=None, w=None):
    w = ONE if w is None else w
    nu = nu if nu is not None else choose_nu(COS_EXACT, w, N)
    return RieszSpec(COS_EXACT, w, N, nu)


class TestChooseNu:
    def test_oracles(self):
        assert choose_nu(TrigPoly.cosine(1), ONE, 2) == 3
        assert choose_nu(TrigPoly.cosine(2), TrigPoly.cosine(1), 4) == 9
        assert choose_nu(TrigPoly.cosine(1), ONE, 1) == 3


class TestSpecValidation:
    def test_nu_too_small(self):
        with pytest.raises(PreconditionError, match="nu"):
            RieszSpec(COS_EXACT, ONE, 2, 2)

    def test_phi_mean_must_vanish(self):
        with pytest.raises(PreconditionError, match="mean"):
            RieszSpec(TrigPoly.cosine(1) + 0.5, ONE, 2, 5)

    def test_phi_sup_bound(self):
        with pytest.raises(PreconditionError, match="sup"):
            RieszSpec(TrigPoly.cosine(1).scale(1.5), ONE, 2, 3)

    def test_exact_budget(self):
        with pytest.raises(ResourceError):
            RieszSpec(COS_EXACT, ONE, 12, 101)


class TestLambda:
    def test_worked_instance(self):
        spec = spec_cos(N=2, nu=3)
        lam = riesz_lambda(spec, Fraction(1, 4))
        assert lam.coeff(0) == 1
        assert complex(lam.eval_at(0.0)[0]).real == pytest.approx(25 / 16, abs=1e-12)

    def test_mass_exactly_one(self):
        spec = spec_cos(N=4, nu=3)
        lam = riesz_lambda(spec, Fraction(3, 10))
        assert lam.coeff(0) == 1  # exact Fraction identity, not a float

    def test_single_factor_spectrum(self):
        spec = spec_cos(N=1, nu=3)
        lam = riesz_lambda(spec, Fraction(1, 4))
        assert lam.freqs.tolist() == [-3, 0, 3]

    def test_small_s_near_one(self):
        spec = spec_cos(N=3, nu=3)
        ev = lambda_evaluator(spec, 1e-9)
        t = np.linspace(0, 2 * math.pi, 64)
        assert np.abs(ev(t) - 1.0).max() < 1e-8

    def test_evaluator_matches_expansion(self):
        spec = spec_cos(N=3, nu=3)
        lam = riesz_lambda(spec, 0.3)
        ev = lambda_evaluator(spec, 0.3)
        t = np.linspace(0, 2 * math.pi, 41)
        assert np.allclose(lam.eval_at(t).real, ev(t), atol=1e-10)

    def test_positivity(self):
        # every factor 1 + s w phi is at least 1 - s, so lambda >= (1 - s)^N
        spec = spec_cos(N=3, nu=3)
        t = 2 * math.pi * np.arange(1 << 12) / (1 << 12)
        gmin = float(lambda_evaluator(spec, 0.3)(t).min())
        assert gmin >= 0.7**3 - 1e-12
        assert gmin == pytest.approx(0.7**3, abs=1e-12)  # cos(3^j t) = -1 at t = pi

    def test_s_range(self):
        with pytest.raises(PreconditionError):
            riesz_lambda(spec_cos(), Fraction(3, 2))


class TestMoments:
    def test_pair_subset_exact(self):
        spec = spec_cos(N=2, nu=3)
        lhs, rhs, err = verify_moment_formula(spec, Fraction(1, 4), [1, 2])
        assert lhs == Fraction(1, 64)
        assert rhs == Fraction(1, 64)
        assert err == 0

    def test_single_subset_exact(self):
        spec = spec_cos(N=2, nu=3)
        lhs, rhs, err = verify_moment_formula(spec, Fraction(1, 4), [1])
        assert lhs == Fraction(1, 8)
        assert rhs == Fraction(1, 8)

    def test_disjoint_spectra_multiplicativity(self):
        p0 = TrigPoly.cosine(1) + 1.0
        p1 = TrigPoly.cosine(1) + 2.0
        prod = p0 * p1.dilate(2)
        assert complex(prod.mean()).real == pytest.approx(2.0, abs=1e-14)

    def test_expectations_equal_across_j(self):
        spec = spec_cos(N=4, nu=3)
        vals = [verify_moment_formula(spec, Fraction(3, 10), [j])[0] for j in range(1, 5)]
        assert all(v == vals[0] for v in vals)

    def test_all_subsets_random_specs(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            deg_phi = int(rng.integers(1, 3))
            amps = rng.uniform(0.1, 0.45, size=deg_phi)
            phi = TrigPoly.zero()
            for d, a in enumerate(amps, start=1):
                phi = phi + TrigPoly.cosine(d, a / deg_phi)
            use_w = trial % 2 == 0
            w = TrigPoly.cosine(1, 0.9) if use_w else ONE
            N = int(rng.integers(1, 4))
            spec = RieszSpec(phi, w, N, choose_nu(phi, w, N))
            s = float(rng.uniform(0.05, 0.9))
            for size in range(1, N + 1):
                for A in combinations(range(1, N + 1), size):
                    lhs, rhs, err = verify_moment_formula(spec, s, A)
                    assert err <= 1e-10

    def test_jensen_direction(self):
        # with nonconstant w the subset moment dominates the product of
        # the singleton moments
        phi = TrigPoly.cosine(1, 0.9)
        w = TrigPoly.cosine(1, 0.8)
        spec = RieszSpec(phi, w, 3, choose_nu(phi, w, 3))
        s = 0.3
        singles = [verify_moment_formula(spec, s, [j])[0] for j in (1, 2, 3)]
        for size in (2, 3):
            for A in combinations((1, 2, 3), size):
                lhs, _, _ = verify_moment_formula(spec, s, A)
                prod = math.prod(singles[j - 1] for j in A)
                assert lhs >= prod - 1e-12

    def test_empty_subset_rejected(self):
        with pytest.raises(PreconditionError):
            verify_moment_formula(spec_cos(), 0.25, [])


class TestGridSpace:
    def test_exact_quadrature_deviation(self):
        spec = spec_cos(N=3, nu=3)
        space, xs, deviation = grid_space(spec, Fraction(3, 10))
        assert deviation <= 1e-12
        rep = check_almost_multiplicative(space, xs, eps=1e-10)
        assert rep.verdict == "pass"
        assert rep.mu == pytest.approx(0.15, abs=1e-12)  # s/2


class TestConcentration:
    def test_c2_formula(self):
        assert c2_constant(2e-5) == pytest.approx(5.7837e-6, rel=1e-3)
        assert c2_constant(0.05) < 0

    def test_theoretical_mode_rejects_bad_c1(self):
        spec = spec_cos(N=2, nu=3)
        with pytest.raises(PreconditionError, match="c2"):
            l2_concentration_check(spec, 0.3, c1=0.02, mode="theoretical")

    def test_theoretical_holds_trivially(self):
        spec = spec_cos(N=3, nu=3)
        rep = l2_concentration_check(spec, 0.3, mode="theoretical")
        assert rep.holds  # rhs is essentially 2, lhs is at most ||lambda||^2
        assert rep.method == "exact-arcs"

    def test_empirical_mode_reports(self):
        spec = spec_cos(N=3, nu=3)
        rep = l2_concentration_check(spec, 0.3, c1=0.02, mode="empirical")
        assert rep.lhs >= 0
        assert rep.rhs >= 2.0  # negative exponent: bound is trivial here
        assert rep.c2 == pytest.approx(c2_constant(0.02))

    def test_exact_upper_bounds_grid_value(self):
        # the certified lhs bounds the plain quadrature of lambda^2 over
        # {X < c1} on a grid finer than the integrand degree
        spec = spec_cos(N=3, nu=3)
        exact = l2_concentration_check(spec, 0.3, c1=0.02, mode="empirical")
        t = 2 * math.pi * np.arange(1 << 14) / (1 << 14)
        lam = lambda_evaluator(spec, 0.3)(t)
        below = spec.average_poly().eval_at(t).real < 0.02
        grid = float(np.mean(lam**2 * below))
        assert exact.lhs >= grid - 1e-9

    def test_s_outside_range_rejected(self):
        spec = spec_cos(N=2, nu=3)
        with pytest.raises(PreconditionError, match="1/4"):
            l2_concentration_check(spec, 0.5)
