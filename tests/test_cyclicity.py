"""Multiplier deficits, obstruction bounds, smooth witnesses."""

import math

import numpy as np
import pytest

from trigcert import CoeffSeq, PreconditionError, ResourceError, TrigPoly
from trigcert.cyclicity import (
    _power_integrals,
    _smoothed_descent,
    cyclicity_profile,
    multiplier_deficit,
    obstruction_bound,
    smooth_noncyclic_witness,
    witness_values,
)
from trigcert.gridcert import ArcSet

TWO_PI = 2.0 * math.pi

ONE_MINUS_Z = TrigPoly({0: 1.0, 1: -1.0})


class TestMultiplierDeficit:
    def test_p2_oracle(self):
        value, P = multiplier_deficit(ONE_MINUS_Z, 2.0, 0)
        assert value.hi == pytest.approx(math.sqrt(0.5), abs=1e-8)
        assert complex(P.coeff(0)) == pytest.approx(0.5, abs=1e-10)

    def test_p32_ladder(self):
        # residuals of 1 - P (1 - e^{it}) range over all unit-sum vectors
        # on [-d, d+1]; the flat one is optimal, giving (2d+2)^{-1/3}
        prev = None
        for d in (2, 6, 14):
            value, _ = multiplier_deficit(ONE_MINUS_Z, 1.5, d)
            assert value.hi <= (d + 2) ** (-1.0 / 3.0) + 1e-8
            assert value.hi == pytest.approx((2 * d + 2) ** (-1.0 / 3.0), abs=1e-6)
            if prev is not None:
                assert value.hi < prev - 1e-4
            prev = value.hi

    def test_invertible_f_reaches_zero(self):
        value, P = multiplier_deficit(TrigPoly.const(2.0), 2.0, 0)
        assert value.hi <= 1e-12
        assert complex(P.coeff(0)) == pytest.approx(0.5)

    def test_scaling_invariance(self):
        f = TrigPoly({0: 0.3, 1: -0.7, 2: 0.2j, -1: 0.1})
        base, _ = multiplier_deficit(f, 1.5, 3)
        for c in (3.7e4, 1e-6, -2.0):
            scaled, _ = multiplier_deficit(f.scale(c), 1.5, 3)
            assert scaled.hi == pytest.approx(base.hi, abs=1e-8)

    def test_monotone_in_p(self):
        # coefficient norms shrink as p grows, and so do the deficits
        f = TrigPoly({0: 1.0, 1: -0.9, 3: 0.4})
        values = [multiplier_deficit(f, p, 4)[0].hi for p in (1.2, 1.5, 2.0)]
        assert values[0] >= values[1] - 1e-9
        assert values[1] >= values[2] - 1e-9

    def test_p43_value_pinned(self):
        # the smoothed descent's exact result on one p < 2 problem
        f = TrigPoly({0: 1.0, 1: -0.9, 3: 0.4})
        value, _ = multiplier_deficit(f, 4.0 / 3.0, 4)
        assert value.hi == pytest.approx(0.40885459253425877, abs=1e-12)

    def test_p2_matches_descent_solver(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = CoeffSeq(w, 3)
        exact, _ = multiplier_deficit(f, 2.0, 4)
        scale = float(np.abs(w).max())
        from trigcert.cyclicity import _deficit_value, _p2_multiplier
        start = np.zeros(9, dtype=complex)
        P = _smoothed_descent(w / scale, 3, 4, 2.0, start) / scale
        assert _deficit_value(f, P, 4, 2.0).hi == pytest.approx(exact.hi, abs=1e-6)

    def test_tail_widens_interval(self):
        w = np.array([0.2, 1.0, -0.3], dtype=complex)
        exact, _ = multiplier_deficit(CoeffSeq(w, 1), 2.0, 1)
        tailed, _ = multiplier_deficit(CoeffSeq(w, 1, 1e-3, 2.0), 2.0, 1)
        assert exact.lo == exact.hi
        assert tailed.lo < tailed.hi
        assert tailed.hi > exact.hi

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            multiplier_deficit(ONE_MINUS_Z, 1.0, 2)
        with pytest.raises(PreconditionError):
            multiplier_deficit(ONE_MINUS_Z, 2.5, 2)
        with pytest.raises(PreconditionError):
            multiplier_deficit(ONE_MINUS_Z, 2.0, -1)
        with pytest.raises(PreconditionError):
            multiplier_deficit(TrigPoly.zero(), 2.0, 2)

    def test_dimension_budget(self):
        with pytest.raises(ResourceError):
            multiplier_deficit(ONE_MINUS_Z, 2.0, 3_000)


class TestCyclicityProfile:
    def test_nonincreasing(self):
        rows = cyclicity_profile(ONE_MINUS_Z, 1.5, 12)
        values = [v.hi for _, v in rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert [d for d, _ in rows] == list(range(13))

    def test_custom_ladder(self):
        rows = cyclicity_profile(ONE_MINUS_Z, 2.0, 8, ds=(0, 4, 8))
        assert [d for d, _ in rows] == [0, 4, 8]

    def test_doubling_ladder_past_16(self):
        rows = cyclicity_profile(TrigPoly.const(1.0), 2.0, 40)
        assert [d for d, _ in rows][-2:] == [32, 40]


class TestObstructionBound:
    def test_oracle(self):
        S = CoeffSeq(np.ones(3, dtype=complex), 1)
        f = TrigPoly({3: 1.0})
        bound, residual = obstruction_bound(S, f, 1.5, 1)
        assert residual == 0.0
        assert bound == pytest.approx(3.0 ** (-1.0 / 3.0), abs=1e-10)

    def test_bound_is_respected_by_solver(self):
        # S = delta_hat at 0 pairs residual-free with a far spectrum f;
        # the certified bound 1 is attained by P = 0
        S = CoeffSeq(np.array([2.0 + 0j]), 0)
        f = TrigPoly({9: 0.4, 10: 1.0})
        bound, residual = obstruction_bound(S, f, 1.5, 4)
        assert residual == 0.0
        assert bound == pytest.approx(1.0)
        value, _ = multiplier_deficit(f, 1.5, 4)
        assert value.hi >= bound - 1e-9

    def test_nonannihilating_pair_has_residual(self):
        S = ONE_MINUS_Z.as_coeffseq()
        bound, residual = obstruction_bound(S, ONE_MINUS_Z, 2.0, 1)
        assert residual > 0.1

    def test_mean_zero_s_is_vacuous(self):
        S = CoeffSeq(np.array([0.5, 0.0, 0.5], dtype=complex), 1)
        bound, _ = obstruction_bound(S, TrigPoly({5: 1.0}), 1.5, 0)
        assert bound == 0.0

    def test_tail_slack_enters_residual(self):
        S = CoeffSeq(np.ones(3, dtype=complex), 1, 1e-2, 2.0)
        f = TrigPoly({3: 1.0})
        _, residual = obstruction_bound(S, f, 1.5, 1)
        assert residual > 0.0

    def test_preconditions(self):
        S = CoeffSeq(np.ones(3, dtype=complex), 1)
        with pytest.raises(PreconditionError):
            obstruction_bound(S, ONE_MINUS_Z, 1.0, 1)
        with pytest.raises(PreconditionError):
            obstruction_bound(S, ONE_MINUS_Z, 1.5, -1)
        with pytest.raises(PreconditionError):
            obstruction_bound(CoeffSeq(np.zeros(1, dtype=complex), 0),
                              ONE_MINUS_Z, 1.5, 1)


class TestPowerIntegrals:
    def test_against_quadrature(self):
        L = 0.8
        # straddle the series/recursion crossover at |n| L = 1
        for n in (0.5, 1.1, 1.2, 1.3, 5.0, 40.0):
            for nn in (n / L, -n / L):
                I = _power_integrals(np.array([nn]), L, 6)
                u = np.linspace(0.0, L, 20001)
                for k in range(7):
                    ref = np.trapezoid(u**k * np.exp(-1j * nn * u), u)
                    # the trapezoid reference dominates the error budget
                    assert abs(I[k, 0] - ref) < 1e-7, (nn, k)


@pytest.fixture(scope="module")
def half_circle():
    return ArcSet([(math.pi / 2, 3 * math.pi / 2)])


def make_witness(K, **kw):
    # any nonzero S passes when the support check is disabled
    S = TrigPoly.const(1.0).as_coeffseq()
    kw.setdefault("outside_tol", float("inf"))
    kw.setdefault("window", 512)
    return smooth_noncyclic_witness(K, S, 1.0, **kw)


class TestWitnessValues:
    def test_zero_on_k_positive_off(self, half_circle):
        t = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        v = witness_values(half_circle, t)
        on = (t >= math.pi / 2) & (t <= 3 * math.pi / 2)
        assert np.abs(v[on]).max() == 0.0
        off = (t < math.pi / 2 - 0.02) | (t > 3 * math.pi / 2 + 0.02)
        assert v[off].min() > 0.0
        assert v.max() == pytest.approx(1.0, abs=1e-6)

    def test_gap_through_zero_stays_positive(self):
        K = ArcSet([(1.0, 2.0)])
        v = witness_values(K, np.array([0.0, 5.0, 1.5]))
        assert v[0] > 0.0 and v[1] > 0.0
        assert v[2] == 0.0


class TestSmoothWitness:
    def test_matches_exact_values(self, half_circle):
        f, _ = make_witness(half_circle)
        t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        ns = np.arange(-f.M, f.M + 1)
        synth = (np.exp(1j * np.outer(t, ns)) @ f.window).real
        assert np.abs(synth - witness_values(half_circle, t)).max() <= f.tail_l1()

    def test_tail_envelope(self, half_circle):
        f, rep = make_witness(half_circle)
        n = np.arange(1, f.M + 1)
        assert (np.abs(f.window[f.M + 1 :]) <= rep["tail_const"] / n**4).all()
        assert rep["tail_exp"] == 4.0

    def test_wrapped_gap_coefficients(self):
        K = ArcSet([(1.0, 2.0)])
        f, _ = make_witness(K)
        t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        ns = np.arange(-f.M, f.M + 1)
        synth = (np.exp(1j * np.outer(t, ns)) @ f.window).real
        assert np.abs(synth - witness_values(K, t)).max() <= f.tail_l1()

    def test_weighted_l1_reported_finite(self, half_circle):
        _, rep = make_witness(half_circle)
        assert 0.0 < rep["weighted_l1_bound"] < math.inf
        assert rep["eps_smooth"] == 1.0

    def test_obstruction_ladder_integration(self, half_circle):
        # an annihilator genuinely carried by K: the witness of the
        # complement vanishes off K, so it passes the support check
        S, _ = make_witness(half_circle.complement())
        f, rep = smooth_noncyclic_witness(half_circle, S, 1.0,
                                          d_ladder=(1, 2, 4), window=512)
        assert rep["s_outside_max"] <= 1e-5
        assert not rep["s_hat0_vacuous"]
        assert rep["ladder_positive"]
        ds = [d for d, _, _ in rep["ladder"]]
        assert ds == [1, 2, 4]
        for _, bound, residual in rep["ladder"]:
            assert bound >= 0.0 and residual >= 0.0

    def test_rejects_unsupported_s(self, half_circle):
        S = TrigPoly.const(1.0).as_coeffseq()
        with pytest.raises(PreconditionError, match="not supported"):
            smooth_noncyclic_witness(half_circle, S, 1.0)

    def test_preconditions(self, half_circle):
        S = TrigPoly.const(1.0).as_coeffseq()
        with pytest.raises(PreconditionError):
            smooth_noncyclic_witness(ArcSet([]), S, 1.0)
        with pytest.raises(PreconditionError):
            smooth_noncyclic_witness(ArcSet.full_circle(), S, 1.0)
        with pytest.raises(PreconditionError):
            smooth_noncyclic_witness(half_circle, S, 3.0,
                                     outside_tol=float("inf"))
        with pytest.raises(PreconditionError):
            smooth_noncyclic_witness(half_circle, S, 0.0,
                                     outside_tol=float("inf"))
