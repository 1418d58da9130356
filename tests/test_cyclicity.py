"""Multiplier deficits, obstruction bounds, smooth witnesses."""

import math

import numpy as np
import pytest

from trigcert import CoeffSeq, PreconditionError, ResourceError, TrigPoly, cyclicity
from trigcert.cyclicity import (
    _multiplier_search,
    _p2_multiplier,
    _power_integrals,
    _toeplitz_inverse,
    cyclicity_profile,
    multiplier_deficit,
    obstruction_bound,
    smooth_noncyclic_witness,
    witness_values,
)
from trigcert.cyclicity import _deficit_value
from trigcert.descent import GAP_REL, smoothed_descent
from trigcert.gridcert import ArcSet

TWO_PI = 2.0 * math.pi


def autocorrelation(fw, d):
    """The first column of the Toeplitz C^H C of the window's 2d+1 shifts."""
    return np.correlate(np.pad(fw, (0, 2 * d)), fw, mode="valid")


def solver(fw, d):
    return _toeplitz_inverse(autocorrelation(fw, d))


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
        assert value.hi == pytest.approx(0.40885487550032695, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 6, 14])
    def test_p32_bracket_holds_the_closed_form(self, d):
        # lo and hi meet at the flat optimum (2d+2)^{-1/3}; both are float
        # values, so each may sit a few ulps on the wrong side of it
        value, _ = multiplier_deficit(ONE_MINUS_Z, 1.5, d)
        exact = (2 * d + 2) ** (-1.0 / 3.0)
        ulps = 4.0 * np.finfo(float).eps * exact
        assert value.lo <= exact + ulps
        assert exact <= value.hi + ulps

    def test_p43_stops_on_gap_with_a_tight_bracket(self, monkeypatch):
        import trigcert.cyclicity as cyc
        stages = []

        def recorded(*args, **kwargs):
            out = smoothed_descent(*args, **kwargs)
            stages.extend(out[2])
            return out

        monkeypatch.setattr(cyc, "smoothed_descent", recorded)
        f = TrigPoly({0: 1.0, 1: -0.9, 3: 0.4})
        value, _ = multiplier_deficit(f, 4.0 / 3.0, 4)
        assert value.lo < value.hi
        assert value.hi - value.lo <= 1e-5 * value.lo
        assert stages[-1]["stop"] == "gap"
        assert sum(s["steps"] for s in stages) == 260
        # a descent run to its stall rule reached 0.40885459253425877, a
        # primal value the dual must not exceed
        assert value.lo <= 0.40885459253425877

    def test_dual_below_a_longer_descent(self):
        # on a random window, the descent without the gap hook runs on to
        # its stall rule; the dual of the gap-stopped search is below the
        # value it reaches, and the gap-stopped primal above it
        M, d, p = 5, 3, 1.3
        w = _random_window(M)
        f = CoeffSeq(w, M)
        value, _ = multiplier_deficit(f, p, d)
        solve = solver(w, d)
        objective, gradient, line, _, _ = _multiplier_search(w, M, d, p, solve)
        P, _, stages = smoothed_descent(_p2_multiplier(w, M, d, solve), objective,
                                        gradient, stall_rel=1e-14, line=line)
        longer = _deficit_value(f, P, d, p).hi
        assert value.lo <= longer <= value.hi
        assert value.hi - value.lo <= GAP_REL * value.lo

    def test_tailed_value_is_the_enclosure_at_p(self):
        # the window dual does not bound a tailed minimum, so a tailed f
        # keeps the norm enclosure at its multiplier
        w = np.array([0.2, 1.0, -0.3], dtype=complex)
        f = CoeffSeq(w, 1, 1e-3, 2.0)
        value, P = multiplier_deficit(f, 1.5, 2)
        P_hat = np.array([complex(P.coeff(n)) for n in range(-2, 3)])
        enclosure = _deficit_value(f, P_hat, 2, 1.5)
        assert (value.lo, value.hi) == (enclosure.lo, enclosure.hi)

    def test_p2_matches_descent_solver(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = CoeffSeq(w, 3)
        exact, _ = multiplier_deficit(f, 2.0, 4)
        scale = float(np.abs(w).max())
        objective, gradient, line, _, gap = _multiplier_search(
            w / scale, 3, 4, 2.0, solver(w / scale, 4))
        start = np.zeros(9, dtype=complex)
        P, _, _ = smoothed_descent(start, objective, gradient, stall_rel=1e-10,
                                   line=line, gap=gap)
        P = P / scale
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


def shift_matrix_multiplier(fw, M, d):
    """The p = 2 multiplier from the explicit matrix of the window's shifts."""
    rows = 2 * (M + d) + 1
    C = np.zeros((rows, 2 * d + 1), dtype=complex)
    for j in range(2 * d + 1):
        C[j : j + 2 * M + 1, j] = fw
    e0 = np.zeros(rows, dtype=complex)
    e0[M + d] = 1.0
    return np.linalg.lstsq(C, e0, rcond=None)[0]


def _random_window(M):
    rng = np.random.default_rng(7)
    w = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
    return w / np.abs(w).max()


P2_WINDOWS = {
    "one_minus_z": (np.array([0.0, 1.0, -1.0], dtype=complex), 1),
    "constant": (np.array([1.0 + 0j]), 0),
    "random": (_random_window(5), 5),
}


class TestP2Multiplier:
    @pytest.mark.parametrize("d", [0, 1, 4, 64])
    @pytest.mark.parametrize("name", sorted(P2_WINDOWS))
    def test_levinson_matches_lstsq(self, name, d):
        fw, M = P2_WINDOWS[name]
        got = _p2_multiplier(fw, M, d, solver(fw, d))
        assert got.shape == (2 * d + 1,)
        assert np.abs(got - shift_matrix_multiplier(fw, M, d)).max() <= 1e-12

    def test_carried_residual_stays_the_convolution(self):
        # the line search carries each trial's residual as r + t (g*f); at
        # every evaluation, each stage's end included, it must still be
        # e0 - P*f to roundoff
        M, d, p = 64, 16, 4.0 / 3.0
        fw = _random_window(M)
        solve = solver(fw, d)
        objective, gradient, line, residual, _ = _multiplier_search(fw, M, d, p,
                                                                    solve)
        e0 = np.zeros(2 * (M + d) + 1, dtype=complex)
        e0[M + d] = 1.0
        drift = []

        def checked(P, mu):
            drift.append(float(np.abs(residual(P) - (e0 - np.convolve(P, fw))).max()))
            return objective(P, mu)

        P, _, stages = smoothed_descent(_p2_multiplier(fw, M, d, solve), checked,
                                        gradient, stall_rel=1e-10, line=line)
        assert [s["mu"] for s in stages] == [1e-2, 1e-4, 1e-8]
        checked(P, 1e-8)
        assert len(drift) > 100
        # the carried residual is in use: it is not the convolution's bits
        assert 0.0 < max(drift) <= 1e-12

    @pytest.mark.parametrize("d", [0, 1, 4, 64])
    @pytest.mark.parametrize("name", sorted(P2_WINDOWS))
    def test_factor_matches_dense_solve(self, name, d):
        # the factor, formed once a rung, applied to y against LAPACK on
        # the dense Toeplitz matrix T_jk = a[j - k]
        fw, _ = P2_WINDOWS[name]
        a = autocorrelation(fw, d)
        n = 2 * d + 1
        jk = np.subtract.outer(np.arange(n), np.arange(n))
        T = np.where(jk >= 0, a[np.abs(jk)], a[np.abs(jk)].conj())
        rng = np.random.default_rng(d)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = np.linalg.solve(T, y)
        got = _toeplitz_inverse(a)(y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [4, 64])
    @pytest.mark.parametrize("name", sorted(P2_WINDOWS))
    def test_projected_dual_annihilates_the_shifts(self, name, d, monkeypatch):
        # the gap's dual bound rests on C^H S' = 0 for its projected dual
        # S'; at every check of a real descent it must hold to roundoff
        # relative to max|S| ||fw||_1 (the random window's d = 64 search
        # checks 19 times, at up to 2.9e-16)
        fw, M = P2_WINDOWS[name]
        p = 4.0 / 3.0
        seen = []
        project = cyclicity._project_null

        def recorded(S, fw, solve):
            out = project(S, fw, solve)
            seen.append((S, out))
            return out

        monkeypatch.setattr(cyclicity, "_project_null", recorded)
        multiplier_deficit(CoeffSeq(fw, M), p, d)
        assert seen
        for S, projected in seen:
            ortho = np.abs(np.correlate(projected, fw, mode="valid")).max()
            assert ortho <= 1e-13 * np.abs(S).max() * np.abs(fw).sum()


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

    def test_rows_bracket_with_each_rungs_own_dual(self):
        # for this f the d = 1 primal ends above the d = 0 one, so that
        # row's hi is d = 0's while its lo must stay d = 1's own dual
        f = TrigPoly({0: 1.0, 2: 0.5, 5: -0.3})
        rows = cyclicity_profile(f, 4.0 / 3.0, 4)
        best, inherited = math.inf, 0
        for d, v in rows:
            own, _ = multiplier_deficit(f, 4.0 / 3.0, d)
            inherited += own.hi > best
            best = min(best, own.hi)
            assert v.lo == own.lo and v.hi == best
        assert inherited

    def test_rows_never_exceed_the_zero_multiplier(self):
        # a wide product tail times ||P||_1 puts the descent's bound above
        # 1 at every rung; P = 0 attains 1 exactly and must be reported
        f = CoeffSeq(np.array([0.5, 1.0, 0.5], dtype=complex), 1, 1.0, 2.0)
        rows = cyclicity_profile(f, 4.0 / 3.0, 8)
        assert all(v.hi <= 1.0 for _, v in rows)
        value, P = multiplier_deficit(f, 4.0 / 3.0, 8)
        assert (value.lo, value.hi) == (1.0, 1.0)
        assert P.freqs.size == 0


class TestObstructionBound:
    # formula oracles: the bound is |S_hat(0)| / ||S||_{A_q}, whatever f is
    def test_oracle(self):
        S = CoeffSeq(np.ones(3, dtype=complex), 1)
        bound = obstruction_bound(S, TrigPoly({3: 1.0}), 1.5)  # q = 3
        assert bound == pytest.approx(3.0 ** (-1.0 / 3.0), abs=1e-10)

    def test_bound_is_respected_by_solver(self):
        # S = 2 delta_0 gives 1; f's spectrum sits at 9 and 10, so a
        # multiplier of degree <= 4 leaves 1 - P*f's mean at 1 and the
        # solver reaches no less
        S = CoeffSeq(np.array([2.0 + 0j]), 0)
        f = TrigPoly({9: 0.4, 10: 1.0})
        bound = obstruction_bound(S, f, 1.5)
        assert bound == pytest.approx(1.0)
        value, _ = multiplier_deficit(f, 1.5, 4)
        assert value.hi >= bound - 1e-9

    def test_mean_zero_s_is_vacuous(self):
        S = CoeffSeq(np.array([0.5, 0.0, 0.5], dtype=complex), 1)
        assert obstruction_bound(S, TrigPoly({5: 1.0}), 1.5) == 0.0

    def test_tail_counts_at_the_norm_hi(self):
        # the tail may add |n|^-2 / 2 at every |n| >= 2: the A_3 norm is
        # only enclosed, and the bound must divide by its upper end
        S = CoeffSeq(np.ones(3, dtype=complex), 1, 0.5, 2.0)
        aq = S.a_p_norm(3.0)
        bound = obstruction_bound(S, TrigPoly({3: 1.0}), 1.5)
        assert bound == 1.0 / aq.hi
        assert bound < 1.0 / aq.lo - 1e-3

    def test_preconditions(self):
        S = CoeffSeq(np.ones(3, dtype=complex), 1)
        with pytest.raises(PreconditionError):
            obstruction_bound(S, ONE_MINUS_Z, 1.0)
        with pytest.raises(PreconditionError):
            obstruction_bound(CoeffSeq(np.zeros(1, dtype=complex), 0),
                              ONE_MINUS_Z, 1.5)


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


@pytest.fixture
def make_witness(monkeypatch):
    # any nonzero S passes when the support check is disabled
    monkeypatch.setattr(cyclicity, "_OUTSIDE_TOL", float("inf"))
    monkeypatch.setattr(cyclicity, "_WITNESS_WINDOW", 512)

    def make(K):
        return smooth_noncyclic_witness(K, TrigPoly.const(1.0).as_coeffseq(), 1.0)

    return make


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
    def test_matches_exact_values(self, half_circle, make_witness):
        f, _ = make_witness(half_circle)
        t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        ns = np.arange(-f.M, f.M + 1)
        synth = (np.exp(1j * np.outer(t, ns)) @ f.window).real
        assert np.abs(synth - witness_values(half_circle, t)).max() <= f.tail_l1()

    def test_tail_envelope(self, half_circle, make_witness):
        f, rep = make_witness(half_circle)
        n = np.arange(1, f.M + 1)
        assert (np.abs(f.window[f.M + 1 :]) <= rep["tail_const"] / n**4).all()
        assert rep["tail_exp"] == 4.0

    def test_wrapped_gap_coefficients(self, make_witness):
        K = ArcSet([(1.0, 2.0)])
        f, _ = make_witness(K)
        t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        ns = np.arange(-f.M, f.M + 1)
        synth = (np.exp(1j * np.outer(t, ns)) @ f.window).real
        assert np.abs(synth - witness_values(K, t)).max() <= f.tail_l1()

    def test_weighted_l1_reported_finite(self, half_circle, make_witness):
        _, rep = make_witness(half_circle)
        assert 0.0 < rep["weighted_l1_bound"] < math.inf
        assert rep["eps_smooth"] == 1.0

    def test_obstruction_integration(self, half_circle, make_witness,
                                     monkeypatch):
        # an annihilator genuinely carried by K: the witness of the
        # complement vanishes off K, so it passes the support check
        S, _ = make_witness(half_circle.complement())
        monkeypatch.setattr(cyclicity, "_OUTSIDE_TOL", 1e-5)
        f, rep = smooth_noncyclic_witness(half_circle, S, 1.0, p=1.5)
        assert rep["s_outside_max"] <= 1e-5
        assert rep["obstruction_bound"] == obstruction_bound(S, f, 1.5)
        assert rep["obstruction_bound_l2"] == obstruction_bound(S, f, 2.0)
        # ||S||_3 <= ||S||_2, so the p row is at least the l2 row
        assert rep["obstruction_bound"] >= rep["obstruction_bound_l2"] > 0.0
        assert rep["obstruction_rigour"].startswith("structural + enclosure")
        for d in (0, 2):
            value, _ = multiplier_deficit(f, 1.5, d)
            assert value.hi >= rep["obstruction_bound"]

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
        # eps_smooth is checked before S's support
        with pytest.raises(PreconditionError, match="eps_smooth"):
            smooth_noncyclic_witness(half_circle, S, 3.0)
        with pytest.raises(PreconditionError, match="eps_smooth"):
            smooth_noncyclic_witness(half_circle, S, 0.0)
