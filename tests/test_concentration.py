"""Tail bound vs exact tails on finite spaces."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from trigcert import PreconditionError, ResourceError
from trigcert.concentration import (
    DiscreteProbSpace,
    bernstein_battery,
    bernstein_bound,
    check_almost_multiplicative,
    tail_probability,
)


class TestBound:
    def test_oracle(self):
        assert bernstein_bound(16, 0.25, 0.0) == pytest.approx(math.exp(-0.125), abs=1e-15)
        assert bernstein_bound(16, 0.25, 0.0) == pytest.approx(0.88250, abs=5e-6)

    def test_alpha_zero(self):
        assert bernstein_bound(16, 0.0, 0.0) == 1.0

    def test_with_eps(self):
        got = bernstein_bound(16, 0.25, math.exp(-16.0))
        assert got == pytest.approx(math.exp(-0.125) + math.exp(-12.0), abs=1e-15)

    def test_monotone(self):
        bounds = [bernstein_bound(10, a, 0.0) for a in (0.1, 0.2, 0.4, 0.8)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        assert bernstein_bound(10, 0.3, 1e-4) > bernstein_bound(10, 0.3, 1e-6)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            bernstein_bound(0, 0.1, 0.0)
        with pytest.raises(PreconditionError):
            bernstein_bound(4, 0.1, 1.0)
        with pytest.raises(PreconditionError):
            bernstein_bound(4, math.nan, 0.0)


class TestSpace:
    def test_weight_validation(self):
        with pytest.raises(PreconditionError):
            DiscreteProbSpace([0.6, 0.6])
        with pytest.raises(PreconditionError):
            DiscreteProbSpace([-0.5, 1.5])

    def test_non_finite_weights_rejected(self):
        # the NaN once made the weight sum NaN, which no comparison caught
        with pytest.raises(PreconditionError, match="finite"):
            DiscreteProbSpace([0.5, 0.5, math.nan])
        with pytest.raises(PreconditionError, match="finite"):
            DiscreteProbSpace([math.inf, 1.0])

    def test_exact_expectation(self):
        space = DiscreteProbSpace([Fraction(3, 4), Fraction(1, 4)])
        assert space.expectation([1, -1]) == Fraction(1, 2)

    def test_coin_product_weights(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 3)
        assert sum(space.weights) == 1
        assert len(space) == 8
        assert space.expectation(xs[0]) == Fraction(1, 2)

    @pytest.mark.parametrize("p", [Fraction(3, 4), 0.3], ids=["exact", "float"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_coin_product_matches_itertools_order(self, p, n):
        # the outcomes in itertools.product order, coin j at position j;
        # the order fixes the float summation order downstream
        q = 1 - p
        outcomes = list(itertools.product(range(2), repeat=n))
        weights = [p ** sum(om) * q ** (n - sum(om)) for om in outcomes]
        variables = [[1 if om[j] else -1 for om in outcomes] for j in range(n)]
        space, xs = DiscreteProbSpace.coin_product(p, n)
        assert space.weights.tolist() == weights
        assert [type(w) for w in space.weights.tolist()] == [type(w) for w in weights]
        assert space.exact == isinstance(p, Fraction)
        assert xs.tolist() == variables
        assert len(space) == 1 << n

    def test_coin_product_cap(self):
        for n in (0, 21):
            with pytest.raises(PreconditionError, match="1..20"):
                DiscreteProbSpace.coin_product(Fraction(3, 4), n)

    def test_exact_decided_by_dtype_or_scan(self):
        assert DiscreteProbSpace([Fraction(1, 2), Fraction(1, 2)]).exact
        assert DiscreteProbSpace(np.array([0, 1])).exact
        assert not DiscreteProbSpace(np.array([0.5, 0.5])).exact
        assert not DiscreteProbSpace([Fraction(1, 2), 0.5]).exact


class TestMultiplicative:
    def test_independent_coins_zero_deviation(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 3)
        rep = check_almost_multiplicative(space, xs, eps=1e-12)
        assert rep.mu == pytest.approx(0.5)
        assert rep.max_deviation <= 1e-12
        assert rep.verdict == "pass"
        assert rep.subsets_checked == 7

    def test_fully_dependent_pair(self):
        # X1 = X2 = +-1 coin with mean 1/2: E[X1 X2] = 1 against mu^2 = 1/4
        space = DiscreteProbSpace([Fraction(3, 4), Fraction(1, 4)])
        x = [1.0, -1.0]
        rep = check_almost_multiplicative(space, [x, x], eps=0.5)
        assert rep.max_deviation == pytest.approx(3.0, abs=1e-12)
        assert rep.verdict == "fail"

    def test_cap_enforced(self):
        # eps is measured over every subset or not at all: 21 variables
        # exceed the 20-variable budget
        space = DiscreteProbSpace([0.5, 0.5])
        xs = [[1.0, 0.5]] * 21
        with pytest.raises(ResourceError) as exc:
            check_almost_multiplicative(space, xs, eps=2.0)
        assert (exc.value.budget, exc.value.required) == (20, 21)
        with pytest.raises(ResourceError):
            bernstein_battery(space, xs)

    def test_bound_precondition(self):
        space = DiscreteProbSpace([0.5, 0.5])
        with pytest.raises(PreconditionError):
            check_almost_multiplicative(space, [[1.5, 0.5]], eps=0.1)

    def test_nan_variable_rejected(self):
        # NaN fell through the bound, mean and max checks: deviation 0, "pass"
        space = DiscreteProbSpace([0.5, 0.5])
        with pytest.raises(PreconditionError, match="finite"):
            check_almost_multiplicative(space, [[1.0, 0.5], [0.75, math.nan]], eps=0.1)
        with pytest.raises(PreconditionError, match="finite"):
            bernstein_battery(space, [[1.0, 0.5], [0.75, math.nan]])

    def test_ragged_variables_rejected(self):
        space = DiscreteProbSpace([0.5, 0.5])
        with pytest.raises(PreconditionError):
            check_almost_multiplicative(space, [[1.0, 0.5], [0.75]], eps=0.1)

    def test_unequal_means_rejected(self):
        space = DiscreteProbSpace([0.5, 0.5])
        with pytest.raises(PreconditionError):
            check_almost_multiplicative(space, [[1.0, 0.0], [1.0, 0.5]], eps=0.1)


class TestTail:
    def test_biased_coin_binomial_oracle(self):
        # P(mean < 1/4) for 16 coins at p = 3/4 equals the exact binomial
        # tail P(H <= 9); both sides computed independently
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 16)
        got = tail_probability(space, xs, Fraction(1, 4))
        p, q = Fraction(3, 4), Fraction(1, 4)
        want = sum(
            math.comb(16, h) * p**h * q ** (16 - h) for h in range(0, 10)
        )
        assert got == want
        assert float(got) == pytest.approx(0.075, abs=5e-3)
        assert float(got) <= bernstein_bound(16, 0.25, 0.0)

    def test_alpha_past_support(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 4)
        assert tail_probability(space, xs, Fraction(8, 5)) == 0

    def test_single_variable(self):
        space = DiscreteProbSpace([Fraction(3, 5), Fraction(2, 5)])
        got = tail_probability(space, [[1, -1]], Fraction(1, 2))
        assert got == Fraction(2, 5)

    def test_monotone_in_alpha(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 8)
        tails = [float(tail_probability(space, xs, a)) for a in (0.05, 0.3, 0.6, 1.0)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_nan_alpha_rejected(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 3)
        with pytest.raises(PreconditionError):
            tail_probability(space, xs, math.nan)
        with pytest.raises(PreconditionError):
            bernstein_battery(space, xs, alphas=[0.1, math.nan])


def _reference_exact_tail(space, xs, alpha):
    """P{mean < mu - alpha} outcome by outcome, in exact arithmetic."""
    thr = space.expectation(xs[0]) - Fraction(alpha)
    return sum(
        (Fraction(w) for i, w in enumerate(space.weights)
         if Fraction(sum(x[i] for x in xs), len(xs)) < thr),
        Fraction(0),
    )


def _reference_float_tail(space, xs, mu, alpha):
    """The same tail as a mask over the outcomes in their given order."""
    means = np.array(xs, dtype=float).mean(axis=0)
    return math.fsum(w for w, m in zip(space.weights, means) if m < mu - alpha)


def _tied_float_space():
    """Float weights in equal pairs; the second variable swaps each pair's
    values, so both have one expectation and many outcomes share a mean."""
    weights = [0.05, 0.05, 0.1, 0.1, 0.15, 0.15, 0.2, 0.2]
    x1 = [1.0, 0.5, 1.0, -0.5, 0.5, 0.0, 1.0, -1.0]
    x2 = [0.5, 1.0, -0.5, 1.0, 0.0, 0.5, -1.0, 1.0]
    return DiscreteProbSpace(weights), [x1, x2]


class TestOnePass:
    # mu = 1/2 and the means are (h - 4)/4, so alpha = 1/4, 1/2, 3/4, 1
    # puts mu - alpha exactly on an attainable mean; 1.6 is past the support
    ALPHAS = [0.75, 0.05, 0.25, 0.25, 1.6, Fraction(1, 2), 1.0, 0.3, 0.5, 0.0]

    def test_exact_tails_match_reference(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 8)
        for a in self.ALPHAS:
            got = tail_probability(space, xs, a)
            assert isinstance(got, Fraction)
            assert got == _reference_exact_tail(space, xs, a)
        # the strict < leaves out the outcomes whose mean is exactly mu - alpha
        p, q = Fraction(3, 4), Fraction(1, 4)
        assert tail_probability(space, xs, 0.25) == sum(
            math.comb(8, h) * p**h * q ** (8 - h) for h in range(5))

    def test_float_tails_match_reference(self):
        space, xs = _tied_float_space()
        mu = check_almost_multiplicative(space, xs, eps=math.inf).mu
        # mu - alpha lands exactly on the tied means 1/4 and 0 for the last two
        for a in [0.3, -0.2, 0.05, 0.1, 0.1, 2.0, 0.0, 0.45, -1.0, mu - 0.25, mu]:
            got = tail_probability(space, xs, a)
            assert isinstance(got, float)
            assert got == _reference_float_tail(space, xs, mu, a)
        assert mu - (mu - 0.25) == 0.25
        assert tail_probability(space, xs, mu - 0.25) == 0.4
        assert tail_probability(space, xs, mu) == 0.0

    @pytest.mark.parametrize("exact", [True, False])
    def test_battery_rows_equal_tail_probability(self, exact):
        if exact:
            space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 8)
        else:
            space, xs = _tied_float_space()
        for alphas in (None, self.ALPHAS):
            out = bernstein_battery(space, xs, alphas=alphas)
            want = [0.05 * k for k in range(1, 41)] if alphas is None else alphas
            assert [row["alpha"] for row in out["rows"]] == [float(a) for a in want]
            for row, a in zip(out["rows"], want):
                assert row["tail"] == float(tail_probability(space, xs, a))

    def test_no_alphas(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 8)
        assert bernstein_battery(space, xs, alphas=[])["rows"] == []


class TestBattery:
    def test_bound_dominates_exact_tail(self):
        space, xs = DiscreteProbSpace.coin_product(Fraction(3, 4), 12)
        out = bernstein_battery(space, xs)
        assert out["deviation"] <= 1e-10
        for row in out["rows"]:
            assert row["tail"] <= row["bound"] + 1e-15
