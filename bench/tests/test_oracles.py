import math
from fractions import Fraction

import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("alpha, want", [
    (Fraction(1, 4), Fraction(10, 64)),   # mean < 1/4: k = 0, 1 heads
    (Fraction(1, 2), Fraction(10, 64)),   # mean < 0: k = 0, 1
    (Fraction(9, 10), Fraction(1, 64)),   # mean < -2/5: k = 0 only
    (Fraction(3, 2), Fraction(0)),        # mean < -1: none
])
def test_coin_tail_three_coins(alpha, want):
    assert oracles.coin_tail(3, Fraction(3, 4), alpha) == want


def test_riesz_tail_one_factor_by_hand():
    # N = 1, nu = 3: grid of 8 points, X = cos 3t, lambda = 1 + X/2 sums to 8,
    # mu = 1/4; below mu - 1/2 = -1/4 lie t_1, t_4, t_7 (X = -r, -1, -r)
    assert oracles.riesz_grid_size(1, 3) == 8
    r = math.sqrt(0.5)
    want = (2 * (1 - r / 2) + 0.5) / 8
    (got,) = oracles.riesz_tails(1, 3, Fraction(1, 2), [0.5])
    assert got == pytest.approx(want, abs=1e-15)


def test_witness_profile_zero_on_K_positive_off_K():
    K = [(1.0, 2.0)]
    t = np.array([1.0, 1.5, 2.0, 3.0, 0.0])
    w = oracles.witness_profile(K, t)
    assert (w[:3] == 0).all() and (w[3:] > 0).all()
    a, b = 2.0, 1.0 + oracles.TWO_PI
    peak = oracles.witness_profile(K, [((a + b) / 2) % oracles.TWO_PI])
    assert peak[0] == pytest.approx(1.0)


def test_gaps_and_components_rejoin_across_zero():
    K = [(0.0, 0.5), (3.0, 4.0), (6.0, oracles.TWO_PI)]
    assert oracles.components(K) == [(3.0, 4.0), (6.0, 0.5 + oracles.TWO_PI)]
    assert oracles.gaps(K) == [(4.0, 6.0), (0.5 + oracles.TWO_PI, 3.0 + oracles.TWO_PI)]
    t = np.array([0.25, 3.5, 6.2, 1.0, 5.0])
    w = oracles.witness_profile(K, t)
    assert (w[:3] == 0).all() and (w[3:] > 0).all()


def test_grid_and_direct_sums_agree():
    rng = np.random.default_rng(0)
    n = np.arange(-20, 21)
    c = rng.normal(size=n.size) + 1j * rng.normal(size=n.size)
    L = 64
    t = oracles.TWO_PI * np.arange(L) / L
    assert np.allclose(oracles.eval_grid(n, c, L), oracles.eval_direct(n, c, t), atol=1e-12)


def test_defect_enclosure_of_an_exact_polynomial():
    doc = {"coeffs": [{"n": 0, "re": "0.5", "im": "0"}, {"n": 1, "re": "0.5", "im": "0"}],
           "tail": {"M": 1, "const": "0", "exp": "0"}}
    lo, hi = oracles.defect_enclosure(doc, 4.0)
    assert lo == hi == pytest.approx((2 * 0.5**4) ** 0.25)
