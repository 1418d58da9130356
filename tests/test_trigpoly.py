import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcert import CoeffSeq, Interval, PreconditionError, QComplex, ResourceError, TrigPoly
from trigcert.trigpoly import coeffs_from_grid, grid_size, next_pow2, synth_real


def random_poly(rng, degree, real=False):
    table = {}
    for n in range(-degree, degree + 1):
        c = complex(rng.standard_normal(), rng.standard_normal())
        table[n] = c
    if real:
        out = {}
        for n in range(0, degree + 1):
            c = table[n] if n else complex(table[0].real, 0.0)
            out[n] = c
            if n:
                out[-n] = c.conjugate()
        return TrigPoly(out)
    return TrigPoly(table)


# -- QComplex -----------------------------------------------------------


def test_qcomplex_field_ops():
    a = QComplex(Fraction(1, 2), Fraction(-1, 3))
    b = QComplex(Fraction(2, 5), Fraction(1, 7))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a
    assert complex(QComplex(1, 2)) == 1 + 2j


def test_qcomplex_degrades_to_float():
    a = QComplex(1, 1)
    assert isinstance(a + 0.5, complex)
    assert isinstance(a * 1j, complex)
    assert a + Fraction(1, 2) == QComplex(Fraction(3, 2), 1)


# -- multiply -----------------------------------------------------------


def test_multiply_telescopes():
    one_plus = TrigPoly({0: QComplex(1), 1: QComplex(1)})
    one_minus = TrigPoly({0: QComplex(1), 1: QComplex(-1)})
    prod = one_plus * one_minus
    assert prod == TrigPoly({0: QComplex(1), 2: QComplex(-1)})


def test_multiply_identity():
    rng = np.random.default_rng(7)
    f = random_poly(rng, 5)
    assert f * TrigPoly.const(1) == f


def test_multiply_matches_pointwise_values():
    rng = np.random.default_rng(11)
    f = random_poly(rng, 3)
    g = random_poly(rng, 3)
    t = 2 * np.pi * np.arange(64) / 64
    lhs = (f * g).eval_at(t)
    rhs = f.eval_at(t) * g.eval_at(t)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_multiply_budget_error_names_budget():
    f = TrigPoly({n: 1.0 for n in range(-40, 41)})
    with pytest.raises(ResourceError) as info:
        f.multiply(f, budget=50)
    assert info.value.budget == 50
    assert "50" in str(info.value)


# -- dilate -------------------------------------------------------------


def test_dilate_cos():
    assert TrigPoly.cosine(1).dilate(3) == TrigPoly.cosine(3)


def test_dilate_identity():
    rng = np.random.default_rng(3)
    f = random_poly(rng, 4)
    assert f.dilate(1) == f


def test_dilate_evaluation_oracle():
    rng = np.random.default_rng(5)
    f = random_poly(rng, 4)
    t = rng.uniform(0, 2 * np.pi, size=16)
    lhs = f.dilate(3).eval_at(t)
    rhs = f.eval_at((3 * t) % (2 * np.pi))
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))


# -- a_p_norm -----------------------------------------------------------


def test_a2_of_two_unit_coeffs():
    f = TrigPoly({0: 1.0, 1: 1.0})
    nrm = f.a_p_norm(2)
    assert nrm.lo == nrm.hi == pytest.approx(math.sqrt(2), abs=1e-15)


def test_a4_of_flat_quarter_coeffs():
    # (cos t + cos 2t) / 2 has four coefficients of 1/4
    phi = (TrigPoly.cosine(1) + TrigPoly.cosine(2)).scale(0.5)
    nrm = phi.a_p_norm(4)
    assert nrm.lo == pytest.approx(2 ** (-1.5), abs=1e-15)
    assert nrm.hi == pytest.approx(2 ** (-1.5), abs=1e-15)


def test_window_only_interval_is_a_point():
    seq = CoeffSeq(np.array([1.0, 2.0, 1.0], dtype=complex), 1)
    nrm = seq.a_p_norm(3)
    assert nrm.lo == nrm.hi


def test_tail_divergence_rejected():
    seq = CoeffSeq(np.zeros(3, dtype=complex), 1, tail_const=1.0, tail_exp=0.5)
    with pytest.raises(PreconditionError):
        seq.a_p_norm(2)


def test_tail_enclosure_against_exact_power_series():
    # c(n) = |n|^-2 for |n| > M: the tail bound must dominate the true sum
    M, exp = 8, 2.0
    window = np.zeros(2 * M + 1, dtype=complex)
    window[M] = 1.0
    seq = CoeffSeq(window, M, tail_const=1.0, tail_exp=exp)
    true_tail = 2 * sum(float(n) ** (-2.0) for n in range(M + 1, 400000))
    nrm = seq.a_p_norm(1)
    assert nrm.lo == 1.0
    assert nrm.hi >= 1.0 + true_tail
    assert nrm.hi <= 1.0 + 2 * true_tail  # not wildly loose either


# -- eval_grid ----------------------------------------------------------


def test_eval_grid_constant():
    vals = TrigPoly.const(1).eval_grid(8)
    assert np.allclose(vals, np.ones(8), atol=1e-15)


def test_eval_grid_fourth_roots():
    vals = TrigPoly({1: 1.0}).eval_grid(4)
    assert np.allclose(vals, [1, 1j, -1, -1j], atol=1e-15)


def test_eval_grid_roundtrip():
    rng = np.random.default_rng(13)
    f = random_poly(rng, 8)
    vals = f.eval_grid(32)
    back = coeffs_from_grid(vals, 8)
    for n in range(-8, 9):
        assert abs(complex(back.coeff(n)) - complex(f.coeff(n))) < 1e-12


def test_eval_grid_rejects_empty():
    with pytest.raises(PreconditionError):
        TrigPoly.const(1).eval_grid(0)


def test_synth_real_matches_eval_grid():
    rng = np.random.default_rng(17)
    f = random_poly(rng, 6, real=True)
    M = 32
    half = np.array([complex(f.coeff(n)) for n in range(7)])
    vals = synth_real(half, M)
    ref = f.eval_grid(M)
    assert np.max(np.abs(ref.imag)) < 1e-12
    assert np.max(np.abs(vals - ref.real)) < 1e-12
    # offset synthesis agrees with direct evaluation
    tau = 0.3
    t = 2 * np.pi * np.arange(M) / M + tau
    assert np.max(np.abs(synth_real(half, M, tau) - f.eval_at(t).real)) < 1e-11


# -- structural properties ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_parseval(deg, seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, deg)
    M = grid_size(deg)
    vals = f.eval_grid(M)
    quad = float(np.mean(np.abs(vals) ** 2))
    coef = float(f.l2_norm_sq())
    assert quad == pytest.approx(coef, rel=1e-10, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_a_p_monotone_decreasing_in_p(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 5)
    ps = [1.0, 1.5, 2.0, 3.0, 4.0]
    vals = [f.a_p_norm(p).hi for p in ps]
    for small, large in zip(vals[1:], vals[:-1]):
        assert small <= large * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 4)
    g = random_poly(rng, 4)
    for p in (1.0, 2.0, 4.0):
        lhs = (f * g).a_p_norm(p).hi
        rhs = f.a_p_norm(1).hi * g.a_p_norm(p).hi
        assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_multiply_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    f, g, h = (random_poly(rng, 3) for _ in range(3))
    fg = f * g
    gf = g * f
    assert set(fg.coeffs) == set(gf.coeffs)
    for n in fg.coeffs:
        assert abs(complex(fg.coeff(n)) - complex(gf.coeff(n))) < 1e-12
    lhs = (f * g) * h
    rhs = f * (g * h)
    scale = max(abs(complex(c)) for c in lhs.coeffs.values())
    for n in set(lhs.coeffs) | set(rhs.coeffs):
        assert abs(complex(lhs.coeff(n)) - complex(rhs.coeff(n))) <= 1e-12 * max(
            1.0, scale
        )


def test_is_real_detection():
    assert TrigPoly.cosine(3).is_real()
    assert TrigPoly.sine(2).is_real()
    assert not TrigPoly({1: 1.0}).is_real()
    assert TrigPoly.cosine(2, exact=True).is_real()


# -- exact mode ----------------------------------------------------------


def test_exact_product_mean():
    # mean of (1 + cos t)(1 + cos 2t) dilated apart is the product of means
    p0 = TrigPoly.const(QComplex(1)) + TrigPoly.cosine(1, exact=True)
    p1 = TrigPoly.const(QComplex(2)) + TrigPoly.cosine(1, exact=True)
    prod = p0 * p1.dilate(2)
    assert prod.exact
    assert prod.mean() == QComplex(2)


def test_exact_l2():
    f = TrigPoly.cosine(1, exact=True)
    assert f.l2_norm_sq() == Fraction(1, 2)


# -- serialization --------------------------------------------------------


def test_poly_json_roundtrip_float():
    rng = np.random.default_rng(23)
    f = random_poly(rng, 3)
    data = json.loads(json.dumps(f.to_json_dict(), sort_keys=True))
    g = TrigPoly.from_json_dict(data)
    for n in set(f.coeffs) | set(g.coeffs):
        assert complex(f.coeff(n)) == complex(g.coeff(n))  # 17 digits are lossless


def test_poly_json_roundtrip_rational():
    f = TrigPoly({2: QComplex(Fraction(1, 3), Fraction(-2, 7)), 0: QComplex(5)})
    data = f.to_json_dict()
    entries = {e["n"]: e for e in data["coeffs"]}
    assert entries[2]["re"] == "1/3"
    assert entries[2]["im"] == "-2/7"
    g = TrigPoly.from_json_dict(data)
    assert g.exact and g == f


def test_coeffseq_json_roundtrip():
    window = np.array([0.25, 1.0, -0.5], dtype=complex)
    seq = CoeffSeq(window, 1, tail_const=0.125, tail_exp=3.0)
    data = seq.to_json_dict()
    back = CoeffSeq.from_json_dict(data)
    assert back.M == 1
    assert back.tail_const == 0.125 and back.tail_exp == 3.0
    assert np.allclose(back.window, window)


def test_truncate_keeps_bounds_sound():
    rng = np.random.default_rng(29)
    f = random_poly(rng, 20)
    seq = f.as_coeffseq()
    small = seq.truncate(5)
    assert small.M == 5
    for n in range(6, 21):
        c = abs(complex(f.coeff(n)))
        assert c <= small.tail_const * abs(n) ** (-small.tail_exp) + 1e-15


def test_interval_basics():
    iv = Interval(1.0, 2.0) + Interval.point(0.5)
    assert iv == Interval(1.5, 2.5)
    assert iv.scale(2.0) == Interval(3.0, 5.0)
    with pytest.raises(PreconditionError):
        Interval(2.0, 1.0)


def test_next_pow2():
    assert [next_pow2(n) for n in (0, 1, 2, 3)] == [1, 1, 2, 4]
    for k in range(1, 40):
        assert next_pow2(1 << k) == 1 << k
        assert next_pow2((1 << k) + 1) == 1 << (k + 1)
