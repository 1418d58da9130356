import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcert import CoeffSeq, Interval, PreconditionError, QComplex, ResourceError, TrigPoly, trigpoly
from trigcert.trigpoly import (
    TWO_PI,
    _seq_json_dict,
    _split_parts,
    _window_convolve,
    f17,
    next_pow2,
    synth_real,
)


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


def test_multiply_budget_error_names_budget(monkeypatch):
    monkeypatch.setattr(trigpoly, "COEFF_BUDGET", 50)
    f = TrigPoly({n: 1.0 for n in range(-40, 41)})
    with pytest.raises(ResourceError) as info:
        f.multiply(f)
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


@pytest.mark.parametrize("M", [0, 1, 8])
@pytest.mark.parametrize("exp, p", [(5.0, 1.0), (2.0, 1.0), (2.0, 2.0), (0.75, 2.0)])
def test_tail_bound_holds_for_saturated_tails(M, exp, p):
    # |c(n)| = C |n|^-exp for every |n| > M: summed to 10^6, plus the
    # remainder's lower integral bound, the true tail lies under the claim
    C, b, top = 0.5, p * exp, 10**6
    seq = CoeffSeq(np.zeros(2 * M + 1, dtype=complex), M, tail_const=C, tail_exp=exp)
    n = np.arange(M + 1, top + 1, dtype=float)
    one_side = math.fsum((n ** -b).tolist()) + (top + 1) ** (1.0 - b) / (b - 1.0)
    true_tail = 2.0 * C**p * one_side
    assert seq.tail_lp_pow(p) >= true_tail
    assert seq.a_p_norm(p).hi >= true_tail ** (1.0 / p)


@pytest.mark.xfail(strict=True, reason="CoeffSeq.multiply ignores the tails near the "
                                      "window edge (ROADMAP item 1)")
def test_multiply_contains_saturated_product():
    # z^100 times the window [0.5, 1, 0.5] with tail |n|^-5, the tail
    # saturated, |c(n)| = |n|^-5 for 1 < |n| <= 2^13, and convolved
    # exactly: the product claims 0 at n = 98 where the truth is 2^-5,
    # 32 |n|^-5 past |n| = 101 where the truth at 102 is 2^-5, and an A_1
    # enclosure [2.0, 2.00000015] around a norm of 2.0739
    W = 1 << 13
    z100 = TrigPoly({100: 1.0}).as_coeffseq()
    h = CoeffSeq(np.array([0.5, 1.0, 0.5], dtype=complex), 1, tail_const=1.0, tail_exp=5.0)
    prod = z100.multiply(h)

    def saturate(seq):
        n = np.abs(np.arange(-W, W + 1))
        out = np.where(n > seq.M, seq.tail_const * np.maximum(n, 1.0) ** -seq.tail_exp, 0.0)
        out = out.astype(complex)
        out[W - seq.M : W + seq.M + 1] = seq.window
        return out

    true = np.convolve(saturate(z100), saturate(h))  # frequencies -2W .. 2W
    n = np.abs(np.arange(-2 * W, 2 * W + 1))
    inside, outside = n <= prod.M, n > prod.M
    problems = []
    if np.abs(true[inside] - prod.window).max() > 1e-12:
        problems.append("window")
    claim = prod.tail_const * n[outside].astype(float) ** -prod.tail_exp
    if not np.all(np.abs(true[outside]) <= claim * (1.0 + 1e-12)):
        problems.append("tail")
    norm = prod.a_p_norm(1.0)
    if not norm.lo <= np.abs(true).sum() <= norm.hi:
        problems.append("A_1 enclosure")
    assert problems == []


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
    spec = np.fft.fft(vals) / 32
    for n in range(-8, 9):
        assert abs(spec[n % 32] - complex(f.coeff(n))) < 1e-12


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


# -- structural properties ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_parseval(deg, seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, deg)
    M = next_pow2(2 * deg + 1)
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
    assert np.array_equal(fg.freqs, gf.freqs)
    for n in fg.freqs.tolist():
        assert abs(complex(fg.coeff(n)) - complex(gf.coeff(n))) < 1e-12
    lhs = (f * g) * h
    rhs = f * (g * h)
    scale = float(np.abs(lhs.coeffs).max())
    for n in set(lhs.freqs.tolist()) | set(rhs.freqs.tolist()):
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
    assert np.array_equal(f.freqs, g.freqs)
    assert np.array_equal(f.coeffs, g.coeffs)  # 17 digits are lossless


def test_float_rows_match_the_scalar_encoder():
    # the float fast path writes exactly what _split_parts and f17 write
    values = np.array([0.1 + 0.2j, complex(-0.0, 1e-300), complex(5e-324, -0.0),
                       1e17 - 2.5j, complex(-0.0, -0.0), 1.0 / 3.0 + 0j])
    doc = _seq_json_dict(np.arange(len(values)), values, 5, 0, 0.0, 0.0)
    want = []
    for n, c in enumerate(values.tolist()):
        re, im = _split_parts(c)
        want.append({"n": n, "re": f17(re), "im": f17(im)})
    assert doc["coeffs"] == want


def test_poly_json_roundtrip_rational():
    f = TrigPoly({2: QComplex(Fraction(1, 3), Fraction(-2, 7)), 0: QComplex(5)})
    data = f.to_json_dict()
    entries = {e["n"]: e for e in data["coeffs"]}
    assert entries[2]["re"] == "1/3"
    assert entries[2]["im"] == "-2/7"
    g = TrigPoly.from_json_dict(data)
    assert g.exact and g == f


@pytest.mark.parametrize("const, exp", [(math.nan, 5.0), (math.inf, 5.0), (1.0, math.nan),
                                        (1.0, -math.inf)])
def test_coeffseq_rejects_non_finite_tail(const, exp):
    # a NaN tail passed the sign check, and a_p_norm then dropped the tail
    window = np.array([0.5, 1.0, 0.5], dtype=complex)
    with pytest.raises(PreconditionError, match="finite"):
        CoeffSeq(window, 1, tail_const=const, tail_exp=exp)
    data = CoeffSeq(window, 1, tail_const=1.0, tail_exp=5.0).to_json_dict()
    data["tail"] = dict(data["tail"], const=str(const), exp=str(exp))
    with pytest.raises(PreconditionError, match="finite"):
        CoeffSeq.from_json_dict(data)


def test_coeffseq_json_roundtrip():
    window = np.array([0.25, 1.0, -0.5], dtype=complex)
    seq = CoeffSeq(window, 1, tail_const=0.125, tail_exp=3.0)
    data = seq.to_json_dict()
    back = CoeffSeq.from_json_dict(data)
    assert back.M == 1
    assert back.tail_const == 0.125 and back.tail_exp == 3.0
    assert np.allclose(back.window, window)
    # a polynomial artifact (tail M 0) reads back over its whole degree
    for poly in (TrigPoly({-2: 0.5, 0: 1.0, 3: 0.25j}),
                 TrigPoly({2: QComplex(Fraction(1, 3), Fraction(-2, 7)), 0: QComplex(5)})):
        data = json.loads(json.dumps(poly.to_json_dict()))
        assert data["tail"]["M"] == 0
        back, want = CoeffSeq.from_json_dict(data), poly.as_coeffseq()
        assert back.M == want.M == poly.degree
        assert np.array_equal(back.window, want.window)
        assert back.tail_const == 0.0 and back.tail_exp == 0.0


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
    iv = Interval(1.0, 2.0) + Interval(0.5, 0.5)
    assert iv == Interval(1.5, 2.5)
    assert iv.scale(2.0) == Interval(3.0, 5.0)
    with pytest.raises(PreconditionError):
        Interval(2.0, 1.0)


def test_next_pow2():
    assert [next_pow2(n) for n in (0, 1, 2, 3)] == [1, 1, 2, 4]
    for k in range(1, 40):
        assert next_pow2(1 << k) == 1 << k
        assert next_pow2((1 << k) + 1) == 1 << (k + 1)


# -- a dict-based reference ---------------------------------------------
#
# Every operation again on plain {frequency: coefficient} dicts, one term
# at a time.  Exact polynomials must agree exactly, float ones to 1e-12
# relative to their largest coefficient.


def ref_of(f):
    return dict(zip(f.freqs.tolist(), f.coeffs.tolist()))


def ref_clean(table):
    return {n: c for n, c in table.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for n, c in b.items():
        out[n] = out[n] + c if n in out else c
    return ref_clean(out)


def ref_multiply(a, b):
    out = {}
    for n1, c1 in a.items():
        for n2, c2 in b.items():
            out[n1 + n2] = out[n1 + n2] + c1 * c2 if n1 + n2 in out else c1 * c2
    return ref_clean(out)


def ref_eval(a, t):
    return sum((complex(c) * np.exp(1j * n * t) for n, c in a.items()), np.zeros_like(t, complex))


def ref_is_real(a, exact):
    for n, c in a.items():
        mirror = a.get(-n, QComplex(0) if exact else 0j)
        if exact and mirror.conjugate() != c:
            return False
        if not exact and abs(complex(c) - complex(mirror).conjugate()) > 1e-12 * max(
                1.0, max(abs(complex(v)) for v in a.values())):
            return False
    return True


def assert_matches(poly, ref, exact):
    assert poly.freqs.tolist() == sorted(ref)
    assert poly.exact == (exact or not ref)
    if exact:
        assert all(isinstance(c, QComplex) for c in poly.coeffs)
        assert list(poly.coeffs) == [ref[n] for n in sorted(ref)]
    elif ref:
        assert poly.coeffs.dtype == complex
        want = np.array([complex(ref[n]) for n in sorted(ref)])
        assert np.abs(poly.coeffs - want).max() <= 1e-12 * np.abs(want).max()


def random_table(rng, kind, exact, real=False):
    if kind == "sparse":
        # few terms at a high degree: eval_at sums term by term
        freqs = rng.choice(np.arange(-300, 301), size=int(rng.integers(1, 7)), replace=False)
    else:
        d = int(rng.integers(2, 9))
        freqs = np.arange(-d, d + 1)[rng.random(2 * d + 1) < 0.8]
    if real:
        freqs = np.unique(np.abs(freqs))

    def value():
        if exact:
            return QComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
                            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))))
        return complex(rng.standard_normal(), rng.standard_normal())

    table = {}
    for n in freqs.tolist():
        c = value()
        if real:
            if n == 0:
                c = QComplex(c.re) if exact else complex(c.real)
            table[-n] = c.conjugate()
        table[n] = c
    return ref_clean(table)


CASES = [(kind, exact, seed) for kind in ("sparse", "dense")
         for exact in (False, True) for seed in range(4)]


@pytest.mark.parametrize("kind,exact,seed", CASES)
def test_dict_reference(kind, exact, seed):
    rng = np.random.default_rng(1000 * seed + 10 * (kind == "dense") + exact)
    a, b = random_table(rng, kind, exact), random_table(rng, "dense", exact)
    f, g = TrigPoly(a), TrigPoly(b)
    assert_matches(f, a, exact)
    assert f == TrigPoly(dict(reversed(list(a.items()))))  # insertion order is immaterial

    assert_matches(f + g, ref_add(a, b), exact)
    assert_matches(f - g, ref_add(a, {n: -c for n, c in b.items()}), exact)
    assert_matches(f - f, {}, exact)
    assert (f - f) == TrigPoly.zero()
    s = Fraction(-3, 7)
    assert_matches(f.scale(s), ref_clean({n: c * QComplex(s) if exact else c * complex(s)
                                          for n, c in a.items()}), exact)
    assert_matches(f.scale(0), {}, exact)
    assert_matches(f.multiply(g), ref_multiply(a, b), exact)
    assert_matches(f.multiply(f), ref_multiply(a, a), exact)
    assert_matches(f.dilate(3), {3 * n: c for n, c in a.items()}, exact)

    t = rng.uniform(0.0, TWO_PI, size=33)
    l1 = sum(abs(complex(c)) for c in a.values())
    assert np.abs(f.eval_at(t) - ref_eval(a, t)).max() <= 1e-12 * l1
    for M in (1, 7, 64, 1024):
        grid = TWO_PI * np.arange(M) / M
        assert np.abs(f.eval_grid(M) - ref_eval(a, grid)).max() <= 1e-12 * l1
    for p in (1.0, 1.5, 2.0, 4.0):
        want = sum(abs(complex(c)) ** p for c in a.values()) ** (1.0 / p)
        got = f.a_p_norm(p)
        assert got.lo == got.hi == pytest.approx(want, rel=1e-12)

    real = random_table(rng, kind, exact, real=True)
    assert TrigPoly(real).is_real() and ref_is_real(real, exact)
    assert f.is_real() == ref_is_real(a, exact)

    back = TrigPoly.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert back == f and back.exact == exact
    assert np.array_equal(back.freqs, f.freqs) and np.array_equal(back.coeffs, f.coeffs)


def test_dict_reference_exact_times_float_degrades():
    rng = np.random.default_rng(77)
    a, b = random_table(rng, "dense", True), random_table(rng, "sparse", False)
    f, g = TrigPoly(a), TrigPoly(b)
    as_float = {n: complex(c) for n, c in a.items()}
    assert_matches(f + g, ref_add(as_float, b), False)
    assert_matches(f.multiply(g), ref_multiply(as_float, b), False)
    assert_matches(f.scale(0.5), {n: c * 0.5 for n, c in as_float.items()}, False)
    assert_matches(f.to_float(), as_float, False)
    assert f.to_float() == f  # QComplex compares equal to its complex value


def test_dict_reference_multiply_budget(monkeypatch):
    f = TrigPoly({1000 * k: 1.0 for k in range(-20, 21)})  # sparse, 41 terms
    monkeypatch.setattr(trigpoly, "COEFF_BUDGET", 41 * 41)
    assert_matches(f.multiply(f), ref_multiply(ref_of(f), ref_of(f)), False)
    monkeypatch.setattr(trigpoly, "COEFF_BUDGET", 41 * 41 - 1)
    with pytest.raises(ResourceError) as info:
        f.multiply(f)
    assert info.value.budget == 41 * 41 - 1 and info.value.required == 2 * 40000 + 1


def test_frequencies_never_wrap_int64():
    # frequencies are int64: past 2^62 the algebra refuses instead of
    # wrapping around, where python ints would have grown
    big = TrigPoly({1 << 61: 1.0, 0: 1.0})
    assert big.dilate(2).degree == 1 << 62
    with pytest.raises(ResourceError):
        big.dilate(3)
    assert (big * big).coeff(1 << 62) == 1.0
    with pytest.raises(ResourceError):
        big.dilate(2) * big
    with pytest.raises(ResourceError):
        TrigPoly({(1 << 62) + 1: 1.0})


# -- window convolution --------------------------------------------------------


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def conv_tolerance(a, b):
    """Bound on the entrywise error of an FFT convolution, fixed before any
    run from the dtype and the transform length: 64 log2(S) eps
    ||a||_2 ||b||_2 with S = 2^22, more than any transform here.  A block
    put in the wrong place or left out errs by order one."""
    return 64 * 22 * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)


# (short, long) operand lengths whose product passes 2^20 points, so that
# the long operand is cut into blocks
BLOCKED_SHAPES = [
    (1, (1 << 21) + 1),
    (3, (1 << 20) + 7),
    (64, (1 << 21) + 5),
    (257, 1 << 21),
    (1603, 1_050_179),  # principal N=3: the window against 1_E's coefficients
    (2000, (1 << 20) - 1000),
]


@pytest.mark.parametrize("m, n", BLOCKED_SHAPES)
def test_window_convolve_blocked_matches_np_convolve(m, n):
    rng = np.random.default_rng(m)
    a, b = random_complex(rng, m), random_complex(rng, n)
    want = np.convolve(a, b)
    tol = conv_tolerance(a, b)
    for x, y in ((a, b), (b, a)):
        got = _window_convolve(x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("extra", [0, 1])
def test_window_convolve_block_edges(extra):
    # a short operand of 100 entries takes blocks of 4096 points, each
    # holding 4096 - 99 entries of the long one: the long operand ends on
    # a block edge, or one entry past it
    m, step = 100, 4096 - 99
    n = step * -(-(1 << 20) // step) + extra
    rng = np.random.default_rng(extra)
    a, b = random_complex(rng, m), random_complex(rng, n)
    want = np.convolve(a, b)
    for x, y in ((a, b), (b, a)):
        assert np.max(np.abs(_window_convolve(x, y) - want)) <= conv_tolerance(a, b)


@pytest.mark.parametrize("m, n", [
    (125, 131_197),  # demo-corollary's product
    (131_073, 131_073),
    (1000, (1 << 20) - 999),  # exactly 2^20 points
    ((1 << 19) + 1, (1 << 19) + 1),  # no block fits the short operand
])
def test_window_convolve_single_transform_bits(m, n):
    rng = np.random.default_rng(n)
    a, b = random_complex(rng, m), random_complex(rng, n)
    size = next_pow2(m + n - 1)
    want = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[: m + n - 1]
    assert np.array_equal(_window_convolve(a, b), want)


def test_window_convolve_small_and_exact_direct():
    a = np.array([QComplex(1), QComplex(Fraction(1, 2))], dtype=object)
    assert list(_window_convolve(a, a)) == [1, 1, Fraction(1, 4)]
    rng = np.random.default_rng(4)
    x, y = random_complex(rng, 1024), random_complex(rng, 1024)
    assert np.array_equal(_window_convolve(x, y), np.convolve(x, y))
