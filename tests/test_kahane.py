"""Exact atomic measures: worked instance, moment identities, bounds."""

import json
import random
from fractions import Fraction

import pytest

from trigcert import PreconditionError
from trigcert.kahane import AtomicMeasure, build_rho, interval_constant, knot_count

A, B = Fraction(1, 4), Fraction(1, 3)


def apply_poly(rho, coeffs) -> Fraction:
    """sum_j m_j p(s_j) for p given by exact coefficients (low to high),
    by Horner at each knot: an oracle independent of rho.moment."""
    total = Fraction(0)
    for s, m in zip(rho.knots, rho.masses):
        val = Fraction(0)
        for c in reversed(coeffs):
            val = val * s + Fraction(c)
        total += m * val
    return total


class TestWorkedInstance:
    def test_two_knots(self):
        rho = build_rho(A, B, Fraction(1, 2))
        assert rho.n == 2
        assert rho.knots == (Fraction(13, 48), Fraction(15, 48))
        assert rho.masses == (Fraction(15, 2), Fraction(-13, 2))
        assert rho.total_variation() == 14
        assert rho.moment(0) == 1
        assert rho.moment(1) == 0
        assert rho.moment(2) == Fraction(-65, 768)

    def test_knot_count_table(self):
        assert knot_count(B, Fraction(1, 2)) == 2
        assert knot_count(B, Fraction(1, 10)) == 6
        assert knot_count(B, Fraction(1, 100)) == 12

    def test_interval_constant(self):
        assert interval_constant(A, B) == pytest.approx(7.5948, abs=1e-3)


class TestMomentIdentities:
    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)])
    def test_low_moments_exactly_zero(self, delta):
        rho = build_rho(A, B, delta)
        assert rho.moment(0) == 1
        for k in range(1, rho.n):
            assert rho.moment(k) == 0

    def test_reproduces_low_degree_polys(self):
        rho = build_rho(A, B, Fraction(1, 10))
        rng = random.Random(42)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(rho.n)]
            assert apply_poly(rho, coeffs) == coeffs[0]

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)])
    def test_high_moment_decay(self, delta):
        rho = build_rho(A, B, delta)
        for k in range(rho.n, 201):
            assert abs(rho.moment(k)) <= (2 * rho.b) ** k

    def test_tv_bound_holds(self):
        for a, b, delta in [
            (A, B, Fraction(1, 2)),
            (A, B, Fraction(1, 10)),
            (A, B, Fraction(1, 100)),
            (Fraction(1, 10), Fraction(2, 5), Fraction(1, 10)),
            (Fraction(3, 10), Fraction(1, 3), Fraction(1, 20)),
        ]:
            rho = build_rho(a, b, delta)
            assert float(rho.total_variation()) <= rho.tv_bound() + 1e-9

    def test_decay_matches_delta(self):
        for delta in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
            rho = build_rho(A, B, delta)
            assert (2 * B) ** rho.n <= delta
            assert rho.n == 1 or (2 * B) ** (rho.n - 1) > delta


class TestPreconditions:
    def test_float_rejected(self):
        with pytest.raises(PreconditionError, match="float"):
            build_rho(0.25, B, Fraction(1, 2))

    def test_interval_order(self):
        with pytest.raises(PreconditionError):
            build_rho(B, A, Fraction(1, 2))

    def test_b_too_large(self):
        with pytest.raises(PreconditionError, match="1/2"):
            build_rho(Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))

    def test_delta_range(self):
        with pytest.raises(PreconditionError):
            build_rho(A, B, Fraction(2))

    def test_string_inputs_ok(self):
        rho = build_rho("1/4", "1/3", "1/2")
        assert rho.n == 2


class TestSerialization:
    def test_roundtrip(self):
        rho = build_rho(A, B, Fraction(1, 10))
        # the artifact holds every field exactly
        data = json.loads(json.dumps(rho.to_json_dict()))
        back = AtomicMeasure(
            knots=tuple(Fraction(s) for s in data["knots"]),
            masses=tuple(Fraction(m) for m in data["masses"]),
            a=Fraction(data["a"]), b=Fraction(data["b"]),
            delta=Fraction(data["delta"]), n=data["n"],
        )
        assert back == rho
        assert back.moment(back.n) == rho.moment(rho.n)
