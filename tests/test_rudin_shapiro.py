"""Sign patterns, flatness certificates, and the scaled phi builder."""

import math

import numpy as np
import pytest

from trigcert import PreconditionError, ResourceError, TrigPoly
from trigcert.rudin_shapiro import (
    SIGN_RULE,
    CosineSeries,
    build_Q,
    build_phi,
    parallelogram_residual,
    phi_a_norm,
    phi_k_for,
    sign_pattern,
    signs_by_recursion,
)


class TestSignPattern:
    def test_plain_small_oracle(self):
        # n = 1..8: minus exactly where the binary expansion has an odd
        # number of adjacent 11 pairs (n = 3, 6)
        assert sign_pattern(4)[1:9].tolist() == [1, 1, -1, 1, 1, -1, 1, 1]

    def test_shifted_small_oracle(self):
        assert sign_pattern(3).tolist() == [1, 1, 1, -1, 1, 1, -1, 1]

    def test_formula_matches_recursion(self):
        for k in range(0, 13):
            assert np.array_equal(sign_pattern(k), signs_by_recursion(k))

    def test_doubling_identities(self):
        # r(2m) = r(m) and r(2m+1) = (-1)^m r(m)
        r = sign_pattern(14)
        m = np.arange(1 << 13)
        assert np.array_equal(r[2 * m], r[m])
        assert np.array_equal(r[2 * m + 1], np.where(m % 2 == 0, 1, -1) * r[m])

    def test_bad_rule(self):
        data = CosineSeries(np.ones(8192)).to_json_dict(sign_rule=SIGN_RULE)
        data["sign_rule"] = "no-such-rule"
        with pytest.raises(PreconditionError):
            CosineSeries.from_json_dict(data)


class TestParallelogram:
    def test_identity_exact(self):
        for k in range(0, 9):
            assert parallelogram_residual(k) == 0


class TestBuildQ:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_shifted_rule(self, k):
        series, cert = build_Q(k)
        assert cert.sign_rule == "adjacent-pairs-shifted"
        assert cert.bound == math.sqrt(2.0 ** (k + 1))
        assert cert.grid_size == 0
        assert np.array_equal(series.amps, signs_by_recursion(k))

    def test_k5_shifted_structural(self):
        series, cert = build_Q(5)
        assert cert.sign_rule == "adjacent-pairs-shifted"
        assert cert.upper_method == "parallelogram"
        assert cert.grid_size == 0
        assert cert.bound == math.sqrt(2.0**6)

    def test_bound_sound(self):
        for k in range(1, 7):
            series, cert = build_Q(k)
            vals = series.eval_at(np.linspace(0, 2 * math.pi, 1 << (k + 10), endpoint=False))
            assert np.abs(vals).max() <= cert.bound + 1e-9

    def test_bad_k(self):
        with pytest.raises(PreconditionError):
            build_Q(0)
        with pytest.raises(ResourceError):
            build_Q(25)

    def test_cached(self):
        a = build_Q(5)
        b = build_Q(5)
        assert a[0] is b[0]


class TestCosineSeries:
    def test_eval_matches_trigpoly(self):
        series, _ = build_Q(3)
        t = np.linspace(0, 2 * math.pi, 37)
        poly_vals = series.to_trigpoly().eval_at(t).real
        assert np.allclose(series.eval_at(t), poly_vals, atol=1e-12)

    def test_trigpoly_budget(self):
        series = CosineSeries(np.ones(1000))
        with pytest.raises(ResourceError):
            series.to_trigpoly(budget=100)

    def test_json_inline_roundtrip(self):
        series = CosineSeries(np.array([0.5, -0.25, 0.125]))
        back = CosineSeries.from_json_dict(series.to_json_dict())
        assert np.array_equal(back.amps, series.amps)

    def test_json_descriptor_roundtrip(self):
        series, cert = build_Q(13)
        scaled = series.scale(2.0 ** (-7))
        data = scaled.to_json_dict(sign_rule=cert.sign_rule)
        assert data["format"] == "signed-cosine-rule"
        back = CosineSeries.from_json_dict(data)
        assert np.array_equal(back.amps, scaled.amps)


class TestBuildPhi:
    def test_q4_half(self):
        bundle = build_phi(4.0, 0.5)
        assert bundle.k == 1
        assert bundle.a_norm == pytest.approx(2.0 ** (-1.5), abs=1e-15)
        assert bundle.l2_norm_sq == pytest.approx(0.25, abs=1e-15)
        assert bundle.sup_bound <= 1.0 + 1e-9
        assert bundle.floored
        p = bundle.to_trigpoly()
        assert p.coeff(0) == 0
        assert p.is_real()

    def test_q4_half_polynomial(self):
        # the phi every pipeline uses: (cos t + cos 2t) / 2
        assert build_phi(4.0, 0.5).to_trigpoly() == TrigPoly(
            {1: 0.25, -1: 0.25, 2: 0.25, -2: 0.25}
        )

    @pytest.mark.parametrize(
        "q,gamma,k",
        [(2.5, 0.5, 1), (3.0, 0.5, 1), (4.0, 0.5, 1), (3.0, 0.1, 13), (4.0, 0.1, 9)],
    )
    def test_k_table(self, q, gamma, k):
        got, _ = phi_k_for(q, gamma)
        assert got == k

    def test_norm_strictly_under_gamma_and_minimal(self):
        for q, gamma in ((3.0, 0.1), (4.0, 0.1)):
            k, floored = phi_k_for(q, gamma)
            assert phi_a_norm(k, q) < gamma
            assert not floored
            assert phi_a_norm(k - 1, q) >= gamma

    def test_a_norm_decreasing_in_k(self):
        for q in (2.5, 3.0, 4.0):
            vals = [phi_a_norm(k, q) for k in range(1, 12)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_k9_certified(self):
        bundle = build_phi(4.0, 0.1)
        assert bundle.k == 9
        assert bundle.sup_bound <= 1.0 + 1e-9
        assert bundle.a_norm < 0.1
        assert bundle.l2_norm_sq == pytest.approx(0.25, abs=1e-15)

    def test_bad_args(self):
        with pytest.raises(PreconditionError):
            build_phi(2.0, 0.5)
        with pytest.raises(PreconditionError):
            build_phi(3.0, 1.5)
