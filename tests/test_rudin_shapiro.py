"""Sign patterns, flatness certificates, and the scaled phi builder."""

import json
import math

import numpy as np
import pytest

from trigcert import PreconditionError, ResourceError, TrigPoly, rudin_shapiro
from trigcert.rudin_shapiro import (
    SIGN_RULE,
    build_Q,
    build_phi,
    phi_a_norm,
    phi_k_for,
    sign_pattern,
    signs_by_recursion,
)


def parallelogram_residual(k: int) -> int:
    """max |autocorr(r) + autocorr(s) - 2^(k+1) delta_0| over all lags,
    computed exactly in integers from the pair recursion.  Zero iff
    |P|^2 + |P'|^2 = 2^(k+1)."""
    rr = ss = np.array([1], dtype=np.int64)
    for _ in range(k):
        rr, ss = np.concatenate([rr, ss]), np.concatenate([rr, -ss])
    total = np.convolve(rr, rr[::-1]) + np.convolve(ss, ss[::-1])
    total[len(rr) - 1] -= 2 ** (k + 1)
    return int(np.abs(total).max())


def cosine_sum(amps, t):
    """sum_n amps[n-1] cos(nt), evaluated directly."""
    n = np.arange(1, len(amps) + 1)
    return np.cos(np.multiply.outer(t, n)) @ amps


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


class TestParallelogram:
    def test_identity_exact(self):
        for k in range(0, 9):
            assert parallelogram_residual(k) == 0


class TestBuildQ:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_shifted_rule(self, k):
        signs, cert = build_Q(k)
        assert cert.sign_rule == "adjacent-pairs-shifted"
        assert cert.bound == math.sqrt(2.0 ** (k + 1))
        assert np.array_equal(signs, signs_by_recursion(k))
        assert not signs.flags.writeable

    def test_k5_shifted_structural(self):
        _, cert = build_Q(5)
        assert cert.sign_rule == "adjacent-pairs-shifted"
        assert cert.bound == math.sqrt(2.0**6)
        assert sorted(cert.to_json_dict()) == ["bound", "k", "sign_rule", "target"]

    def test_bound_sound(self):
        for k in range(1, 7):
            signs, cert = build_Q(k)
            vals = cosine_sum(signs, np.linspace(0, 2 * math.pi, 1 << (k + 10), endpoint=False))
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
    """phi as amplitudes of cos(nt): its polynomial and its phi.json form."""

    def test_eval_matches_trigpoly(self):
        bundle = build_phi(4.0, 0.1)
        t = np.linspace(0, 2 * math.pi, 37)
        poly_vals = bundle.to_trigpoly().eval_at(t)
        assert np.allclose(cosine_sum(bundle.amps, t), poly_vals.real, atol=1e-12)
        assert np.abs(poly_vals.imag).max() < 1e-12
        assert not bundle.amps.flags.writeable

    def test_trigpoly_budget(self, monkeypatch):
        bundle = build_phi(4.0, 0.1)  # 2^9 amplitudes, 1025 coefficients
        monkeypatch.setattr(rudin_shapiro, "_POLY_BUDGET", 1025)
        assert bundle.to_trigpoly().degree == 512
        monkeypatch.setattr(rudin_shapiro, "_POLY_BUDGET", 1024)
        with pytest.raises(ResourceError):
            bundle.to_trigpoly()

    def test_json_inline_roundtrip(self):
        bundle = build_phi(4.0, 0.1)
        data = json.loads(json.dumps(bundle.to_json_dict()))["poly"]
        assert data["format"] == "cosine-amps"
        assert np.array_equal(np.array([float(a) for a in data["amps"]]), bundle.amps)

    def test_json_descriptor_roundtrip(self):
        # past 4096 amplitudes phi.json keeps the rule and the scale only;
        # the signs must come back from sign_pattern
        bundle = build_phi(3.0, 0.1)
        data = json.loads(json.dumps(bundle.to_json_dict()))["poly"]
        assert data == {"format": "signed-cosine-rule", "k": 13,
                        "scale": data["scale"], "sign_rule": SIGN_RULE}
        rebuilt = sign_pattern(data["k"]).astype(float) * float(data["scale"])
        assert np.array_equal(rebuilt, bundle.amps)


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
