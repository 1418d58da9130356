"""Pipeline pieces: the weight w, the polynomial P, the mollifier
transform, and one full end-to-end run with every certificate checked."""

import math

import numpy as np
import pytest

from trigcert import CertificateError, PreconditionError, principal
from trigcert.gridcert import ArcSet, certified_min
from trigcert.principal import (
    PrincipalConfig,
    _auto_window,
    _dilation_margin,
    build_P,
    build_w,
    energy_threshold,
    run_principal,
    _spline_hat,
)
from trigcert.rudin_shapiro import build_phi
from trigcert.trigpoly import TrigPoly

COS = TrigPoly.cosine(1)
TWO_PI = 2.0 * math.pi


class TestConfig:
    def test_defaults_by_mode(self):
        cfg = PrincipalConfig(q=4.0, eps=1.0, u=COS, N=2)
        assert cfg.c1_value == 0.05
        assert cfg.c3 == 0.025
        th = PrincipalConfig(q=4.0, eps=1.0, u=COS, N=2, mode="theoretical")
        assert th.c1_value == 2e-5
        assert th.c2 > 0

    def test_c5_positive_even_when_c2_negative(self):
        cfg = PrincipalConfig(q=4.0, eps=1.0, u=COS, N=2)
        assert cfg.c2 < 0  # c1 = 0.05 kills the quadratic branch
        assert cfg.c5 == pytest.approx(0.9 * 0.5**4 / 4.0)
        assert 0 < cfg.delta < 1

    def test_theoretical_c5_uses_smaller_branch(self):
        cfg = PrincipalConfig(q=4.0, eps=1.0, u=COS, N=2, mode="theoretical")
        assert cfg.c5 == pytest.approx(0.9 * min(cfg.c2 / (2 * cfg.c4), 0.5**4 / 4))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(q=2.0),
            dict(eps=0.0),
            dict(N=0),
            dict(mode="exact"),
            dict(u="cos"),
            dict(u=TrigPoly({1: 1.0})),
            dict(u=TrigPoly.zero()),
            dict(u=TrigPoly({1: 1j})),
        ],
    )
    def test_rejects(self, kw):
        base = dict(q=4.0, eps=1.0, u=COS, N=2)
        base.update(kw)
        with pytest.raises(PreconditionError):
            PrincipalConfig(**base)


class TestEnergyThreshold:
    def test_empirical_flat_half(self):
        assert energy_threshold(2, "empirical") == 0.5
        assert energy_threshold(50, "empirical") == 0.5

    def test_theoretical_formula(self):
        assert energy_threshold(4, "theoretical") == pytest.approx(
            (1 + math.exp(-4)) ** -0.25
        )
        # approaches 1 from below as N grows
        assert 0.9 < energy_threshold(4, "theoretical") < 1.0
        assert energy_threshold(8, "theoretical") > energy_threshold(4, "theoretical")


class TestBuildW:
    def test_unit_l1_scaled_for_cosine(self):
        w, cert = build_w(COS, 2, 0.025)
        assert cert.method == "unit-l1-scaled"
        assert cert.sup_bound == 1.0
        assert cert.l2 == 0.5  # exactly at the empirical threshold
        assert cert.dichotomy == "certified"
        assert w.coeff(1) == pytest.approx(0.5)

    def test_constant_u_gives_constant_w(self):
        u = TrigPoly.const(1.0) + TrigPoly.cosine(1, 0.25)
        w, cert = build_w(u, 3, 0.025)
        assert cert.method == "constant"
        assert complex(w.coeff(0)).real == 1.0
        assert cert.l2 == 1.0

    def test_negative_u_gives_minus_one(self):
        u = TrigPoly.const(-2.0) + TrigPoly.sine(1, 0.5)
        w, cert = build_w(u, 3, 0.025)
        assert cert.method == "constant"
        assert complex(w.coeff(0)).real == -1.0

    def test_fejer_fallback_when_l2_short(self):
        # l1-normalizing cos t + cos 2t leaves integral w^2 = 1/4 < 1/2,
        # so the ladder of smoothed square waves must take over; the
        # double zero of u at pi forces the notched sign regions
        u = TrigPoly.cosine(1) + TrigPoly.cosine(2)
        w, cert = build_w(u, 2, 0.025)
        assert cert.method == "fejer"
        assert cert.l2 >= 0.5
        assert cert.sup_bound <= 1.0
        assert cert.dichotomy == "certified"
        assert w.is_real()
        # the weight really tracks the sign of u away from the crossings
        ts = np.linspace(0.1, TWO_PI - 0.1, 211)
        uv = u.eval_at(ts).real
        wv = w.eval_at(ts).real
        bad = (np.abs(wv) >= 0.025) & (wv * uv <= 0)
        assert not bad.any()

    def test_fejer_sup_stays_under_one(self):
        u = TrigPoly.cosine(1) + TrigPoly.cosine(2)
        w, _ = build_w(u, 2, 0.025)
        grid = np.linspace(0, TWO_PI, 4096, endpoint=False)
        assert np.abs(w.eval_at(grid).real).max() <= 1.0 + 1e-9

    def test_threshold_mode_recorded(self):
        _, cert = build_w(COS, 2, 0.025, mode="empirical")
        assert cert.threshold_mode == "empirical-flagged"
        assert cert.threshold == 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            build_w(TrigPoly.zero(), 2, 0.025)
        with pytest.raises(PreconditionError):
            build_w(COS, 2, 1.5)


class TestBuildP:
    def test_a_norm_worked_example(self):
        phi = (TrigPoly.cosine(1) + TrigPoly.cosine(2)).scale(0.5)
        P = build_P(phi, 5, 2, 0.05)
        assert P.coeff_l1() == pytest.approx(20.0, abs=1e-12)

    def test_single_factor_is_scaled_dilate(self):
        phi = build_phi(4.0, 0.5).to_trigpoly()
        P = build_P(phi, 5, 1, 0.05)
        assert P == phi.dilate(5).scale(1.0 / 0.05)

    def test_parseval_with_disjoint_spectra(self):
        phi = (TrigPoly.cosine(1) + TrigPoly.cosine(2)).scale(0.5)
        c3, N = 0.05, 3
        P = build_P(phi, 5, N, c3)
        phil2 = float(abs(complex(phi.l2_norm_sq())))
        assert float(abs(complex(P.l2_norm_sq()))) == pytest.approx(
            (1.0 / (c3 * N)) ** 2 * N * phil2, rel=1e-12
        )

    def test_rejects_small_nu(self):
        phi = (TrigPoly.cosine(1) + TrigPoly.cosine(2)).scale(0.5)
        with pytest.raises(PreconditionError, match="nu"):
            build_P(phi, 2, 2, 0.05)


class TestSplineHat:
    def test_unit_mass_and_symmetry(self):
        n = np.arange(-50, 51)
        vals = _spline_hat(n, 0.3, 4)
        assert vals[50] == 1.0
        assert np.allclose(vals, vals[::-1])
        assert (np.abs(vals) <= 1.0).all()

    def test_closed_form_matches_quadrature(self):
        # transform of the 2-fold box convolution (triangle of width eta)
        eta, r = 0.5, 2
        n = 7
        ts = np.linspace(-eta / 2, eta / 2, 200001)
        tri = (1.0 - np.abs(ts) / (eta / 2)) * (2.0 / eta)
        val = np.trapezoid(tri * np.cos(n * ts), ts)
        assert _spline_hat(np.array([n]), eta, r)[0] == pytest.approx(val, abs=1e-8)

    def test_tail_envelope(self):
        # |sinc(x)| <= 1/(pi x) gives |h_hat(n)| <= (2r / (eta n))^r, the
        # bound the window tail constant is built from
        eta, r = 0.1, 4
        n = np.arange(1_000, 50_000, 137, dtype=float)
        assert (np.abs(_spline_hat(n, eta, r)) <= (2 * r / (eta * n)) ** r).all()

    @pytest.mark.parametrize("r", range(1, 7))
    def test_integer_power_matches_float_power(self, r):
        # any chain of products for s**r is within (r - 1) u of the exact
        # power to first order, and pow within about an ulp
        eta = 0.3
        n = np.arange(-20_000, 20_001, dtype=float)
        want = np.sinc(n * (eta / (2.0 * r)) / math.pi) ** r
        got = _spline_hat(n, eta, r)
        assert (np.abs(got - want) <= r * np.spacing(np.abs(want))).all()
        if r % 2 == 0:
            assert (got >= 0.0).all()


@pytest.fixture(scope="module")
def out():
    cfg = PrincipalConfig(q=4.0, eps=1.0, u=COS, N=2)
    return run_principal(cfg)


class TestRunPrincipal:

    def test_certificates_present(self, out):
        for key in (
            "a_q_defect", "min_abs_P", "sign_Pu", "a_norm_P", "Cq",
            "w_sup", "w_l2", "lambda_mass", "f_outside_max", "achieved_eps",
        ):
            assert key in out.certificates

    def test_p_large_on_K(self, out):
        assert out.certificates["min_abs_P_ok"]
        assert out.certificates["min_abs_P"] > 1.0

    def test_sign_chain(self, out):
        assert out.certificates["sign_Pu"] == "positive"

    def test_p_norm_exact(self, out):
        assert out.certificates["a_norm_P"] == out.certificates["Cq"]
        assert out.certificates["a_norm_P"] == 40.0  # l1(phi)/c3 = 1/0.025

    def test_lambda_unit_mass(self, out):
        assert out.certificates["lambda_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_lambda_defect_under_formula(self, out):
        assert out.certificates["lambda_defect_ok"]

    def test_defect_interval_ordered(self, out):
        defect = out.certificates["a_q_defect"]
        assert 0 < defect.lo <= defect.hi < 2.0
        assert out.achieved_eps == defect.hi

    def test_f_vanishes_outside_K(self, out):
        assert out.certificates["f_outside_max"] < 1e-6

    def test_K_contains_E_with_margin(self, out):
        assert out.E.subset_of(out.K)
        assert out.K.measure > out.E.measure
        assert out.eta > 0

    def test_w_energy(self, out):
        assert out.certificates["w_l2_ok"]
        assert out.certificates["w_sup"] <= 1.0

    def test_report_names(self, out):
        names = [name for name, _ in out.report]
        for expected in ("nu", "E_arcs", "margin", "eta", "f_window"):
            assert expected in names

    def test_window_reported(self, out):
        assert out.certificates["f_window"] == out.f.M
        assert out.certificates["f_window_capped"] is False

    def test_f_mass_positive(self, out):
        # f inherits most of the restricted lambda mass
        assert complex(out.f.coeff(0)).real > 0.3

    def test_atom_means(self, out):
        # E(X_j) = s * |phi|_2^2 * |w|_2^2 = s/8 for the cosine weight
        for s_mean in out.certificates["atom_means"]:
            assert s_mean == pytest.approx(s_mean, abs=0)
            assert 0.25 / 8 < s_mean < (1.0 / 3) / 8


def test_principal_n3_level_floor():
    # the benchmark's N=3 config: min_X_on_K is certified_min(X, K).lo, and
    # both it and the rung c3 + c3/16 of the level ladder it replaced are
    # certified lower bounds on the same minimum, so it can only be higher
    cfg = PrincipalConfig(q=4.0, eps=0.9, u=COS, N=3, mode="empirical")
    out = run_principal(cfg)
    certs = out.certificates
    assert certs["min_X_on_K"] == 0.027490609160819038
    assert certs["min_X_on_K"] >= 0.026562500000000003
    assert certs["min_X_on_K"] == certified_min(out.X, out.K).lo
    assert certs["min_abs_P"] == certs["min_X_on_K"] / cfg.c3
    assert certs["sign_Pu"] == "positive"
    assert certs["min_abs_P_ok"]


class TestDilationMargin:
    def test_component_crossing_zero(self):
        E = ArcSet.from_raw([(-0.1, 0.2), (1.2, 1.3)])
        G = ArcSet.from_raw([(-0.3, 0.5), (1.0, 2.0)])
        m = _dilation_margin(E, G)
        assert m == pytest.approx(0.2, abs=1e-12)
        assert E.dilate(m * (1.0 - 1e-9)).subset_of(G)
        assert not E.dilate(m * (1.0 + 1e-9)).subset_of(G)

    def test_inside_the_part_of_a_component_past_zero(self):
        E = ArcSet([(0.05, 0.1)])
        G = ArcSet.from_raw([(-0.3, 0.5)])
        assert _dilation_margin(E, G) == pytest.approx(0.35, abs=1e-12)

    def test_full_circle_gives_cap(self):
        assert _dilation_margin(ArcSet([(1.0, 2.0)]), ArcSet.full_circle()) == 0.5
        assert _dilation_margin(ArcSet([(1.0, 1.1)]), ArcSet([(0.2, 3.0)])) == 0.5

    def test_not_inside_gives_zero(self):
        assert _dilation_margin(ArcSet([(1.0, 2.5)]), ArcSet([(0.5, 2.0)])) == 0.0
        assert _dilation_margin(ArcSet([(1.0, 2.0 + 1e-13)]), ArcSet([(1.0, 2.0)])) == 0.0


class TestAutoWindow:
    def test_principal_n3_not_capped(self):
        # eta of principal N=3 (q=4, eps=0.9, u=cos): target 499 420
        assert _auto_window(0.00025629693955342425, 4) == (1 << 19, False)

    def test_tiny_eta_capped(self):
        assert _auto_window(1e-6, 4) == (1 << 22, True)

    def test_floor(self):
        assert _auto_window(1.0, 4) == (1 << 14, False)


class TestTheoreticalMode:
    @pytest.fixture(autouse=True)
    def small_window(self, monkeypatch):
        # a window capped at 2^16 keeps these runs short and can only
        # raise the defect
        monkeypatch.setattr(principal, "_MAX_WINDOW", 1 << 16)

    def test_small_case_asserts_and_fails_honestly(self):
        # theoretical constants at tiny N cannot reach eps; the run must
        # raise a certificate failure rather than return weakened output
        u = TrigPoly.const(1.0)
        cfg = PrincipalConfig(q=4.0, eps=0.01, u=u, N=2, mode="theoretical")
        with pytest.raises(CertificateError):
            run_principal(cfg)

    def test_empirical_reports_instead(self):
        u = TrigPoly.const(1.0)
        cfg = PrincipalConfig(q=4.0, eps=0.01, u=u, N=2)
        out = run_principal(cfg)
        assert out.achieved_eps > 0.01  # reported, not asserted
