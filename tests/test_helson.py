"""Staged products, the sampled transform floor, extension probe."""

import dataclasses
import math

import numpy as np
import pytest

from trigcert import CertificateError, PreconditionError, TrigPoly, descent, helson, principal
from trigcert.gridcert import ArcSet, outside_report
from trigcert.helson import (
    _atoms_uniform,
    _dirichlet_gram,
    _gauss_jordan,
    dense_sequence,
    extension_probe,
    helson_certificate,
    run_stages,
)

TWO_PI = 2.0 * math.pi


def coeff_dict(poly):
    return {n: complex(c) for n, c in zip(poly.freqs.tolist(), poly.coeffs)}


class TestDenseSequence:
    def test_leading_elements(self):
        half = 0.5
        expected = [
            {1: half, -1: half},                       # cos t
            {1: -0.5j, -1: 0.5j},                      # sin t
            {1: -half, -1: -half},                     # -cos t
            {1: 0.5j, -1: -0.5j},                      # -sin t
            {0: 1.0, 1: half, -1: half},               # 1 + cos t
            {0: 1.0, 1: -0.5j, -1: 0.5j},              # 1 + sin t
            {1: half - 0.5j, -1: half + 0.5j},         # cos t + sin t
        ]
        for j, want in enumerate(expected, start=1):
            got = coeff_dict(dense_sequence(j))
            assert got.keys() == want.keys(), f"j={j}"
            for n in want:
                assert got[n] == pytest.approx(want[n], abs=1e-15), f"j={j}, n={n}"

    def test_all_distinct_real_nonzero(self):
        seen = set()
        for j in range(1, 400):
            u = dense_sequence(j)
            key = tuple(sorted(coeff_dict(u).items(), key=lambda kv: kv[0]))
            assert key not in seen
            seen.add(key)
            assert u.is_real()
            assert u.degree >= 1

    def test_no_pure_constants(self):
        for j in range(1, 400):
            assert dense_sequence(j).degree >= 1

    def test_index_validation(self):
        with pytest.raises(PreconditionError):
            dense_sequence(0)


@pytest.fixture(scope="module")
def two_stage():
    return run_stages(4.0, 2)


class TestRunStages:
    def test_single_stage_structure(self):
        stages, S, K, certs = run_stages(4.0, 1)
        assert len(stages) == 1
        rec = stages[0]
        assert rec.j == 1
        assert coeff_dict(rec.u) == coeff_dict(dense_sequence(1))
        assert rec.step_budget == 0.25
        # first step is S_1 - 1, which is also the final defect
        assert rec.step_norm.hi == pytest.approx(certs["final_norm"].hi, rel=1e-12)
        assert certs["k_nonempty"]
        assert K.measure == pytest.approx(certs["k_measure"])

    def test_two_stage_chain(self, two_stage):
        stages, S, K, certs = two_stage
        assert [r.j for r in stages] == [1, 2]
        assert [r.step_budget for r in stages] == [0.25, 0.125]
        # the carrier shrinks: K is the intersection of the stage carriers
        assert K.subset_of(stages[0].K)
        assert K.subset_of(stages[1].K)
        assert certs["k_nonempty"]
        assert K.measure > 0
        assert len(certs["step_norms"]) == 2

    def test_final_product_near_one(self, two_stage):
        _, S, K, certs = two_stage
        assert certs["final_norm"].hi < 1.0
        assert certs["final_norm_ok"]

    def test_vanishing_outside_carrier(self, two_stage):
        _, S, K, certs = two_stage
        assert certs["outside_max"] < 1e-6
        assert certs["outside_bound"] >= certs["outside_max"]

    def test_empty_carrier_scans_the_whole_circle(self):
        # at J = 3 the stage carriers no longer meet; the off-K scan then
        # covers the whole circle instead of reporting 0
        _, S, K, certs = run_stages(4.0, 3)
        assert not K and certs["k_measure"] == 0.0
        out_max, out_tail = outside_report(S, ArcSet.empty())
        assert certs["outside_max"] == out_max > 0.0
        assert certs["outside_bound"] == out_max + out_tail

    def test_stage_principal_config(self, two_stage, monkeypatch):
        # stage j runs u_j at N = 2 with eps 0.99 * 2^(-1-j) / ||S_{j-1}||_A
        stages, *_ = two_stage
        for j, rec in enumerate(stages, start=1):
            assert coeff_dict(rec.u) == coeff_dict(dense_sequence(j))
        assert stages[0].eps == 0.99 * 0.25
        assert stages[1].eps == 0.99 * 0.125 / stages[0].S.a_p_norm(1.0).hi
        seen = []

        def record(cfg):
            seen.append(cfg)
            raise CertificateError("stub", 0.0, 0.0)

        monkeypatch.setattr(helson, "run_principal", record)
        with pytest.raises(CertificateError):
            run_stages(4.0, 1)
        assert (seen[0].q, seen[0].N, seen[0].eps) == (4.0, 2, 0.99 * 0.25)

    def test_stage_failure_names_stage(self, monkeypatch):
        # theoretical mode cannot reach this eps at toy sizes; a window
        # capped at 2^16 keeps the run short and can only raise the defect
        real = helson.run_principal
        monkeypatch.setattr(principal, "_MAX_WINDOW", 1 << 16)
        monkeypatch.setattr(helson, "run_principal", lambda cfg: real(dataclasses.replace(
            cfg, u=TrigPoly.const(1.0), mode="theoretical", eps=0.01)))
        with pytest.raises(CertificateError, match="stage 1"):
            run_stages(4.0, 1)

    def test_j_validation(self):
        with pytest.raises(PreconditionError):
            run_stages(4.0, 0)


class TestHelsonCertificate:
    def test_single_atom_floor_is_one(self, monkeypatch):
        # every measure concentrated at one point has |mu_hat(n)| = TV
        monkeypatch.setattr(helson, "_MAX_ATOMS", 1)
        K = ArcSet([(1.0, 1.0 + 1e-12)])
        delta = helson_certificate(K, trials=20, M=32, seed=3)
        assert delta == pytest.approx(1.0, abs=1e-9)

    def test_atoms_inside_k_and_tv_one(self):
        K = ArcSet([(0.5, 1.5), (4.0, 4.5)])
        atoms = _atoms_uniform(K, 200, np.random.default_rng(11))
        assert K.dilate(1e-12).mask(atoms % (2 * math.pi)).all()
        # TV = 1 caps every |mu_hat(n)| at 1
        delta = helson_certificate(K, trials=10, M=16, seed=11)
        assert 0.0 < delta <= 1.0 + 1e-12

    def test_deterministic_given_seed(self):
        K = ArcSet([(0.5, 1.5)])
        a = helson_certificate(K, trials=25, M=16, seed=7)
        b = helson_certificate(K, trials=25, M=16, seed=7)
        assert a == b

    def test_cutoff_monotone(self):
        K = ArcSet([(0.5, 2.5)])
        lo = helson_certificate(K, trials=40, M=24, seed=5)
        hi = helson_certificate(K, trials=40, M=48, seed=5)
        assert hi >= lo - 1e-12

    def test_preconditions(self):
        K = ArcSet([(0.5, 1.5)])
        with pytest.raises(PreconditionError):
            helson_certificate(ArcSet([]), trials=5, M=8)
        with pytest.raises(PreconditionError):
            helson_certificate(K, trials=0, M=8)
        with pytest.raises(PreconditionError):
            helson_certificate(K, trials=5, M=-1)


@pytest.fixture(scope="module")
def arc():
    return ArcSet([(0.5, 2.5)])


class TestExtensionProbe:
    def test_single_point_oracle(self, arc):
        # one constraint, eps = 1: the flat spread over 2d+1 frequencies is
        # optimal, so b_norm = 1 + (2d+1)^{1/p - 1}
        f, rep = extension_probe(arc, [1.0], [1.0], 1.5, 1.0, 8)
        exact = 1.0 + 17.0 ** (-1.0 / 3.0)
        assert rep["b_norm"] == pytest.approx(exact, rel=1e-12)
        assert rep["b_norm_lo"] <= exact <= rep["b_norm_hi"]
        # the flat spread is the optimum, where the dual bound is tight
        assert rep["b_norm_lo"] == pytest.approx(exact, rel=1e-12)
        assert abs(f.eval_at(np.array([1.0]))[0] - 1.0) < 1e-10

    def test_zero_target_gives_zero(self, arc):
        f, rep = extension_probe(arc, [1.0, 2.0], [0.0, 0.0], 1.5, 0.1, 4)
        assert f.degree == 0 and f.freqs.size == 0 and f.coeffs.size == 0
        assert rep["b_norm"] == 0.0

    def test_interpolation_residual(self, arc):
        pts = [0.7, 1.2, 1.9, 2.3]
        vals = [1.0, -1.0, 0.5, 1.0 + 0.5j]
        f, rep = extension_probe(arc, pts, vals, 4.0 / 3.0, 0.05, 16)
        assert rep["residual"] < 1e-8
        assert np.abs(f.eval_at(np.asarray(pts)) - np.asarray(vals)).max() < 1e-7

    def test_trace_monotone(self, arc, monkeypatch):
        # the descent takes the gradient once an iteration, at the point
        # its last step accepted, so the objective read there traces the
        # accepted points; eps = 10 makes the probe fall back to descent
        trace = []

        def traced(x0, objective, gradient, **kw):
            def recorded(c, mu):
                trace.append(objective(c, mu))
                return gradient(c, mu)

            return descent.smoothed_descent(x0, objective, recorded, **kw)

        monkeypatch.setattr(helson, "smoothed_descent", traced)
        _, rep = extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0],
                                 1.5, 10.0, 8)
        assert rep["iterations"] > 0 and len(trace) >= rep["iterations"]
        assert (np.diff(trace) <= 1e-15).all()

    def test_descent_path_pinned(self, arc):
        # Newton on the KKT system certifies the start: the descent takes
        # no step, and the bracket closes on the KKT value
        _, rep = extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0],
                                 1.5, 0.05, 24)
        assert rep["iterations"] == 0
        assert rep["descent_stages"] == [{"mu": 1e-2, "steps": 0, "stop": "gap"}]
        assert rep["b_norm"] == pytest.approx(10.187246061725721, rel=1e-12)
        # the two ends meet to the last bit; a float dual an ulp or so
        # above hi would be capped at it
        assert rep["b_norm_lo"] <= rep["b_norm_hi"] == rep["b_norm"]
        assert rep["b_norm_gap"] <= 1e-12 * rep["b_norm_lo"]
        assert rep["residual"] < 1e-8

    def test_fallback_when_newton_fails_at_the_start(self, arc):
        # at eps = 10 the composite norm is nearly the l1 norm, and Newton
        # from the start's multiplier does not certify; the descent goes
        # on, and a later check stops it on the gap
        _, rep = extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0],
                                 1.5, 10.0, 8)
        assert rep["iterations"] > 0
        assert rep["descent_stages"][-1]["stop"] == "gap"
        lo, hi = rep["b_norm_lo"], rep["b_norm_hi"]
        assert 0.0 < lo <= hi and hi - lo <= 1e-5 * lo
        assert rep["residual"] < 1e-8

    def test_dual_far_above_hi_raises(self, arc, monkeypatch):
        # a dual norm understated by half doubles the dual bound, which
        # then exceeds N at a feasible point: an unsound bracket raises
        dual_norm = helson._dual_norm
        monkeypatch.setattr(helson, "_dual_norm",
                            lambda *a: 0.5 * dual_norm(*a))
        with pytest.raises(CertificateError) as info:
            extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0], 1.5, 0.05, 24)
        assert info.value.name == "gap-dual"

    def test_dual_bound_on_random_instance(self):
        rng = np.random.default_rng(5)
        arc = ArcSet([(0.3, 2.9)])
        pts = np.sort(rng.uniform(0.4, 2.8, 5))
        vals = rng.normal(size=5) + 1j * rng.normal(size=5)
        _, rep = extension_probe(arc, pts, vals, 4.0 / 3.0, 0.1, 12)
        assert 0.0 < rep["b_norm_lo"] <= rep["b_norm_hi"] == rep["b_norm"]
        assert rep["b_norm_gap"] == rep["b_norm_hi"] - rep["b_norm_lo"]

    def test_gap_stop_within_its_own_gap(self, arc, monkeypatch):
        # the same probe's descent with the gap check left out runs every
        # stage to its own stop; the certified bracket lies below the
        # value it reaches
        ends = []

        def also_without_gap(*a, gap=None, **kw):
            ends.append(descent.smoothed_descent(*a, **kw))
            return descent.smoothed_descent(*a, gap=gap, **kw)

        monkeypatch.setattr(helson, "smoothed_descent", also_without_gap)
        _, rep = extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0],
                                 1.5, 0.05, 24)
        assert rep["descent_stages"][-1]["stop"] == "gap"
        c, _, stages = ends[0]
        assert "gap" not in [s["stop"] for s in stages]
        assert sum(s["steps"] for s in stages) > rep["iterations"]
        full = float(np.abs(c).sum() + np.sum(np.abs(c) ** 1.5) ** (1.0 / 1.5) / 0.05)
        assert rep["b_norm_lo"] <= full
        assert rep["b_norm"] <= full

    def test_degree_doubling_never_hurts(self, arc):
        pts, vals = [0.7, 1.5, 2.2], [1.0, 1.0, 1.0]
        prev = None
        for d in (8, 16, 32, 64):
            _, rep = extension_probe(arc, pts, vals, 1.5, 0.05, d)
            if prev is not None:
                assert rep["b_norm"] <= prev + 1e-6
            prev = rep["b_norm"]

    def test_preconditions(self, arc):
        with pytest.raises(PreconditionError):
            extension_probe(arc, [3.5], [1.0], 1.5, 0.1, 4)  # outside K
        with pytest.raises(PreconditionError):
            extension_probe(arc, [1.0, 1.0], [1.0, 1.0], 1.5, 0.1, 4)
        with pytest.raises(PreconditionError):
            extension_probe(arc, list(np.linspace(0.6, 2.4, 10)),
                            [1.0] * 10, 1.5, 0.1, 4)  # 10 > 2d+1
        with pytest.raises(PreconditionError):
            extension_probe(arc, [1.0], [1.0], 1.0, 0.1, 4)
        with pytest.raises(PreconditionError):
            extension_probe(arc, [1.0], [1.0], 1.5, 0.0, 4)
        with pytest.raises(PreconditionError):
            extension_probe(ArcSet([]), [1.0], [1.0], 1.5, 0.1, 4)


class TestGramProjection:
    def test_closed_form_gram_matches_products(self):
        # the demo's shape: 13 points, degree 2048
        d = 2048
        pts = np.sort(np.random.default_rng(3).uniform(0.0, TWO_PI, 13))
        A = np.exp(1j * np.outer(pts, np.arange(-d, d + 1)))
        G = _dirichlet_gram(pts, d)
        assert np.abs(G - A @ A.conj().T).max() <= 1e-10
        assert np.all(np.diag(G) == 2 * d + 1)

    def test_gauss_jordan_pivots(self):
        # a zero leading entry needs a row swap; the result matches LAPACK
        M = np.array([[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(_gauss_jordan(M, b), np.linalg.solve(M, b), rtol=1e-14)
        assert np.allclose(_gauss_jordan(M, np.eye(3)) @ M, np.eye(3), atol=1e-15)

    def test_gauss_jordan_singular_is_not_finite(self):
        # a zero pivot gives a non-finite solution, which ends a Newton solve
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert not np.all(np.isfinite(_gauss_jordan(M, np.array([1.0, 0.0]))))

    def test_probe_meets_its_constraints(self, arc):
        pts = np.array([0.7, 1.2, 1.9, 2.3])
        vals = np.array([1.0, -1.0, 0.5, 1.0 + 0.5j])
        f, rep = extension_probe(arc, pts, vals, 4.0 / 3.0, 0.05, 16)
        A = np.exp(1j * np.outer(pts, f.freqs))
        assert np.abs(A @ f.coeffs - vals).max() <= 1e-12
        assert rep["residual"] <= 1e-12

    def test_nearly_coincident_points_fail_the_residual_check(self, arc):
        # 1e-8 apart (distinct by the precondition's 1e-9) the Gram matrix
        # is singular to roundoff, and opposite targets cannot be met
        with pytest.raises(CertificateError) as info:
            extension_probe(arc, [1.0, 1.0 + 1e-8], [1.0, -1.0], 1.5, 0.1, 64)
        assert info.value.name == "probe-residual"
