"""Staged products, sampled-measure certification, extension probe."""

import math

import numpy as np
import pytest

from trigcert import CertificateError, PreconditionError, TrigPoly
from trigcert.gridcert import ArcSet
from trigcert.helson import (
    SampledMeasure,
    dense_sequence,
    extension_probe,
    helson_certificate,
    run_stages,
)

TWO_PI = 2.0 * math.pi


def coeff_dict(poly):
    return {n: complex(poly.coeff(n)) for n in poly.coeffs}


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

    def test_stage_overrides(self):
        u = TrigPoly.cosine(1)
        stages, _, _, _ = run_stages(4.0, 1, config={"u": u, "eps": 0.3, "N": 2})
        assert coeff_dict(stages[0].u) == coeff_dict(u)
        assert stages[0].eps == 0.3

    def test_per_stage_config_length(self):
        with pytest.raises(PreconditionError):
            run_stages(4.0, 2, config=[{}])

    def test_stage_failure_names_stage(self):
        # theoretical mode cannot reach this eps at toy sizes
        with pytest.raises(CertificateError, match="stage 1"):
            run_stages(4.0, 1, config={
                "u": TrigPoly.const(1.0), "mode": "theoretical",
                "eps": 0.01, "window": 1 << 16,
            })

    def test_j_validation(self):
        with pytest.raises(PreconditionError):
            run_stages(4.0, 0)


class TestHelsonCertificate:
    def test_single_atom_floor_is_one(self):
        # every measure concentrated at one point has |mu_hat(n)| = TV
        K = ArcSet([(1.0, 1.0 + 1e-12)])
        delta, worst = helson_certificate(K, [], trials=20, M=32, seed=3,
                                          max_atoms=1)
        assert delta == pytest.approx(1.0, abs=1e-9)
        assert len(worst.atoms) == 1
        assert abs(worst.masses[0]) == pytest.approx(1.0)

    def test_atoms_inside_k_and_tv_one(self):
        K = ArcSet([(0.5, 1.5), (4.0, 4.5)])
        delta, worst = helson_certificate(K, [], trials=10, M=16, seed=11)
        assert 0.0 < delta <= 1.0 + 1e-12
        assert isinstance(worst, SampledMeasure)
        for t in worst.atoms:
            assert K.contains(t, slack=1e-12)
        assert sum(abs(m) for m in worst.masses) == pytest.approx(1.0)
        assert abs(worst.argmax_n) <= 16

    def test_deterministic_given_seed(self):
        K = ArcSet([(0.5, 1.5)])
        a = helson_certificate(K, [TrigPoly.cosine(2)], trials=25, M=16, seed=7)
        b = helson_certificate(K, [TrigPoly.cosine(2)], trials=25, M=16, seed=7)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_cutoff_monotone(self):
        K = ArcSet([(0.5, 2.5)])
        lo, _ = helson_certificate(K, [], trials=40, M=24, seed=5)
        hi, _ = helson_certificate(K, [], trials=40, M=48, seed=5)
        assert hi >= lo - 1e-12

    def test_pairing_chain_holds(self, two_stage):
        stages, _, K, _ = two_stage
        delta, worst = helson_certificate(K, [r.P for r in stages],
                                          trials=30, M=256, seed=1)
        assert delta > 0.0
        assert worst.pairing_ok
        assert worst.pairing_lower <= worst.sup_mu_hat + 1e-12

    def test_preconditions(self):
        K = ArcSet([(0.5, 1.5)])
        with pytest.raises(PreconditionError):
            helson_certificate(ArcSet([]), [], trials=5, M=8)
        with pytest.raises(PreconditionError):
            helson_certificate(K, [], trials=0, M=8)
        with pytest.raises(PreconditionError):
            helson_certificate(K, [TrigPoly.cosine(9)], trials=5, M=8)


@pytest.fixture(scope="module")
def arc():
    return ArcSet([(0.5, 2.5)])


class TestExtensionProbe:
    def test_single_point_oracle(self, arc):
        # one constraint, eps = 1: the flat spread over 2d+1 frequencies is
        # optimal, so b_norm = 1 + (2d+1)^{1/p - 1}
        f, rep = extension_probe(arc, [1.0], [1.0], 1.5, 1.0, 8)
        assert rep["b_norm"] == pytest.approx(1.0 + 17.0 ** (-1.0 / 3.0), abs=1e-7)
        assert abs(f.eval_at(np.array([1.0]))[0] - 1.0) < 1e-10

    def test_zero_target_gives_zero(self, arc):
        f, rep = extension_probe(arc, [1.0, 2.0], [0.0, 0.0], 1.5, 0.1, 4)
        assert f.degree == 0 and not f.coeffs
        assert rep["b_norm"] == 0.0

    def test_interpolation_residual(self, arc):
        pts = [0.7, 1.2, 1.9, 2.3]
        vals = [1.0, -1.0, 0.5, 1.0 + 0.5j]
        f, rep = extension_probe(arc, pts, vals, 4.0 / 3.0, 0.05, 16)
        assert rep["residual"] < 1e-8
        assert np.abs(f.eval_at(np.asarray(pts)) - np.asarray(vals)).max() < 1e-7

    def test_trace_monotone(self, arc):
        _, rep = extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0],
                                 1.5, 0.05, 24)
        trace = np.asarray(rep["objective_trace"])
        assert (np.diff(trace) <= 1e-15).all()

    def test_descent_path_pinned(self, arc):
        # the exact iteration count and norm of one probe: any change to the
        # step rule, the backtracking or the stall test moves them
        _, rep = extension_probe(arc, [0.7, 1.5, 2.2], [1.0, 1.0, 1.0],
                                 1.5, 0.05, 24)
        assert rep["iterations"] == 195
        assert rep["a_norm"] == pytest.approx(1.3118395566890644, abs=1e-12)

    def test_degree_doubling_never_hurts(self, arc):
        pts, vals = [0.7, 1.5, 2.2], [1.0, 1.0, 1.0]
        prev = None
        for d in (8, 16, 32, 64):
            _, rep = extension_probe(arc, pts, vals, 1.5, 0.05, d)
            if prev is not None:
                assert rep["b_norm"] <= prev + 1e-6
            prev = rep["b_norm"]

    def test_guarantee_report(self, arc):
        _, rep = extension_probe(arc, [1.0], [1.0], 1.5, 1.0, 8,
                                 delta_hat=0.5)
        assert rep["guarantee"] == pytest.approx(2.0)
        assert rep["guarantee_ok"] == (rep["b_norm"] <= rep["guarantee"])

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
