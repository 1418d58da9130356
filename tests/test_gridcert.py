"""Certified bounds, superlevel arcs, and arc-restricted integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcert import PreconditionError, TrigPoly
from trigcert.gridcert import (
    TWO_PI,
    ArcSet,
    arc_fourier_integral,
    certified_min_abs_and_sign,
    certified_sup,
    grid_scan_real,
    indicator_coeffs,
    restricted_fourier,
    sup_certificate,
    superlevel_arcs,
    transported_max,
)


def random_real_poly(rng, degree):
    table = {}
    for n in range(1, degree + 1):
        c = complex(rng.standard_normal(), rng.standard_normal())
        table[n] = c
        table[-n] = c.conjugate()
    table[0] = complex(rng.standard_normal())
    return TrigPoly(table)


# -- ArcSet ------------------------------------------------------------------


class TestArcSet:
    def test_canonical_merge(self):
        k = ArcSet([(1.0, 2.0), (1.5, 3.0), (4.0, 5.0)])
        assert k.arcs == [(1.0, 3.0), (4.0, 5.0)]
        assert k.measure == pytest.approx(3.0)

    def test_rejects_reversed(self):
        with pytest.raises(PreconditionError):
            ArcSet([(2.0, 1.0)])

    def test_wrap_split_and_components(self):
        k = ArcSet.from_raw([(-0.5, 0.5)])
        assert len(k.arcs) == 2
        comps = k.components()
        assert len(comps) == 1
        a, b = comps[0]
        assert b - a == pytest.approx(1.0)
        assert k.contains(0.0) and k.contains(TWO_PI - 0.25) and not k.contains(1.0)

    def test_intersect_complement_union(self):
        k1 = ArcSet([(0.0, 2.0), (3.0, 5.0)])
        k2 = ArcSet([(1.0, 4.0)])
        inter = k1.intersect(k2)
        assert inter.arcs == [(1.0, 2.0), (3.0, 4.0)]
        comp = k1.complement()
        assert comp.measure == pytest.approx(TWO_PI - 4.0)
        assert k1.union(comp).measure == pytest.approx(TWO_PI)
        assert k1.intersect(comp).measure == pytest.approx(0.0)

    def test_dilate_erode(self):
        k = ArcSet([(0.1, 0.3)])
        big = k.dilate(0.2)
        assert big.components()[0][1] - big.components()[0][0] == pytest.approx(0.6)
        assert len(big.arcs) == 2  # wrapped through 0
        back = big.erode(0.2)
        assert back.measure == pytest.approx(k.measure, abs=1e-12)
        assert ArcSet([(1.0, 1.1)]).erode(0.2).measure == 0.0

    def test_mask_half_open(self):
        k = ArcSet([(1.0, 2.0), (3.0, 4.0)])
        got = k.mask(np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.999, 4.0, 5.0]))
        assert got.tolist() == [False, True, True, False, False,
                                True, True, False, False]

    def test_mask_arc_split_at_zero(self):
        k = ArcSet([(0.0, 0.5), (TWO_PI - 0.5, TWO_PI)])
        assert len(k.components()) == 1
        got = k.mask(np.array([0.0, 0.25, 0.5, 1.0, TWO_PI - 0.5, TWO_PI - 1e-9]))
        assert got.tolist() == [True, True, False, False, True, True]

    def test_mask_empty(self):
        t = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        got = ArcSet.empty().mask(t)
        assert got.shape == t.shape and not got.any()

    def test_mask_agrees_with_contains(self):
        k = ArcSet([(0.0, 0.4), (1.0, 2.5), (3.0, 3.1), (5.0, TWO_PI)])
        t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        ends = np.ravel(k.arcs)
        interior = t[np.abs(t[:, None] - ends[None, :]).min(axis=1) > 1e-9]
        assert k.mask(interior).tolist() == [k.contains(x) for x in interior]

    def test_snap_inward(self):
        k = ArcSet([(0.1, 1.234567), (2.0, 2.0 + 1e-9)])
        s = k.snap_inward(16)
        g = 1 << 16
        for a, b in s.arcs:
            assert abs(a * g / TWO_PI - round(a * g / TWO_PI)) < 1e-9
            assert abs(b * g / TWO_PI - round(b * g / TWO_PI)) < 1e-9
        assert s.subset_of(k)
        assert s.measure >= k.measure - 2 * len(k.arcs) * TWO_PI / g

    def test_json_roundtrip(self):
        k = ArcSet([(0.0, 1.0), (2.5, 6.0)])
        assert ArcSet.from_json_dict(k.to_json_dict()) == k


# -- certified sup -----------------------------------------------------------


class TestCertifiedSup:
    def test_cosine_tight(self):
        f = TrigPoly.cosine(1)
        cert = sup_certificate(f, grid_factor=32)
        assert cert.grid_size == 64
        assert 1.0 <= cert.bound <= 1.0517

    def test_zero_and_const(self):
        assert certified_sup(TrigPoly.zero()) == 0.0
        assert certified_sup(TrigPoly.const(3.5)) == 3.5

    def test_bound_dominates_fine_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_real_poly(rng, int(rng.integers(1, 9)))
            bound = certified_sup(f)
            dense = np.abs(f.eval_grid(4096)).max()
            assert bound >= dense - 1e-9

    def test_monotone_in_grid_factor(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_real_poly(rng, 6)
            b = [certified_sup(f, gf) for gf in (4, 8, 16, 32)]
            for x, y in zip(b, b[1:]):
                assert y <= x + 1e-12

    def test_complex_poly(self):
        f = TrigPoly({2: 1.0, -3: 0.5j})
        bound = certified_sup(f, 16)
        dense = np.abs(f.eval_grid(8192)).max()
        assert dense - 1e-9 <= bound <= 1.5 + 1e-12

    def test_staggered_scan_matches_single(self, monkeypatch):
        import trigcert.gridcert as gc

        rng = np.random.default_rng(3)
        f = random_real_poly(rng, 5)
        ref_max, ref_min = grid_scan_real(f, 5, 1024)
        monkeypatch.setattr(gc, "_MAX_SYNTH", 64)
        smax, smin = gc.grid_scan_real(f, 5, 1024)
        assert smax == pytest.approx(ref_max, abs=1e-11)
        assert smin == pytest.approx(ref_min, abs=1e-11)

    def test_transported_max_valid(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            f = random_real_poly(rng, d)
            apriori = certified_sup(f, 8)
            M = 256
            g = float(f.eval_grid(M).real.max())
            bound = transported_max(g, apriori, d, M)
            true = float(f.eval_grid(1 << 14).real.max())
            assert bound >= true - 1e-9


# -- certified min / sign ----------------------------------------------------


class TestMinAbsSign:
    def test_positive(self):
        f = TrigPoly.cosine(1) + 2.0
        lo, verdict = certified_min_abs_and_sign(f, ArcSet.full_circle(), 64)
        assert verdict == "positive"
        assert 0.9 <= lo <= 1.0

    def test_negative(self):
        f = TrigPoly.cosine(1).scale(-0.5) - 2.0
        lo, verdict = certified_min_abs_and_sign(f, ArcSet.full_circle(), 64)
        assert verdict == "negative"
        assert lo >= 1.4

    def test_mixed(self):
        f = TrigPoly.cosine(1)
        _, verdict = certified_min_abs_and_sign(f, ArcSet.full_circle(), 16)
        assert verdict == "mixed"

    def test_unknown_when_grazing(self):
        f = TrigPoly.cosine(1) - 1.0  # <= 0, touches 0 at t = 0
        k = ArcSet.from_raw([(-0.01, 0.01)])
        lo, verdict = certified_min_abs_and_sign(f, k, 16)
        assert verdict == "unknown"
        assert lo == 0.0

    def test_lower_bound_sound(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = random_real_poly(rng, 4).scale(0.25) + 6.0
            k = ArcSet([(0.5, 1.5), (3.0, 4.5)])
            lo, verdict = certified_min_abs_and_sign(f, k, 32)
            pts = k.sample(1e-3)
            assert lo <= np.abs(f.eval_at(pts).real).min() + 1e-9
            assert verdict == "positive"


# -- superlevel arcs ---------------------------------------------------------


class TestSuperlevel:
    def test_cos2t_half(self):
        inner, outer = superlevel_arcs(TrigPoly.cosine(2), 0.5, grid_factor=16)
        def circ_dist(x, y):
            return abs((x - y + math.pi) % TWO_PI - math.pi)

        for k in (inner, outer):
            comps = k.components()
            assert len(comps) == 2
            centers = sorted(
                ((a + b) / 2 % TWO_PI for a, b in comps),
                key=lambda c: circ_dist(c, 0.0),
            )
            widths = [(b - a) / 2 for a, b in comps]
            assert circ_dist(centers[0], 0.0) < 1e-8
            assert circ_dist(centers[1], math.pi) < 1e-8
            for w in widths:
                assert w == pytest.approx(math.pi / 6, abs=1e-8)
        assert inner.subset_of(outer)
        assert outer.measure - inner.measure <= 1e-8

    def test_wraparound_single_component(self):
        inner, _ = superlevel_arcs(TrigPoly.cosine(1), 0.5, grid_factor=16)
        comps = inner.components()
        assert len(comps) == 1
        a, b = comps[0]
        assert (b - a) == pytest.approx(2 * math.pi / 3, abs=1e-8)

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError, match="not transverse"):
            superlevel_arcs(TrigPoly.const(0.5), 0.5)

    def test_tangential_is_sound(self):
        # {cos 2t >= 1} is two points; the sandwich collapses around them.
        # A tangential zero is only localizable to ~sqrt(lipschitz * tol)
        # from values alone, so the outer slack is larger than tol here.
        inner, outer = superlevel_arcs(TrigPoly.cosine(2), 1.0, grid_factor=16)
        assert inner.measure == 0.0
        assert outer.measure <= 1e-4
        for a, b in outer.components():
            mid = (a + b) / 2
            dist = min(abs((mid - r + math.pi) % TWO_PI - math.pi) for r in (0.0, math.pi))
            assert dist <= 1e-4

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_sandwich_sound(self, seed, degree):
        rng = np.random.default_rng(seed)
        f = random_real_poly(rng, degree)
        c = float(rng.uniform(-1, 1))
        try:
            inner, outer = superlevel_arcs(f, c, grid_factor=8)
        except PreconditionError:
            return
        ts = np.linspace(0, TWO_PI, 1024, endpoint=False)
        vals = f.eval_at(ts).real
        for t, v in zip(ts, vals):
            if v >= c + 1e-7:
                assert outer.contains(t, slack=1e-12)
        if inner:
            pts = inner.sample(1e-3)
            assert f.eval_at(pts).real.min() >= c - 1e-9


# -- arc Fourier integrals ---------------------------------------------------


class TestArcFourier:
    def test_half_circle_oracle(self):
        val = arc_fourier_integral(TrigPoly.const(1.0), ArcSet([(0.0, math.pi)]), 1)
        assert val == pytest.approx(-1j / math.pi, abs=1e-15)

    def test_full_circle_recovers_coeffs(self):
        rng = np.random.default_rng(5)
        f = random_real_poly(rng, 5)
        for n in range(-6, 7):
            val = arc_fourier_integral(f, ArcSet.full_circle(), n)
            assert val == pytest.approx(complex(f.coeff(n)), abs=1e-12)

    def test_additive_in_arcs(self):
        f = TrigPoly({1: 0.5, -1: 0.5, 3: 0.25j, -3: -0.25j})
        k1, k2 = ArcSet([(0.2, 1.0)]), ArcSet([(2.0, 2.7)])
        whole = arc_fourier_integral(f, k1.union(k2), 2)
        assert whole == pytest.approx(
            arc_fourier_integral(f, k1, 2) + arc_fourier_integral(f, k2, 2), abs=1e-14
        )

    def test_indicator_coeffs_match(self):
        raw = ArcSet([(0.3, 1.1), (2.0, 4.7), (5.5, 6.0)])
        k = raw.snap_inward(20)
        one = TrigPoly.const(1.0)
        coeffs = indicator_coeffs(k, 24, grid_bits=20)
        for n in range(-24, 25):
            assert coeffs[n + 24] == pytest.approx(
                arc_fourier_integral(one, k, n), abs=1e-12
            )

    def test_indicator_requires_dyadic(self):
        with pytest.raises(PreconditionError, match="dyadic"):
            indicator_coeffs(ArcSet([(0.1, 0.9)]), 8, grid_bits=20)

    def test_restricted_fourier_matches_direct(self):
        rng = np.random.default_rng(9)
        f = random_real_poly(rng, 4)
        k = ArcSet([(0.5, 2.0), (3.0, 3.5)]).snap_inward(20)
        got = restricted_fourier(f.as_coeffseq().window, 4, k, 12, grid_bits=20)
        for n in range(-12, 13):
            want = arc_fourier_integral(f, k, n)
            assert got[n + 12] == pytest.approx(want, abs=1e-12)
