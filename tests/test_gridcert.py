"""Certified bounds, superlevel arcs, and arc-restricted integrals."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcert import PreconditionError, TrigPoly, gridcert
from trigcert.gridcert import (
    TWO_PI,
    ArcSet,
    _grid_for,
    _real_at,
    certified_min,
    certified_min_abs_and_sign,
    certified_sup,
    grid_scan_real,
    indicator_coeffs,
    restricted_fourier,
    superlevel_arcs,
    uniform_grid,
)


def random_real_poly(rng, degree):
    table = {}
    for n in range(1, degree + 1):
        c = complex(rng.standard_normal(), rng.standard_normal())
        table[n] = c
        table[-n] = c.conjugate()
    table[0] = complex(rng.standard_normal())
    return TrigPoly(table)


def random_sparse_real_poly(rng, terms, degree, constant=True, sines=True):
    """Real polynomial with ``terms`` positive frequencies up to degree,
    sparse in TrigPoly's sense once degree passes about 10 terms."""
    table = {}
    for n in rng.choice(np.arange(1, degree + 1), terms, replace=False).tolist():
        c = complex(rng.standard_normal(), rng.standard_normal() if sines else 0.0)
        table[n] = c
        table[-n] = c.conjugate()
    if constant:
        table[0] = complex(rng.standard_normal())
    return TrigPoly(table)


def with_eval_at(monkeypatch):
    """Make the bisection evaluate its midpoints with eval_at, the
    reference for _real_at."""
    monkeypatch.setattr(gridcert, "_real_at", lambda g, t: g.eval_at(t).real)


def arc_samples(K: ArcSet, spacing: float) -> np.ndarray:
    """Points of K, its arc endpoints included, no two consecutive ones of
    an arc further apart than spacing."""
    return np.concatenate([np.linspace(a, b, max(2, math.ceil((b - a) / spacing) + 1))
                           for a, b in K.arcs.tolist()])


def stdout_under_blas_threads(script: str, threads: int) -> bytes:
    """What a Python script writes to stdout, with trigcert importable and
    OpenBLAS and OpenMP pinned to ``threads`` threads (at most 4)."""
    assert 1 <= threads <= 4
    src = str(Path(gridcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, timeout=600)
    return run.stdout


def dyadic_arcs(count: int, bits: int) -> ArcSet:
    """``count`` random disjoint arcs with endpoints on the 2**bits grid."""
    G = 1 << bits
    ends = np.sort(np.random.default_rng(count).choice(G, 2 * count, replace=False))
    K = ArcSet(ends.reshape(-1, 2) * (TWO_PI / G))
    assert len(K.arcs) == count
    return K


def arc_fourier_integral(f: TrigPoly, K: ArcSet, n: int) -> complex:
    """(1/2pi) * integral over K of f(t) e^{-int} dt, by closed-form
    antiderivatives of each exponential term, one arc at a time: the
    oracle for the batched indicator_coeffs / restricted_fourier."""
    total = 0.0 + 0.0j
    for m, cm in zip(f.freqs.tolist(), f.coeffs.astype(complex).tolist()):
        k = m - n
        if k == 0:
            total += cm * K.measure / TWO_PI
        else:
            s = sum(np.exp(1j * k * b) - np.exp(1j * k * a) for a, b in K.arcs)
            total += cm * s / (TWO_PI * 1j * k)
    return complex(total)


class RefArcSet:
    """The arc set as a sorted list of (a, b) tuples, built and combined
    one arc at a time: the reference the array-backed ArcSet must match
    exactly."""

    def __init__(self, arcs):
        canonical = []
        for a, b in sorted((float(a), float(b)) for a, b in arcs):
            if not (0.0 <= a < b <= TWO_PI + 1e-15):
                raise PreconditionError(f"bad arc [{a}, {b}]")
            b = min(b, TWO_PI)
            if canonical and a <= canonical[-1][1]:
                canonical[-1][1] = max(canonical[-1][1], b)
            else:
                canonical.append([a, b])
        self.arcs = [tuple(arc) for arc in canonical]

    @classmethod
    def from_raw(cls, pairs):
        out = []
        for a0, b0 in pairs:
            length = float(b0) - float(a0)
            if length <= 0:
                raise PreconditionError(f"empty arc [{a0}, {b0}]")
            if length >= TWO_PI:
                return cls([(0.0, TWO_PI)])
            a = float(a0) % TWO_PI
            b = a + length
            if b <= TWO_PI:
                out.append((a, b))
            else:
                out.append((a, TWO_PI))
                out.append((0.0, b - TWO_PI))
        return cls(out)

    @property
    def measure(self):
        return sum(b - a for a, b in self.arcs)

    def components(self):
        if len(self.arcs) >= 2:
            (a0, b0), (al, bl) = self.arcs[0], self.arcs[-1]
            if a0 == 0.0 and bl == TWO_PI and self.measure < TWO_PI:
                return self.arcs[1:-1] + [(al, b0 + TWO_PI)]
        return list(self.arcs)

    def contains(self, t):
        """Closed-arc membership."""
        t = t % TWO_PI
        return any(a <= t <= b for a, b in self.arcs)

    def contains_half_open(self, t):
        return any(a <= t < b for a, b in self.arcs)

    def intersect(self, other):
        out = []
        i = j = 0
        while i < len(self.arcs) and j < len(other.arcs):
            a1, b1 = self.arcs[i]
            a2, b2 = other.arcs[j]
            lo, hi = max(a1, a2), min(b1, b2)
            if lo < hi:
                out.append((lo, hi))
            if b1 <= b2:
                i += 1
            else:
                j += 1
        return RefArcSet(out)

    def complement(self):
        if not self.arcs:
            return RefArcSet([(0.0, TWO_PI)])
        out = []
        prev = 0.0
        for a, b in self.arcs:
            if a > prev:
                out.append((prev, a))
            prev = b
        if prev < TWO_PI:
            out.append((prev, TWO_PI))
        return RefArcSet(out)

    def subset_of(self, other):
        return all(any(c <= a and b <= d for c, d in other.arcs) for a, b in self.arcs)

    def dilate(self, eps):
        if not self.arcs:
            return self
        return RefArcSet.from_raw([(a - eps, b + eps) for a, b in self.arcs])

    def snap_inward(self, grid_bits):
        G = 1 << grid_bits
        scale = G / TWO_PI
        out = []
        for a, b in self.arcs:
            ma = math.ceil(a * scale - 1e-9)
            mb = math.floor(b * scale + 1e-9)
            if mb > ma:
                out.append((ma * TWO_PI / G, mb * TWO_PI / G))
        return RefArcSet(out)

    def to_json_dict(self):
        return {"arcs": [{"a": format(a, ".17g"), "b": format(b, ".17g")}
                         for a, b in self.arcs]}


def random_pairs(rng):
    """Up to 7 arcs inside [0, 2pi], with touching, nested and repeated
    arcs, arcs at 0 and at 2pi, and now and then the whole circle."""
    pairs = []
    for _ in range(int(rng.integers(0, 8))):
        kind = rng.integers(0, 6)
        if kind == 0 and pairs:  # touches an earlier arc at its right end
            a = pairs[int(rng.integers(len(pairs)))][1]
            if a >= TWO_PI:
                continue
            pairs.append((a, min(TWO_PI, a + float(rng.uniform(0.01, 1.0)))))
        elif kind == 1:
            pairs.append((0.0, float(rng.uniform(0.01, 1.0))))
        elif kind == 2:
            pairs.append((float(rng.uniform(TWO_PI - 1.0, TWO_PI - 0.01)), TWO_PI))
        elif kind == 3 and pairs:  # a repeat of an earlier arc
            pairs.append(pairs[int(rng.integers(len(pairs)))])
        elif kind == 4 and rng.random() < 0.2:
            pairs.append((0.0, TWO_PI))
        else:
            a = float(rng.uniform(0.0, TWO_PI - 0.01))
            pairs.append((a, min(TWO_PI, a + float(rng.exponential(0.7)) + 1e-3)))
    return pairs


def same(k: ArcSet, ref: RefArcSet) -> bool:
    return k.arcs.tolist() == [list(arc) for arc in ref.arcs]


class TestAgainstReference:
    SEEDS = range(300)

    def test_canonical_form_measure_components(self):
        for seed in self.SEEDS:
            pairs = random_pairs(np.random.default_rng(seed))
            k, ref = ArcSet(pairs), RefArcSet(pairs)
            assert same(k, ref), pairs
            assert k.arcs.dtype == np.float64 and not k.arcs.flags.writeable
            assert k.measure == ref.measure
            assert k.components().tolist() == [list(c) for c in ref.components()]
            assert bool(k) == bool(ref.arcs)

    def test_from_raw(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            pairs = []
            for _ in range(int(rng.integers(0, 6))):
                a = float(rng.uniform(-10.0, 10.0))
                pairs.append((a, a + float(rng.choice([rng.uniform(1e-3, 2.0),
                                                       rng.uniform(2.0, 7.0)]))))
            assert same(ArcSet.from_raw(pairs), RefArcSet.from_raw(pairs)), pairs
        assert same(ArcSet.from_raw([(-0.5, 0.5)]), RefArcSet.from_raw([(-0.5, 0.5)]))
        assert ArcSet.from_raw([(1.0, 1.0 + TWO_PI)]) == ArcSet.full_circle()
        with pytest.raises(PreconditionError, match="empty arc"):
            ArcSet.from_raw([(0.5, 1.0), (2.0, 2.0)])

    def test_intersect_complement_subset(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            p1, p2 = random_pairs(rng), random_pairs(rng)
            k1, k2, r1, r2 = ArcSet(p1), ArcSet(p2), RefArcSet(p1), RefArcSet(p2)
            assert same(k1.intersect(k2), r1.intersect(r2)), (p1, p2)
            assert same(k1.complement(), r1.complement()), p1
            assert k1.subset_of(k2) == r1.subset_of(r2), (p1, p2)
            inter = k1.intersect(k2)
            assert inter.subset_of(k1) and inter.subset_of(k2)

    def test_dilate_snap_inward(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            pairs = random_pairs(rng)
            k, ref = ArcSet(pairs), RefArcSet(pairs)
            eps = float(rng.choice([0.0, rng.uniform(0.0, 0.3), rng.uniform(2.0, 4.0)]))
            assert same(k.dilate(eps), ref.dilate(eps)), (pairs, eps)
            bits = int(rng.integers(4, 25))
            assert same(k.snap_inward(bits), ref.snap_inward(bits)), (pairs, bits)

    def test_mask_and_json(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            pairs = random_pairs(rng)
            k, ref = ArcSet(pairs), RefArcSet(pairs)
            t = np.concatenate([rng.uniform(0.0, TWO_PI, 64), k.arcs.ravel()])
            t = t[t < TWO_PI]
            assert k.mask(t).tolist() == [ref.contains_half_open(x) for x in t]
            assert k.to_json_dict() == ref.to_json_dict()
            assert ArcSet.from_json_dict(k.to_json_dict()) == k

    def test_empty_and_full_circle(self):
        empty, full = ArcSet.empty(), ArcSet.full_circle()
        assert empty.arcs.shape == (0, 2) and empty.measure == 0.0 and not empty
        assert same(full, RefArcSet([(0.0, TWO_PI)]))
        assert empty.complement() == full and full.complement() == empty
        assert empty.subset_of(full) and empty.subset_of(empty)
        assert not full.subset_of(empty)
        assert empty.dilate(1.0) == empty and full.dilate(1.0) == full
        assert full.intersect(empty) == empty
        assert ArcSet.from_json_dict(empty.to_json_dict()) == empty


# -- ArcSet ------------------------------------------------------------------


class TestArcSet:
    def test_canonical_merge(self):
        k = ArcSet([(1.0, 2.0), (1.5, 3.0), (4.0, 5.0)])
        assert k.arcs.tolist() == [[1.0, 3.0], [4.0, 5.0]]
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
        assert k.mask(np.array([0.0, TWO_PI - 0.25, 1.0])).tolist() == [True, True, False]

    def test_intersect_complement_union(self):
        k1 = ArcSet([(0.0, 2.0), (3.0, 5.0)])
        k2 = ArcSet([(1.0, 4.0)])
        inter = k1.intersect(k2)
        assert inter.arcs.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        comp = k1.complement()
        assert comp.measure == pytest.approx(TWO_PI - 4.0)
        assert ArcSet(np.concatenate([k1.arcs, comp.arcs])).measure == pytest.approx(TWO_PI)
        assert k1.intersect(comp).measure == pytest.approx(0.0)

    def test_subset_is_exact(self):
        # within 1e-12 of measure, but one end sticks out
        assert not ArcSet([(1.0, 2.0 + 1e-13)]).subset_of(ArcSet([(1.0, 2.0)]))
        assert ArcSet([(1.0, 2.0)]).subset_of(ArcSet([(1.0, 2.0)]))
        assert not ArcSet([(0.5, 1.0), (1.5, 2.0)]).subset_of(ArcSet([(0.5, 2.0 - 1e-13)]))
        wide = ArcSet.from_raw([(-0.3, 0.5)])
        assert ArcSet.from_raw([(-0.1, 0.2)]).subset_of(wide)
        assert not ArcSet.from_raw([(-0.4, 0.2)]).subset_of(wide)

    def test_dilate(self):
        k = ArcSet([(0.1, 0.3)])
        big = k.dilate(0.2)
        assert big.components()[0][1] - big.components()[0][0] == pytest.approx(0.6)
        assert len(big.arcs) == 2  # wrapped through 0
        assert big.measure == pytest.approx(k.measure + 0.4, abs=1e-12)
        grown = ArcSet([(1.0, 1.1)]).dilate(0.2)
        assert len(grown.arcs) == 1 and list(grown.arcs[0]) == pytest.approx([0.8, 1.3])
        assert ArcSet([(1.0, 1.1)]).dilate(0.0).measure == pytest.approx(0.1)

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

    @staticmethod
    def grid_mask_cases(rng, M):
        """Arc sets whose ends sit on grid points, a rounding step either
        side of them, anywhere, and at 0 and 2pi; and the empty set."""
        grid = np.append(uniform_grid(M), TWO_PI)
        on_grid = np.sort(rng.choice(M + 1, size=min(8, M + 1), replace=False))
        ends = [grid[on_grid],
                np.nextafter(grid[on_grid], rng.choice([-np.inf, np.inf], on_grid.size)),
                rng.uniform(0.0, TWO_PI, 8),
                np.concatenate([[0.0, TWO_PI], rng.uniform(0.0, TWO_PI, 4)])]
        out = [ArcSet.empty(), ArcSet.full_circle(), ArcSet([(0.0, grid[1])]),
               ArcSet([(grid[M - 1], TWO_PI)])]
        for e in ends:
            e = np.sort(np.clip(e, 0.0, TWO_PI))
            pairs = e[: e.size // 2 * 2].reshape(-1, 2)
            out.append(ArcSet(pairs[pairs[:, 0] < pairs[:, 1]]))
        return out

    @pytest.mark.parametrize("M", [2, 3, 5, 12_345] + [1 << b for b in range(2, 22)])
    def test_grid_mask_equals_mask_on_uniform_grid(self, M):
        rng = np.random.default_rng(M)
        t = uniform_grid(M)
        cases = self.grid_mask_cases(rng, M)
        if M < 1 << 20:
            cases += [ArcSet(random_pairs(rng)) for _ in range(4)]
        for k in cases:
            got = k.grid_mask(M)
            assert got.dtype == bool and got.shape == (M,)
            assert np.array_equal(got, k.mask(t)), (M, k.arcs)

    def test_mask_agrees_with_contains(self):
        arcs = [(0.0, 0.4), (1.0, 2.5), (3.0, 3.1), (5.0, TWO_PI)]
        k, ref = ArcSet(arcs), RefArcSet(arcs)
        t = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        ends = np.ravel(k.arcs)
        interior = t[np.abs(t[:, None] - ends[None, :]).min(axis=1) > 1e-9]
        assert k.mask(interior).tolist() == [ref.contains(x) for x in interior]

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
        # the 64-point grid scan gives 1 / cos(pi / 64)
        bound = certified_sup(TrigPoly.cosine(1), grid_factor=32)
        assert 1.0 <= bound <= 1.0517

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
        with pytest.raises(PreconditionError, match="real"):
            certified_sup(TrigPoly({2: 1.0, -3: 0.5j}), 16)

    def test_staggered_scan_matches_single(self, monkeypatch):
        import trigcert.gridcert as gc

        rng = np.random.default_rng(3)
        f = random_real_poly(rng, 5)
        half = gc._half_spectrum(f)
        ref_max, ref_min = grid_scan_real(half, 1024)
        monkeypatch.setattr(gc, "_MAX_SYNTH", 64)
        smax, smin = gc.grid_scan_real(half, 1024)
        assert smax == pytest.approx(ref_max, abs=1e-11)
        assert smin == pytest.approx(ref_min, abs=1e-11)


# -- certified min / sign ----------------------------------------------------


class TestCertifiedMin:
    """lo is a certified lower bound on min_K f and hi a value of f at a
    point of K, within _MIN_TOL sup|f| of each other."""

    @staticmethod
    def carriers(rng, f, inner, outer):
        """Carriers that stress the cells clipped to K: random arcs, arcs
        crossing 0, arcs ending on grid and bisection points, an arc inside
        one grid cell, the superlevel arcs of f and components of them."""
        M = _grid_for(max(f.degree, 1), gridcert._MIN_GRID_FACTOR)
        grid = np.arange(M + 1) * (TWO_PI / M)
        mids = 0.5 * (grid[:-1] + grid[1:])
        quarters = 0.5 * (grid[:-1] + mids)
        out = [ArcSet.full_circle()]
        for arcs in (inner, outer):
            if arcs:
                out.append(arcs)
        if inner:
            out.append(ArcSet(inner.arcs[:1]))
            out.append(ArcSet(inner.arcs[-1:]))
            out.append(inner.dilate(1e-9))
            shrunk = inner.arcs + np.array([1e-9, -1e-9])
            out.append(ArcSet(shrunk[shrunk[:, 0] < shrunk[:, 1]]))
        for _ in range(4):
            n = int(rng.integers(1, 4))
            ends = np.sort(rng.uniform(0, TWO_PI, 2 * n)).reshape(-1, 2)
            out.append(ArcSet(ends))
            out.append(ArcSet.from_raw([(-rng.uniform(0, 1), rng.uniform(0, 1))]))
            for points in (grid, mids, quarters):
                i, j = np.sort(rng.choice(len(points), 2, replace=False))
                out.append(ArcSet([(points[i], points[j])]))
            i = int(rng.integers(0, len(mids)))
            out.append(ArcSet([(grid[i], mids[i]), (quarters[(i + 2) % M], TWO_PI)]))
            out.append(ArcSet([(quarters[i], mids[i])]))
        return out

    @staticmethod
    def poly(rng, sparse):
        if sparse:
            return random_sparse_real_poly(rng, int(rng.integers(2, 6)), int(rng.integers(60, 200)))
        return random_real_poly(rng, int(rng.integers(1, 9)))

    def cases(self, seed, sparse):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            f = self.poly(rng, sparse)
            vals = f.eval_at(uniform_grid(4096)).real
            inner, outer = superlevel_arcs(f, float(np.quantile(vals, 0.3)), 8)
            for K in self.carriers(rng, f, inner, outer):
                yield f, K

    @pytest.mark.parametrize("sparse", [False, True])
    def test_bounds_the_sampled_minimum(self, sparse):
        for f, K in self.cases(2024, sparse):
            got = certified_min(f, K)
            ends = K.arcs.ravel()
            assert got.lo <= f.eval_at(arc_samples(K, 1e-4)).real.min(), K
            assert got.lo <= f.eval_at(ends).real.min(), K
            assert got.hi <= _real_at(f, ends).min()
            assert got.hi - got.lo <= gridcert._MIN_TOL * certified_sup(f, 8), K

    def test_matches_eval_at_bisection(self, monkeypatch):
        # the two evaluators differ by roundoff only (TestRealAt), so the
        # bounds agree to the tolerance and the evaluated minima to roundoff
        for f, K in self.cases(8, True):
            got = certified_min(f, K)
            with monkeypatch.context() as m:
                with_eval_at(m)
                want = certified_min(f, K)
            roundoff = 2 * (f.freqs.size + 2) * np.finfo(float).eps * f.coeff_l1()
            assert abs(got.hi - want.hi) <= roundoff
            assert abs(got.lo - want.lo) <= gridcert._MIN_TOL * certified_sup(f, 8)

    def test_uses_the_superlevel_rule(self, monkeypatch):
        # both bisections take their slack from _cell_slack, with lam =
        # deg * sup|g| and curv = sum n^2 |g_n| padded by 1e-12
        g = TrigPoly.cosine(40) - 0.3
        slacks = []
        monkeypatch.setattr(gridcert, "_cell_slack",
                            lambda w, lam, curv: slacks.append((lam, curv))
                            or np.minimum(lam * w / 2.0, curv * w * w / 8.0))
        inner, _ = superlevel_arcs(TrigPoly.cosine(40), 0.3, 8)
        assert certified_min(g, ArcSet(inner.arcs[:2])).lo > -1e-9
        assert {lc for lc in slacks} == {(40 * certified_sup(g, 8), 1600.0 * (1 + 1e-12))}

    def test_empty_carrier_raises(self):
        with pytest.raises(PreconditionError, match="nonempty"):
            certified_min(TrigPoly.cosine(1), ArcSet.empty())

    def test_rejects_complex(self):
        with pytest.raises(PreconditionError, match="real"):
            certified_min(TrigPoly({1: 1.0}), ArcSet.full_circle())


class TestMinAbsSign:
    def test_positive(self):
        f = TrigPoly.cosine(1) + 2.0
        lo, verdict = certified_min_abs_and_sign(f, ArcSet.full_circle())
        assert verdict == "positive"
        assert 0.9 <= lo <= 1.0

    def test_negative(self):
        f = TrigPoly.cosine(1).scale(-0.5) - 2.0
        lo, verdict = certified_min_abs_and_sign(f, ArcSet.full_circle())
        assert verdict == "negative"
        assert lo >= 1.4

    def test_mixed(self):
        f = TrigPoly.cosine(1)
        _, verdict = certified_min_abs_and_sign(f, ArcSet.full_circle())
        assert verdict == "mixed"

    def test_unknown_when_grazing(self):
        f = TrigPoly.cosine(1) - 1.0  # <= 0, touches 0 at t = 0
        k = ArcSet.from_raw([(-0.01, 0.01)])
        lo, verdict = certified_min_abs_and_sign(f, k)
        assert verdict == "unknown"
        assert lo == 0.0

    def test_lower_bound_sound(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = random_real_poly(rng, 4).scale(0.25) + 6.0
            k = ArcSet([(0.5, 1.5), (3.0, 4.5)])
            lo, verdict = certified_min_abs_and_sign(f, k)
            pts = arc_samples(k, 1e-3)
            assert lo <= np.abs(f.eval_at(pts).real).min() + 1e-9
            assert verdict == "positive"


# -- superlevel arcs ---------------------------------------------------------


class TestRealAt:
    """The bisection's cosine-series evaluator against eval_at(...).real.

    A priori bound for T stored coefficients: each side rounds, per term,
    a product and a sine or cosine (libm, within an ulp) and adds T terms,
    every error at most eps ||c||_1, so they differ by at most
    2 (T + 2) eps ||c||_1.  The phases nt are rounded alike on both sides.
    """

    @staticmethod
    def table(rng, kind):
        if kind == "constant":
            return TrigPoly.const(float(rng.standard_normal()))
        if kind == "dense":
            return random_real_poly(rng, 12)
        if kind == "nearly-real":
            # conj(c_n) and c_{-n} differ in the last digits, as is_real allows
            f = random_sparse_real_poly(rng, 9, 5_000)
            nudge = np.where(f.freqs < 0, 1 + 1e-14, 1.0)
            return TrigPoly.from_arrays(f.freqs, f.coeffs * nudge)
        return random_sparse_real_poly(rng, int(rng.integers(1, 20)), int(rng.integers(300, 20_000)),
                                       constant=kind != "sparse-no-constant",
                                       sines=kind != "cosines")

    @pytest.mark.parametrize("kind", ["sparse", "sparse-no-constant", "cosines",
                                      "nearly-real", "dense", "constant"])
    def test_matches_eval_at(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(5):
            g = self.table(rng, kind)
            assert g.is_real()
            assert g._dense() == (kind in ("dense", "constant"))
            t = np.concatenate([rng.uniform(0, TWO_PI, 20_000), [0.0, math.pi, TWO_PI]])
            got = _real_at(g, t)
            assert got.dtype == np.float64 and got.shape == t.shape
            bound = 2 * (g.freqs.size + 2) * np.finfo(float).eps * g.coeff_l1()
            assert np.max(np.abs(got - g.eval_at(t).real)) <= bound


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

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eval_at_bisection(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        f = random_sparse_real_poly(rng, int(rng.integers(2, 9)), int(rng.integers(60, 400)),
                                    sines=seed % 2 == 0)
        assert not f._dense()
        vals = f.eval_at(np.linspace(0, TWO_PI, 4096, endpoint=False)).real
        for c in (float(np.quantile(vals, 0.3)), float(np.quantile(vals, 0.8))):
            got = superlevel_arcs(f, c, grid_factor=8)
            with monkeypatch.context() as m:
                with_eval_at(m)
                want = superlevel_arcs(f, c, grid_factor=8)
            assert got[0] and got[1] != ArcSet.full_circle()
            assert got == want

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
                assert outer.dilate(1e-12).mask(t)
        if inner:
            pts = arc_samples(inner, 1e-3)
            assert f.eval_at(pts).real.min() >= c - 1e-9


class TestSecondOrderCells:
    """The chord slack curv w^2/8 decides cells the Lipschitz slack lam w/2
    leaves open; both must stay sound against dense evaluation."""

    @staticmethod
    def polys(rng):
        for _ in range(4):
            yield random_real_poly(rng, int(rng.integers(1, 9)))
            yield random_sparse_real_poly(rng, int(rng.integers(2, 7)),
                                          int(rng.integers(60, 2_000)))

    @staticmethod
    def levels(rng, f):
        vals = f.eval_at(uniform_grid(4096)).real
        return [float(rng.uniform(vals.min(), vals.max())), float(np.quantile(vals, 0.7))]

    @staticmethod
    def cell_points(lo, hi, k):
        # k equally spaced points across each cell, both ends included
        return lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, k)[None, :]

    @pytest.mark.parametrize("seed", range(4))
    def test_decided_cells_agree_with_dense_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        for f in self.polys(rng):
            for c in self.levels(rng, f):
                pad = 1e-9 * f.coeff_l1()
                # f's cells certified below c are -f's certified above -c
                for g, level in ((f, c), (-f, -c)):
                    for lo, hi, is_pos, _ in gridcert._level_cells(g, level, 8):
                        pick = np.flatnonzero(is_pos)[:400]
                        t = self.cell_points(lo[pick], hi[pick], 17).ravel()
                        assert np.all(g.eval_at(t).real - level >= -pad), (seed, c)

    @pytest.mark.parametrize("seed", range(4))
    def test_sandwich_against_dense_evaluation(self, seed):
        rng = np.random.default_rng(100 + seed)
        for f in self.polys(rng):
            for c in self.levels(rng, f):
                inner, outer = superlevel_arcs(f, c, 8)
                pad = 1e-9 * f.coeff_l1()
                if inner:
                    assert f.eval_at(arc_samples(inner, 1e-4)).real.min() >= c - pad
                t = uniform_grid(1 << 16)
                above = f.eval_at(t).real >= c + pad
                assert np.all(outer.dilate(1e-12).mask(t[above]))

    @pytest.mark.parametrize("seed", range(3))
    def test_tighter_than_lipschitz_alone(self, monkeypatch, seed):
        rng = np.random.default_rng(200 + seed)
        gaps = []
        for f in self.polys(rng):
            for c in self.levels(rng, f):
                inner, outer = superlevel_arcs(f, c, 8)
                with monkeypatch.context() as m:
                    m.setattr(gridcert, "_cell_slack", lambda w, lam, curv: lam * w / 2.0)
                    old_inner, old_outer = superlevel_arcs(f, c, 8)
                assert old_inner.subset_of(inner) and outer.subset_of(old_outer)
                gaps.append((outer.measure - inner.measure,
                             old_outer.measure - old_inner.measure))
        assert all(new <= old for new, old in gaps)
        assert any(new < old for new, old in gaps)


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
        whole = arc_fourier_integral(f, ArcSet(np.concatenate([k1.arcs, k2.arcs])), 2)
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

    INDICATOR_CASES = [
        (ArcSet.empty(), 40, 20),
        (ArcSet.full_circle(), 40, 20),
        (ArcSet([(0.0, 1.0), (5.0, TWO_PI)]).snap_inward(20), 40, 20),
        (ArcSet.from_raw([(-0.7, 0.4)]).snap_inward(20), 40, 20),
        (ArcSet([(0.3, 1.1), (2.0, 4.7), (5.5, 6.0)]).snap_inward(20), 0, 20),
        (ArcSet([(0.3, 1.1), (2.0, 4.7), (5.5, 6.0)]).snap_inward(8), 127, 8),
        (ArcSet.from_raw([(-1.5, 0.25), (3.0, 3.75)]).snap_inward(6), 31, 6),
        # 2, 126, 128, 130 and 258 endpoints: under, at and past one
        # endpoint block of the direct sums, and a ragged last block
        *((dyadic_arcs(arcs, 20), 150, 20) for arcs in (1, 63, 64, 65, 129)),
    ]

    @pytest.mark.parametrize("K, kmax, bits", INDICATOR_CASES)
    def test_indicator_paths_agree_with_oracle(self, monkeypatch, K, kmax, bits):
        paths = {}
        for name, cutoff in (("direct", 1 << 62), ("fft", -1)):
            monkeypatch.setattr(gridcert, "_DIRECT_TERMS", cutoff)
            paths[name] = indicator_coeffs(K, kmax, grid_bits=bits)
        assert np.max(np.abs(paths["direct"] - paths["fft"])) <= 1e-12
        one = TrigPoly.const(1.0)
        want = np.array([arc_fourier_integral(one, K, n) for n in range(-kmax, kmax + 1)])
        for got in paths.values():
            assert got.shape == (2 * kmax + 1,)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_indicator_direct_path_many_arcs(self, monkeypatch):
        rng = np.random.default_rng(31)
        K = ArcSet(np.sort(rng.uniform(0, TWO_PI, 60)).reshape(-1, 2)).snap_inward(24)
        kmax = 5_000
        assert 2 * len(K.arcs) * (kmax + 1) <= gridcert._DIRECT_TERMS
        direct = indicator_coeffs(K, kmax, 24)
        monkeypatch.setattr(gridcert, "_DIRECT_TERMS", -1)
        assert np.max(np.abs(direct - indicator_coeffs(K, kmax, 24))) <= 1e-12

    def test_indicator_direct_path_independent_of_blas_threads(self, tmp_path):
        # the direct endpoint sums go through BLAS only in products whose
        # sum over endpoints no thread count splits; a BLAS reduction over
        # all endpoints would sum in an order set by the thread count
        script = (
            "import sys, numpy as np\n"
            "from trigcert.gridcert import ArcSet, indicator_coeffs\n"
            "rng = np.random.default_rng(5)\n"
            "K = ArcSet(np.sort(rng.uniform(0, 6.28, 540)).reshape(-1, 2))\n"
            "K = K.snap_inward(24)\n"
            "sys.stdout.buffer.write(indicator_coeffs(K, 20_000, 24).tobytes())\n"
        )
        outs = [stdout_under_blas_threads(script, threads) for threads in (1, 2)]
        assert len(outs[0]) == 16 * 40_001
        assert outs[0] == outs[1]

    def test_indicator_direct_path_at_principal_n3_shape_independent_of_blas_threads(self):
        # principal N=3: 540 endpoints on the 2^24 grid against |k| <= 525 089,
        # four full endpoint blocks and a short last one
        kmax = 525_089
        assert 540 % gridcert._ENDPOINT_BLOCK
        assert 540 * (kmax + 1) <= gridcert._DIRECT_TERMS
        script = (
            "import sys, numpy as np\n"
            "from trigcert.gridcert import TWO_PI, ArcSet, indicator_coeffs\n"
            "rng = np.random.default_rng(270)\n"
            "G = 1 << 24\n"
            "ends = np.sort(rng.choice(G, 540, replace=False))\n"
            "K = ArcSet(ends.reshape(-1, 2) * (TWO_PI / G))\n"
            "assert K.arcs.size == 540\n"
            f"sys.stdout.buffer.write(indicator_coeffs(K, {kmax}, 24).tobytes())\n"
        )
        outs = [stdout_under_blas_threads(script, threads) for threads in (1, 2, 4)]
        assert len(outs[0]) == 16 * (2 * kmax + 1)
        assert outs[0] == outs[1] == outs[2]

    def test_restricted_fourier_memory_at_principal_n3_sizes(self):
        # principal N=3 reads 1 603 coefficients of lambda 1_E, E 270 arcs on
        # the 2^24 grid, up to |n| = 524 288: the endpoint sums and the
        # blocked convolution keep the peak far below the 2^24-point
        # transform's, whose input alone is 128 MiB
        rng = np.random.default_rng(270)
        G = 1 << 24
        K = ArcSet(np.sort(rng.choice(G, 540, replace=False)).reshape(-1, 2) * (TWO_PI / G))
        M, kmax = 801, 524_288
        assert len(K.arcs) == 270
        assert 2 * len(K.arcs) * (kmax + M + 1) <= gridcert._DIRECT_TERMS
        window = rng.standard_normal(2 * M + 1) + 1j * rng.standard_normal(2 * M + 1)
        tracemalloc.start()
        try:
            got = restricted_fourier(window, M, K, kmax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (2 * kmax + 1,)
        assert peak < 64 << 20

    def test_indicator_requires_dyadic(self):
        with pytest.raises(PreconditionError, match="dyadic"):
            indicator_coeffs(ArcSet([(0.1, 0.9)]), 8, grid_bits=20)

    def test_restricted_fourier_matches_direct(self):
        rng = np.random.default_rng(9)
        f = random_real_poly(rng, 4)
        k = ArcSet([(0.5, 2.0), (3.0, 3.5)]).snap_inward(20)
        got = restricted_fourier(f.as_coeffseq().window, 4, k, 12)
        for n in range(-12, 13):
            want = arc_fourier_integral(f, k, n)
            assert got[n + 12] == pytest.approx(want, abs=1e-12)
