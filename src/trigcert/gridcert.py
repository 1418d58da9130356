"""Certified pointwise bounds and arc geometry for trigonometric polynomials.

Sup, min-abs and sign verdicts come with one-sided guarantees derived
from grid values and the Bernstein derivative inequality
||f'|| <= deg(f) * ||f|| (in both its plain and arcsine/Szego forms).
Superlevel sets are returned as inner/outer sandwiches of arc unions.
Arc-restricted Fourier integrals use closed-form antiderivatives, so the
only error is floating point roundoff; a batched variant handles
millions of frequencies at once when the arc endpoints sit on a dyadic
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceError
from .trigpoly import TWO_PI, TrigPoly, _window_convolve, f17, next_pow2, synth_real

# grid-derived sup bounds are padded by this relative amount to absorb
# FFT synthesis roundoff (worst case ~1e-15 relative at our sizes)
_FP_PAD = 1e-12

# largest single FFT synthesis; larger grids are scanned in staggered passes
_MAX_SYNTH = 1 << 22


class ArcSet:
    """Finite union of disjoint closed arcs of the circle.

    Stored canonically: arcs sorted by left endpoint, pairwise disjoint,
    contained in [0, 2pi].  A component that crosses 0 is stored split in
    two ([0, b] first and [a, 2pi] last); ``components()`` rejoins it.
    """

    __slots__ = ("arcs",)

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
    def from_raw(cls, pairs) -> "ArcSet":
        """Build from arbitrary (a, b) pairs, reducing mod 2pi and
        splitting arcs that wrap through 0."""
        out = []
        for a0, b0 in pairs:
            length = float(b0) - float(a0)
            if length <= 0:
                raise PreconditionError(f"empty arc [{a0}, {b0}]")
            if length >= TWO_PI:
                return cls.full_circle()
            a = float(a0) % TWO_PI
            b = a + length
            if b <= TWO_PI:
                out.append((a, b))
            else:
                out.append((a, TWO_PI))
                out.append((0.0, b - TWO_PI))
        return cls(out)

    @classmethod
    def full_circle(cls) -> "ArcSet":
        return cls([(0.0, TWO_PI)])

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls([])

    def __bool__(self):
        return bool(self.arcs)

    def __eq__(self, other):
        return isinstance(other, ArcSet) and self.arcs == other.arcs

    def __repr__(self):
        return f"ArcSet({len(self.arcs)} arcs, measure {self.measure:.6g})"

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.arcs)

    def components(self):
        """Arcs with the 0-crossing pair rejoined (last one may end > 2pi)."""
        if len(self.arcs) >= 2:
            (a0, b0), (al, bl) = self.arcs[0], self.arcs[-1]
            if a0 == 0.0 and bl == TWO_PI and self.measure < TWO_PI:
                return self.arcs[1:-1] + [(al, b0 + TWO_PI)]
        return list(self.arcs)

    def contains(self, t: float, slack: float = 0.0) -> bool:
        t = t % TWO_PI
        return any(a - slack <= t <= b + slack for a, b in self.arcs)

    def mask(self, t) -> np.ndarray:
        """Membership of each angle t in [0, 2pi), every arc taken half-open
        [a, b): a point on a left endpoint is inside, one on a right
        endpoint outside."""
        return np.searchsorted(np.ravel(self.arcs), t, side="right") % 2 == 1

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet(list(self.arcs) + list(other.arcs))

    def intersect(self, other: "ArcSet") -> "ArcSet":
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
        return ArcSet(out)

    def complement(self) -> "ArcSet":
        if not self.arcs:
            return ArcSet.full_circle()
        out = []
        prev = 0.0
        for a, b in self.arcs:
            if a > prev:
                out.append((prev, a))
            prev = b
        if prev < TWO_PI:
            out.append((prev, TWO_PI))
        return ArcSet(out)

    def subset_of(self, other: "ArcSet", slack: float = 1e-12) -> bool:
        return self.intersect(other).measure >= self.measure - slack

    def dilate(self, eps: float) -> "ArcSet":
        """Minkowski enlargement by eps on both sides (wraps through 0)."""
        if eps < 0:
            raise PreconditionError("dilation must be nonnegative")
        if not self.arcs:
            return self
        return ArcSet.from_raw([(a - eps, b + eps) for a, b in self.arcs])

    def erode(self, eps: float) -> "ArcSet":
        """Shrink every arc by eps on both sides, dropping emptied arcs."""
        kept = [(a + eps, b - eps) for a, b in self.components() if b - a > 2 * eps]
        return ArcSet.from_raw(kept) if kept else ArcSet.empty()

    def snap_inward(self, grid_bits: int) -> "ArcSet":
        """Round endpoints inward onto the dyadic grid 2pi * m / 2**grid_bits."""
        G = 1 << grid_bits
        scale = G / TWO_PI
        out = []
        for a, b in self.arcs:
            ma = math.ceil(a * scale - 1e-9)
            mb = math.floor(b * scale + 1e-9)
            if mb > ma:
                out.append((ma * TWO_PI / G, mb * TWO_PI / G))
        return ArcSet(out)

    def sample(self, max_spacing: float, min_per_arc: int = 2) -> np.ndarray:
        """Sample points covering the set: arc endpoints included, spacing
        between consecutive samples at most max_spacing."""
        pts = []
        for a, b in self.arcs:
            n = max(min_per_arc, int(math.ceil((b - a) / max_spacing)) + 1)
            pts.append(np.linspace(a, b, n))
        return np.concatenate(pts) if pts else np.array([])

    def to_json_dict(self) -> dict:
        return {"arcs": [{"a": f17(a), "b": f17(b)} for a, b in self.arcs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArcSet":
        return cls([(float(e["a"]), float(e["b"])) for e in data["arcs"]])


# -- certified sup ---------------------------------------------------------


@dataclass(frozen=True)
class SupCertificate:
    bound: float
    grid_size: int
    grid_max: float
    grid_min: float
    method: str


def _grid_for(degree: int, grid_factor: int) -> int:
    return next_pow2(grid_factor * (degree + 1))


def _half_spectrum(f: TrigPoly) -> np.ndarray:
    half = np.zeros(f.degree + 1, dtype=complex)
    for n, c in f.coeffs.items():
        if n >= 0:
            half[n] = complex(c)
    return half


def grid_scan_real(f_or_half, degree: int, M: int):
    """(max, min) of a real polynomial over the uniform M-grid.

    Large grids are scanned as staggered passes over a base grid whose
    union is exactly the uniform M-grid, keeping memory bounded.
    """
    half = _half_spectrum(f_or_half) if isinstance(f_or_half, TrigPoly) else np.asarray(f_or_half)
    base = max(min(M, _MAX_SYNTH), next_pow2(2 * (degree + 1)))
    passes = max(1, M // base)
    gmax, gmin = -math.inf, math.inf
    for j in range(passes):
        vals = synth_real(half, base, offset=TWO_PI * j / M)
        gmax = max(gmax, float(vals.max()))
        gmin = min(gmin, float(vals.min()))
    return gmax, gmin


def _grid_extrema(f: TrigPoly, M: int):
    if f.is_real():
        return grid_scan_real(f, f.degree, M)
    if M > _MAX_SYNTH:
        raise ResourceError(
            f"complex grid scan of size {M} exceeds the synthesis budget",
            budget=_MAX_SYNTH,
            required=M,
        )
    vals = np.abs(f.eval_grid(M))
    return float(vals.max()), -float(vals.max())


def sup_certificate(f: TrigPoly, grid_factor: int = 4) -> SupCertificate:
    """Certified upper bound on sup |f| from one grid scan.

    Three valid bounds are combined: the l^1 norm of the coefficients,
    the linear Bernstein transport G / (1 - pi d / M), and the sharper
    arcsine transport G / cos(pi d / M) (valid once M > 2d).  The
    minimum of valid upper bounds is an upper bound.
    """
    if grid_factor < 4:
        raise PreconditionError("grid_factor must be >= 4", field="grid_factor")
    if not f.coeffs:
        return SupCertificate(0.0, 0, 0.0, 0.0, "zero")
    d = f.degree
    crude = f.coeff_l1()
    if d == 0:
        return SupCertificate(crude, 1, crude, crude, "constant")
    M = _grid_for(d, grid_factor)
    x = math.pi * d / M
    if x >= 1.0:
        raise PreconditionError(
            f"grid too coarse: pi*deg/M = {x:.3f} >= 1", field="grid_factor"
        )
    gmax, gmin = _grid_extrema(f, M)
    G = max(abs(gmax), abs(gmin)) * (1.0 + _FP_PAD)
    linear = G / (1.0 - x)
    secant = G / math.cos(x) if x < math.pi / 2 else math.inf
    bound = min(crude, linear, secant)
    method = "l1" if bound == crude else ("secant" if bound == secant else "linear")
    return SupCertificate(bound, M, gmax, gmin, method)


def certified_sup(f: TrigPoly, grid_factor: int = 4) -> float:
    """Upper bound on ||f||_inf; see sup_certificate."""
    return sup_certificate(f, grid_factor).bound


def transported_max(grid_value: float, apriori: float, degree: int, M: int) -> float:
    """Upper bound on sup f (signed, one-sided) from the grid max of f,
    given an a-priori bound ||f||_inf <= apriori.

    Szego form of the Bernstein inequality: arcsin(f/apriori) is
    Lipschitz with constant deg, hence the true max is within
    pi*deg/M of the grid max in the arcsine metric.
    """
    if apriori <= 0:
        return 0.0
    ratio = min(1.0, max(-1.0, grid_value / apriori))
    phi = math.asin(ratio) + math.pi * degree / M
    if phi >= math.pi / 2:
        return apriori
    return apriori * math.sin(phi) * (1.0 + _FP_PAD)


# -- certified minimum and sign over an ArcSet ------------------------------


def certified_min_abs_and_sign(f: TrigPoly, K: ArcSet, grid_factor: int = 4):
    """(lower bound on inf_K |f|, sign verdict in {positive, negative,
    mixed, unknown}).

    Every point of K is within half a sample spacing of a sample, so
    Lipschitz transport (|f'| <= deg * sup|f|) gives inf_K |f| >=
    min |f(samples)| - deg * supbound * spacing / 2.
    """
    if not K:
        raise PreconditionError("K must be nonempty", field="K")
    if not f.is_real():
        raise PreconditionError("f must be real")
    if not f.coeffs:
        return 0.0, "unknown"
    d = f.degree
    supbound = certified_sup(f, grid_factor)
    if d == 0:
        v = float(complex(f.coeff(0)).real)
        return abs(v), ("positive" if v > 0 else "negative" if v < 0 else "unknown")
    spacing = TWO_PI / _grid_for(d, grid_factor)
    if K.measure / spacing > (1 << 14):
        # dense sampling: one synthesis over the uniform grid masked to K,
        # plus the arc endpoints, covers K to the same spacing/2 radius
        M = min(_grid_for(d, grid_factor), _MAX_SYNTH)
        spacing = TWO_PI / M
        t = np.arange(M) * spacing
        vals = np.concatenate([_real_grid(f, M)[K.mask(t)],
                               f.eval_at(np.ravel(K.arcs)).real])
    else:
        pts = K.sample(spacing)
        vals = f.eval_at(pts).real
    slack = d * supbound * (spacing / 2.0) * (1.0 + _FP_PAD) + _FP_PAD * supbound
    lower = max(0.0, float(np.min(np.abs(vals))) - slack)
    if np.min(vals) > slack:
        verdict = "positive"
    elif np.max(vals) < -slack:
        verdict = "negative"
    elif np.min(vals) < 0.0 < np.max(vals):
        verdict = "mixed"
    else:
        verdict = "unknown"
    return lower, verdict


# -- superlevel arcs ---------------------------------------------------------


def superlevel_arcs(
    f: TrigPoly,
    c: float,
    grid_factor: int = 4,
    tol: float = 1e-10,
    max_depth: int = 64,
):
    """Inner and outer arc approximations of {t : f(t) >= c}.

    inner is certified a subset of the superlevel set; outer certified a
    superset.  Cells whose endpoint values clear the Lipschitz slack are
    classified outright; the rest are bisected until narrower than tol.
    A cell pinned at the level beyond max_depth means the level set is
    tangential there and is reported as an error.
    """
    if not f.is_real():
        raise PreconditionError("f must be real")
    g = f - c
    if not g.coeffs or certified_sup(g, grid_factor) == 0.0:
        raise PreconditionError("level set not transverse (f is identically c)")
    d = max(g.degree, 1)
    supbound = certified_sup(g, grid_factor)
    lam = d * supbound  # Lipschitz constant via Bernstein
    M = _grid_for(d, grid_factor)
    grid = np.arange(M + 1) * (TWO_PI / M)
    vals = np.empty(M + 1)
    vals[:M] = _real_grid(g, M)
    vals[M] = vals[0]

    pos_cells, unknown_cells = [], []
    lo, hi = grid[:-1], grid[1:]
    flo, fhi = vals[:-1], vals[1:]
    depth = 0
    while lo.size:
        if depth > max_depth:
            raise PreconditionError(
                "level set not transverse: bisection stalled at depth "
                f"{max_depth} near t={lo[0]:.12f}"
            )
        width = hi - lo
        slack = lam * width / 2.0 + _FP_PAD * supbound
        m = np.minimum(flo, fhi)
        is_pos = m > slack
        is_neg = np.maximum(flo, fhi) < -slack
        if np.any(is_pos):
            pos_cells.append(np.stack([lo[is_pos], hi[is_pos]], axis=1))
        rest = ~(is_pos | is_neg)
        narrow = rest & (width <= tol)
        if np.any(narrow):
            unknown_cells.append(np.stack([lo[narrow], hi[narrow]], axis=1))
        todo = rest & ~narrow
        if not np.any(todo):
            break
        lo, hi, flo, fhi = lo[todo], hi[todo], flo[todo], fhi[todo]
        mid = 0.5 * (lo + hi)
        fmid = g.eval_at(mid).real
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        flo = np.concatenate([flo, fmid])
        fhi = np.concatenate([fmid, fhi])
        depth += 1

    pos = _merge_cells(pos_cells)
    unk = _merge_cells(unknown_cells)
    inner = ArcSet(pos) if pos else ArcSet.empty()
    outer = ArcSet(pos + unk) if (pos or unk) else ArcSet.empty()
    return inner, outer


def _real_grid(g: TrigPoly, M: int) -> np.ndarray:
    return synth_real(_half_spectrum(g), M)


def _merge_cells(chunks):
    if not chunks:
        return []
    cells = np.concatenate(chunks)
    cells = cells[np.argsort(cells[:, 0])]
    out = []
    for a, b in cells:
        if out and a <= out[-1][1] + 1e-15:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [tuple(x) for x in out]


# -- arc-restricted Fourier integrals ---------------------------------------


def arc_fourier_integral(f: TrigPoly, K: ArcSet, n: int) -> complex:
    """(1/2pi) * integral over K of f(t) e^{-int} dt, by closed-form
    antiderivatives of each exponential term.  Exact up to roundoff."""
    total = 0.0 + 0.0j
    for m, cm in f.coeffs.items():
        k = m - n
        cm = complex(cm)
        if k == 0:
            total += cm * K.measure / TWO_PI
        else:
            s = 0.0 + 0.0j
            for a, b in K.arcs:
                s += np.exp(1j * k * b) - np.exp(1j * k * a)
            total += cm * s / (TWO_PI * 1j * k)
    return complex(total)


def indicator_coeffs(K: ArcSet, kmax: int, grid_bits: int = 24) -> np.ndarray:
    """Fourier coefficients of the indicator of K for |k| <= kmax.

    Requires every arc endpoint to lie on the dyadic grid
    2pi * m / 2**grid_bits (use ArcSet.snap_inward first).  The endpoint
    exponential sums are then exactly one sparse FFT of size 2**grid_bits;
    no quadrature or interpolation error enters.

    Returns an array indexed k = -kmax..kmax (offset kmax).
    """
    G = 1 << grid_bits
    if 2 * kmax >= G:
        raise ResourceError(
            f"kmax {kmax} needs a finer dyadic grid than 2**{grid_bits}",
            budget=G // 2,
            required=2 * kmax + 1,
        )
    scale = G / TWO_PI
    scatter = np.zeros(G)
    measure = 0.0
    for a, b in K.arcs:
        ma, mb = a * scale, b * scale
        ia, ib = round(ma), round(mb)
        if abs(ma - ia) > 1e-6 or abs(mb - ib) > 1e-6:
            raise PreconditionError(
                "arc endpoints must sit on the dyadic grid; snap_inward first"
            )
        scatter[ia % G] += 1.0
        scatter[ib % G] -= 1.0
        measure += (ib - ia) / G
    F = np.fft.rfft(scatter)  # F[k] = sum of e^{-ik a} - e^{-ik b}
    k = np.arange(1, kmax + 1)
    pos = F[1 : kmax + 1] / (TWO_PI * 1j * k)
    out = np.empty(2 * kmax + 1, dtype=complex)
    out[kmax] = measure  # = |K| / 2pi exactly (dyadic rational)
    out[kmax + 1 :] = pos
    out[:kmax] = np.conj(pos[::-1])
    return out


def restricted_fourier(
    window: np.ndarray, M: int, K: ArcSet, kmax: int, grid_bits: int = 24
) -> np.ndarray:
    """Coefficients of f * 1_K for |n| <= kmax, where f is given by a
    dense coefficient window on [-M, M].

    (f 1_K)^(n) = sum_m f^(m) 1_K^(n - m): a finite convolution of the
    window against exact indicator coefficients, evaluated by FFT once the
    operands pass the direct-convolution cutoff of _window_convolve.
    """
    window = np.asarray(window, dtype=complex)
    if window.shape != (2 * M + 1,):
        raise PreconditionError("window length must be 2M+1")
    ind = indicator_coeffs(K, kmax + M, grid_bits)
    full = _window_convolve(window, ind)
    # full covers offsets -(M + kmax + M) .. ; index of n is n + (2M + kmax)
    mid = (len(full) - 1) // 2
    return full[mid - kmax : mid + kmax + 1]
