"""Certified pointwise bounds and arc geometry for trigonometric polynomials.

Sup bounds come with one-sided guarantees derived from grid values and
the Bernstein derivative inequality ||f'|| <= deg(f) * ||f|| (in both its
plain and arcsine/Szego forms).  Superlevel sets are returned as
inner/outer sandwiches of arc unions, built by one adaptive bisection that
decides a cell by the smaller of a Lipschitz and a second-order (chord)
bound and evaluates a sparse polynomial at its midpoints as a real cosine
series.  The certified minimum over an arc set, and the min-abs and sign
verdicts built on it, bound each cell by the same rule in a branch and
bound over cells clipped to the set.  Arc-restricted Fourier
coefficients come from closed-form antiderivatives summed over arc
endpoints on a dyadic grid, directly up to the measured crossover with the
FFT and by one sparse FFT beyond, and are convolved with the function's
window in cache-sized FFT blocks, so the only error is floating point
roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError, ResourceError
from .trigpoly import (
    TWO_PI,
    CoeffSeq,
    Interval,
    TrigPoly,
    _window_convolve,
    f17,
    next_pow2,
    synth_real,
)

# grid-derived sup bounds are padded by this relative amount to absorb
# FFT synthesis roundoff (worst case ~1e-15 relative at our sizes)
_FP_PAD = 1e-12

# largest single FFT synthesis; larger grids are scanned in staggered passes
_MAX_SYNTH = 1 << 22

# superlevel bisection: cells narrower than this stay undecided, and a cell
# still undecided after this many halvings means a tangential level set
_BISECT_TOL = 1e-10
_MAX_DEPTH = 64

# certified_min stops refining a cell once its lower bound is within this
# fraction of sup|f| of the least value evaluated, on the grid of this factor
_MIN_TOL = 1e-9
_MIN_GRID_FACTOR = 8

# indicator_coeffs sums its endpoint exponentials directly up to this many
# terms (endpoints times frequencies) and by one 2**grid_bits-point rfft
# beyond: the measured crossover at grid_bits 24, on a 2-core Intel Xeon
# (OpenBLAS 0.3.31 on one thread, SkylakeX kernels) with numpy 2.4.  Over
# nine shapes from 136 to 2 000 endpoints and 1.4e8 to 2.0e9 terms the
# blocked direct sums took 0.29 to 0.46 ns a term and the rfft 0.73 to
# 0.80 s whatever the endpoints, so the two met between 1.6e9 and 2.5e9
# terms (median 2.2e9).  At principal N=3 (540 endpoints, 525 090
# frequencies, 2.8e8 terms) the direct sums take 0.13 s; principal N=4
# (4.0e10 terms) stays on the rfft
_DIRECT_TERMS = 2_000_000_000

# endpoints per complex matrix product in _endpoint_sums; see there
_ENDPOINT_BLOCK = 128

# restricted_fourier's dyadic grid 2pi * m / 2**DYADIC_BITS, onto which
# the principal pipeline snaps its carrier's endpoints
DYADIC_BITS = 24


class ArcSet:
    """Finite union of disjoint closed arcs of the circle.

    ``arcs`` is a read-only (n, 2) float64 array of arcs sorted by left
    endpoint, pairwise disjoint and contained in [0, 2pi].  A component
    that crosses 0 is stored split in two ([0, b] first and [a, 2pi]
    last); ``components()`` rejoins it.
    """

    __slots__ = ("arcs",)

    def __init__(self, arcs):
        """Canonical form of (a, b) pairs with 0 <= a < b <= 2pi, in any
        order: sorted, overlapping and touching arcs merged."""
        raw = np.array(arcs, dtype=float).reshape(-1, 2)
        bad = ~((0.0 <= raw[:, 0]) & (raw[:, 0] < raw[:, 1])
                & (raw[:, 1] <= TWO_PI + 1e-15))
        if bad.any():
            a, b = raw[np.argmax(bad)].tolist()
            raise PreconditionError(f"bad arc [{a}, {b}]")
        order = np.argsort(raw[:, 0])
        a, b = raw[order, 0], np.minimum(raw[order, 1], TWO_PI)
        # an arc opens a new component when it starts past every end before
        # it; arcs with one start never do after the first, in any order
        starts = np.flatnonzero(a > np.maximum.accumulate(np.concatenate([[-1.0], b]))[:-1])
        arcs = np.stack([a[starts], np.maximum.reduceat(b, starts)], axis=1)
        arcs.flags.writeable = False
        self.arcs = arcs

    @classmethod
    def from_raw(cls, pairs) -> "ArcSet":
        """Build from arbitrary (a, b) pairs, reducing mod 2pi and
        splitting arcs that wrap through 0."""
        raw = np.array(pairs, dtype=float).reshape(-1, 2)
        length = raw[:, 1] - raw[:, 0]
        if not np.all(length > 0):
            a, b = raw[np.argmax(~(length > 0))].tolist()
            raise PreconditionError(f"empty arc [{a}, {b}]")
        if np.any(length >= TWO_PI):
            return cls.full_circle()
        a = raw[:, 0] % TWO_PI
        b = a + length
        wrap = b > TWO_PI
        lo = np.concatenate([a, np.zeros(np.count_nonzero(wrap))])
        hi = np.concatenate([np.minimum(b, TWO_PI), b[wrap] - TWO_PI])
        return cls(np.stack([lo, hi], axis=1))

    @classmethod
    def full_circle(cls) -> "ArcSet":
        return cls([(0.0, TWO_PI)])

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls([])

    def __bool__(self):
        return len(self.arcs) > 0

    def __eq__(self, other):
        return isinstance(other, ArcSet) and np.array_equal(self.arcs, other.arcs)

    def __repr__(self):
        return f"ArcSet({len(self.arcs)} arcs, measure {self.measure:.6g})"

    @property
    def measure(self) -> float:
        # summed left to right, as a loop over the arcs would
        lengths = self.arcs[:, 1] - self.arcs[:, 0]
        return float(np.cumsum(lengths)[-1]) if lengths.size else 0.0

    def components(self) -> np.ndarray:
        """Arcs with the 0-crossing pair rejoined, as an (m, 2) array; the
        rejoined component comes last and ends past 2pi."""
        arcs = self.arcs
        if len(arcs) >= 2 and arcs[0, 0] == 0.0 and arcs[-1, 1] == TWO_PI:
            return np.concatenate([arcs[1:-1], [[arcs[-1, 0], arcs[0, 1] + TWO_PI]]])
        return arcs

    def mask(self, t) -> np.ndarray:
        """Membership of each angle t in [0, 2pi), every arc taken half-open
        [a, b): a point on a left endpoint is inside, one on a right
        endpoint outside."""
        return np.searchsorted(self.arcs.ravel(), t, side="right") % 2 == 1

    def grid_mask(self, M: int) -> np.ndarray:
        """``self.mask(uniform_grid(M))``, bit for bit, read from the
        endpoints: each endpoint e is found in the grid as the first index
        k with 2pi k / M >= e, and the grid points from an arc's left
        index up to its right one are inside."""
        step = TWO_PI / M
        ends = self.arcs.ravel()
        k = np.clip(np.ceil(ends / step), 0, M).astype(np.int64)
        # the quotient is off by at most one index either way; settle it on
        # the grid's own values, k * step as uniform_grid rounds them
        k += (k < M) & (k * step < ends)
        k -= (k > 0) & ((k - 1) * step >= ends)
        runs = np.diff(np.concatenate([[0], k, [M]]))
        return np.repeat(np.arange(runs.size) % 2 == 1, runs)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        # no endpoint of either set lies inside a piece between consecutive
        # breakpoints, so a piece is in both sets when its left end is
        cuts = np.union1d(self.arcs.ravel(), other.arcs.ravel())
        keep = self.mask(cuts[:-1]) & other.mask(cuts[:-1])
        return ArcSet(np.stack([cuts[:-1][keep], cuts[1:][keep]], axis=1))

    def complement(self) -> "ArcSet":
        gaps = np.concatenate([[0.0], self.arcs.ravel(), [TWO_PI]]).reshape(-1, 2)
        return ArcSet(gaps[gaps[:, 0] < gaps[:, 1]])

    def subset_of(self, other: "ArcSet") -> bool:
        """Exact containment: each arc lies inside one arc of other."""
        if not other:
            return not self
        i = np.searchsorted(other.arcs[:, 0], self.arcs[:, 0], side="right") - 1
        return bool(np.all((i >= 0) & (self.arcs[:, 1] <= other.arcs[i, 1])))

    def dilate(self, eps: float) -> "ArcSet":
        """Minkowski enlargement by eps on both sides (wraps through 0)."""
        if eps < 0:
            raise PreconditionError("dilation must be nonnegative")
        if not self:
            return self
        return ArcSet.from_raw(self.arcs + np.array([-eps, eps]))

    def snap_inward(self, grid_bits: int) -> "ArcSet":
        """Round endpoints inward onto the dyadic grid 2pi * m / 2**grid_bits."""
        G = 1 << grid_bits
        scale = G / TWO_PI
        m = np.stack([np.ceil(self.arcs[:, 0] * scale - 1e-9),
                      np.floor(self.arcs[:, 1] * scale + 1e-9)], axis=1)
        return ArcSet(m[m[:, 1] > m[:, 0]] * TWO_PI / G)

    def to_json_dict(self) -> dict:
        return {"arcs": [{"a": f17(a), "b": f17(b)} for a, b in self.arcs.tolist()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArcSet":
        return cls([(float(e["a"]), float(e["b"])) for e in data["arcs"]])


# -- certified sup ---------------------------------------------------------


def uniform_grid(M: int) -> np.ndarray:
    """The M angles 2pi k / M, k = 0..M-1, as one array of float64."""
    return np.arange(M) * (TWO_PI / M)


def _grid_for(degree: int, grid_factor: int) -> int:
    return next_pow2(grid_factor * (degree + 1))


def _half_spectrum(f: TrigPoly) -> np.ndarray:
    half = np.zeros(f.degree + 1, dtype=complex)
    pos = f.freqs >= 0
    half[f.freqs[pos]] = f.coeffs[pos]
    return half


def grid_scan_real(half: np.ndarray, M: int):
    """(max, min) over the uniform M-grid of the real polynomial whose
    coefficient at frequency n >= 0 is half[n].

    Large grids are scanned as staggered passes over a base grid whose
    union is exactly the uniform M-grid, keeping memory bounded.
    """
    base = max(min(M, _MAX_SYNTH), next_pow2(2 * len(half)))
    passes = max(1, M // base)
    gmax, gmin = -math.inf, math.inf
    for j in range(passes):
        vals = synth_real(half, base, offset=TWO_PI * j / M)
        gmax = max(gmax, float(vals.max()))
        gmin = min(gmin, float(vals.min()))
    return gmax, gmin


def certified_sup(f: TrigPoly, grid_factor: int = 4) -> float:
    """Certified upper bound on sup |f| for a real f, from one grid scan.

    Two valid bounds are combined: the l^1 norm of the coefficients and
    the arcsine Bernstein transport G / cos(pi d / M) (valid once M > 2d).
    The minimum of valid upper bounds is an upper bound.  The linear
    transport G / (1 - pi d / M) is never smaller, since cos x > 1 - x.
    """
    if grid_factor < 4:
        raise PreconditionError("grid_factor must be >= 4", field="grid_factor")
    if not f.is_real():
        raise PreconditionError("certified_sup needs a real polynomial", field="f")
    if not f.freqs.size:
        return 0.0
    d = f.degree
    crude = f.coeff_l1()
    if d == 0:
        return crude
    M = _grid_for(d, grid_factor)
    x = math.pi * d / M
    if x >= 1.0:
        raise PreconditionError(
            f"grid too coarse: pi*deg/M = {x:.3f} >= 1", field="grid_factor"
        )
    gmax, gmin = grid_scan_real(_half_spectrum(f), M)
    G = max(abs(gmax), abs(gmin)) * (1.0 + _FP_PAD)
    return min(crude, G / math.cos(x))


# -- certified minimum and sign over an ArcSet ------------------------------


def certified_min(f: TrigPoly, K: ArcSet) -> Interval:
    """[lo, hi]: lo a certified lower bound on min_K f, hi the least value
    of f evaluated at a point of K.

    Branch and bound over cells clipped to K, from the uniform-grid points
    inside K and K's endpoints.  A cell is bounded below by the smaller of
    its end values less _cell_slack and the roundoff pad, the superlevel
    bisection's rule, and is halved until that bound is within _MIN_TOL
    sup|f| of hi or the cell is narrower than _BISECT_TOL.
    """
    if not K:
        raise PreconditionError("K must be nonempty", field="K")
    sup, lam, curv, pad, M, vals = _cell_setup(f, _MIN_GRID_FACTOR)
    ends = K.arcs.ravel()
    inside = K.grid_mask(M)
    # ends first, so a grid point on a left end follows it; a cell starting
    # at a right end spans a gap between arcs
    t = np.concatenate([ends, uniform_grid(M)[inside]])
    ft = np.concatenate([_real_at(f, ends), vals[inside]])
    gap = np.concatenate([np.arange(ends.size) % 2 == 1, np.zeros(t.size - ends.size, bool)])
    order = np.argsort(t, kind="stable")
    t, ft, cell = t[order], ft[order], ~gap[order][:-1]
    lo, hi, flo, fhi = t[:-1][cell], t[1:][cell], ft[:-1][cell], ft[1:][cell]
    best = float(ft.min())
    floor = math.inf
    while lo.size:
        width = hi - lo
        bound = np.minimum(flo, fhi) - _cell_slack(width, lam, curv) - pad
        done = (bound >= best - _MIN_TOL * sup) | (width <= _BISECT_TOL)
        floor = min(floor, float(bound[done].min(initial=math.inf)))
        lo, hi, flo, fhi = lo[~done], hi[~done], flo[~done], fhi[~done]
        mid = 0.5 * (lo + hi)
        fmid = _real_at(f, mid)
        best = min(best, float(fmid.min(initial=math.inf)))
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        flo, fhi = np.concatenate([flo, fmid]), np.concatenate([fmid, fhi])
    return Interval(floor, best)


def certified_min_abs_and_sign(f: TrigPoly, K: ArcSet):
    """(lower bound on inf_K |f|, sign verdict in {positive, negative,
    mixed, unknown}) from the certified minima of f and -f over K: mixed
    when values of both signs were evaluated, unknown when neither
    minimum is certified positive and no such pair was seen."""
    pos = certified_min(f, K)
    if pos.lo > 0.0:
        return pos.lo, "positive"
    neg = certified_min(-f, K)
    if neg.lo > 0.0:
        return neg.lo, "negative"
    return 0.0, "mixed" if max(pos.hi, neg.hi) < 0.0 else "unknown"


def outside_report(f: CoeffSeq, K: ArcSet):
    """Max of the windowed f over a uniform grid of up to 2^23 points
    restricted to the complement of K, plus the rigorous off-window slack."""
    if not K.complement():
        return 0.0, f.tail_l1()
    M = min(max(next_pow2(2 * (f.M + 1)), 1 << 12), 1 << 23)
    vals = synth_real(f.window[f.M :], M)
    outside = np.abs(vals[~K.grid_mask(M)])
    mx = float(outside.max()) if outside.size else 0.0
    return mx, f.tail_l1()


# -- superlevel arcs ---------------------------------------------------------


def superlevel_arcs(
    f: TrigPoly,
    c: float,
    grid_factor: int = 4,
):
    """Inner and outer arc approximations of {t : f(t) >= c}.

    inner is certified a subset of the superlevel set; outer certified a
    superset.  Cells whose endpoint values clear the smaller of the
    Lipschitz and the chord (second-order) slack are classified outright;
    the rest are bisected until narrower than _BISECT_TOL.  A cell pinned
    at the level beyond _MAX_DEPTH bisections means the level set is
    tangential there and is reported as an error.
    """
    # cells go to ArcSet, whose constructor merges them; the empty block
    # keeps the concatenation defined when no cell is certified
    pos_cells, unknown_cells = [np.empty((0, 2))], []
    for lo, hi, is_pos, narrow in _level_cells(f, c, grid_factor):
        pos_cells.append(np.stack([lo[is_pos], hi[is_pos]], axis=1))
        unknown_cells.append(np.stack([lo[narrow], hi[narrow]], axis=1))
    return ArcSet(np.concatenate(pos_cells)), ArcSet(np.concatenate(pos_cells + unknown_cells))


def _cell_setup(g: TrigPoly, grid_factor: int):
    """What both bisections read off a real g before their first cell:
    (sup bound, Lipschitz constant deg * sup via Bernstein, curv = sum
    n^2 |g_n| bounding |g''|, roundoff pad, grid size M, g on the M-grid)."""
    if not g.is_real():
        raise PreconditionError("f must be real")
    supbound = certified_sup(g, grid_factor)
    d = max(g.degree, 1)
    curv = float(np.sum(g.freqs**2 * np.abs(g._values()))) * (1.0 + 1e-12)
    M = _grid_for(d, grid_factor)
    return supbound, d * supbound, curv, _FP_PAD * supbound, M, _real_grid(g, M)


def _level_cells(f: TrigPoly, c: float, grid_factor: int):
    """The adaptive bisection behind superlevel_arcs, one depth at a time.

    Yields (lo, hi, is_pos, narrow) for the cells of each depth: certified
    f > c (the end values clear _cell_slack and the roundoff pad), and
    undecided but narrower than _BISECT_TOL.  Cells certified f < c are
    dropped; the rest are halved for the next depth, f - c evaluated at
    their midpoints by _real_at.
    """
    g = f - c
    supbound, lam, curv, pad, M, grid_vals = _cell_setup(g, grid_factor)
    if supbound == 0.0:
        raise PreconditionError("level set not transverse (f is identically c)")
    grid = np.append(uniform_grid(M), TWO_PI)
    vals = np.append(grid_vals, grid_vals[0])

    lo, hi = grid[:-1], grid[1:]
    flo, fhi = vals[:-1], vals[1:]
    depth = 0
    while True:
        if depth > _MAX_DEPTH:
            raise PreconditionError(
                "level set not transverse: bisection stalled at depth "
                f"{_MAX_DEPTH} near t={lo[0]:.12f}"
            )
        width = hi - lo
        slack = _cell_slack(width, lam, curv) + pad
        is_pos = np.minimum(flo, fhi) > slack
        rest = ~is_pos & (np.maximum(flo, fhi) >= -slack)
        narrow = rest & (width <= _BISECT_TOL)
        yield lo, hi, is_pos, narrow
        todo = rest & ~narrow
        if not np.any(todo):
            return
        lo, hi, flo, fhi = lo[todo], hi[todo], flo[todo], fhi[todo]
        mid = 0.5 * (lo + hi)
        fmid = _real_at(g, mid)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        flo = np.concatenate([flo, fmid])
        fhi = np.concatenate([fmid, fhi])
        depth += 1


def _cell_slack(width, lam, curv):
    """How far g may fall below the smaller of its end values on a cell of
    this width: lam w/2 for |g'| <= lam, or curv w^2/8 for |g''| <= curv,
    since g stays within w^2/8 sup|g''| of the chord through its end
    values.  curv is sum n^2 |g_n|, which bounds |g''|."""
    return np.minimum(lam * width / 2.0, curv * width * width / 8.0)


def _real_grid(g: TrigPoly, M: int) -> np.ndarray:
    return synth_real(_half_spectrum(g), M)


def _real_at(g: TrigPoly, t: np.ndarray) -> np.ndarray:
    """Re g(t) at the angles t, in float64.

    A sparse table folds each frequency -n onto n, a_n = c_n +
    conj(c_{-n}) (2 c_n exactly for a real table), and sums the cosine
    series Re c_0 + sum_{n>0} (Re a_n cos nt - Im a_n sin nt), a sine or
    cosine only where its part is nonzero: half the terms of eval_at, in
    real arithmetic.  The phases nt are the ones eval_at rounds.  A dense
    table keeps eval_at's Horner scheme.
    """
    if g._dense():
        return g.eval_at(t).real
    values = g._values()
    ns, slot = np.unique(np.abs(g.freqs), return_inverse=True)
    folded = np.zeros(ns.size, dtype=complex)
    np.add.at(folded, slot, np.where(g.freqs < 0, np.conj(values), values))
    acc = np.full(t.shape, folded[0].real if ns[0] == 0 else 0.0)
    phase, term = np.empty(t.shape), np.empty(t.shape)
    for n, a in zip(ns.tolist(), folded.tolist()):
        if n == 0:
            continue
        np.multiply(n, t, out=phase)
        if a.real:
            np.cos(phase, out=term)
            term *= a.real
            acc += term
        if a.imag:
            np.sin(phase, out=term)
            term *= a.imag
            acc -= term
    return acc


# -- arc-restricted Fourier integrals ---------------------------------------


def indicator_coeffs(K: ArcSet, kmax: int, grid_bits: int) -> np.ndarray:
    """Fourier coefficients of the indicator of K for |k| <= kmax.

    Requires every arc endpoint to lie on the dyadic grid
    2pi * m / 2**grid_bits (use ArcSet.snap_inward first).  The endpoint
    exponential sums sum_j e^{-ik a_j} - e^{-ik b_j} then have exact
    phases (k m mod 2**grid_bits); no quadrature or interpolation error
    enters.  They are summed directly when the endpoints times the
    frequencies number at most _DIRECT_TERMS, the measured point where both
    take the same time, and read off one sparse FFT of size 2**grid_bits
    beyond.  The direct sums are complex matrix products over blocks of at
    most _ENDPOINT_BLOCK endpoints, added in a fixed order: BLAS threads
    then split only the rows and columns of each product, never its sum
    over endpoints, so the bits do not depend on the thread count.  At
    principal N=3 (270 arcs, |k| <= 525 089) the direct sums hold about
    20 MiB where the FFT's input and output take 256 MiB.

    Returns an array indexed k = -kmax..kmax (offset kmax).
    """
    G = 1 << grid_bits
    if 2 * kmax >= G:
        raise ResourceError(
            f"kmax {kmax} needs a finer dyadic grid than 2**{grid_bits}",
            budget=G // 2,
            required=2 * kmax + 1,
        )
    m = K.arcs * (G / TWO_PI)
    idx = np.rint(m)
    if np.any(np.abs(m - idx) > 1e-6):
        raise PreconditionError(
            "arc endpoints must sit on the dyadic grid; snap_inward first"
        )
    idx = idx.astype(np.int64)
    measure = int(np.sum(idx[:, 1] - idx[:, 0])) / G
    if idx.size * (kmax + 1) <= _DIRECT_TERMS:
        F = _endpoint_sums(idx, kmax, G)
    else:
        scatter = np.zeros(G)
        np.add.at(scatter, idx[:, 0] % G, 1.0)
        np.add.at(scatter, idx[:, 1] % G, -1.0)
        F = np.fft.rfft(scatter)  # F[k] = sum of e^{-ik a} - e^{-ik b}
    k = np.arange(1, kmax + 1)
    pos = F[1 : kmax + 1] / (TWO_PI * 1j * k)
    out = np.empty(2 * kmax + 1, dtype=complex)
    out[kmax] = measure  # = |K| / 2pi exactly (dyadic rational)
    out[kmax + 1 :] = pos
    out[:kmax] = np.conj(pos[::-1])
    return out


def _endpoint_sums(idx: np.ndarray, kmax: int, G: int) -> np.ndarray:
    """F[k] = sum_j e^{-2pi i k a_j / G} - e^{-2pi i k b_j / G} for
    k = 0..kmax, the endpoints given as grid indices (a_j, b_j).

    Blocked as k = B p + r with B about sqrt(kmax), each term is a product
    of two small twiddle tables, one indexed by p and one by r, and each
    table's phases k m are reduced mod G in int64, exactly.  The sum over
    endpoints is then a (rows, B) complex matrix product, taken over blocks
    of _ENDPOINT_BLOCK endpoints and added in block order.  OpenBLAS
    threads split a product's rows and columns, and up to 128 endpoints
    never its inner dimension, so each entry is one dot product summed in
    the same order whatever the thread count.  Measured with OpenBLAS
    0.3.31 from 2 to 1 080 endpoints, the bits were identical under 1, 2
    and 4 threads, while a single product over all the endpoints gave
    different bits under 1 and 2 threads at 130 and at 540 endpoints.
    """
    ends = idx.ravel() % G
    signs = np.tile([1.0, -1.0], len(idx))
    B = math.isqrt(kmax) + 1
    rows = -(-(kmax + 1) // B)
    outer_steps = B * np.arange(rows, dtype=np.int64)
    inner_steps = np.arange(B, dtype=np.int64)

    def twiddle(steps, m):
        return np.exp(-1j * (TWO_PI / G) * (np.multiply.outer(steps, m) % G))

    total = np.zeros((rows, B), dtype=complex)
    part = np.empty_like(total)
    for start in range(0, ends.size, _ENDPOINT_BLOCK):
        block = slice(start, start + _ENDPOINT_BLOCK)
        inner = twiddle(inner_steps, ends[block]) * signs[block]
        np.matmul(twiddle(outer_steps, ends[block]), inner.T, out=part)
        total += part
    return total.ravel()[: kmax + 1]


def restricted_fourier(window: np.ndarray, M: int, K: ArcSet, kmax: int) -> np.ndarray:
    """Coefficients of f * 1_K for |n| <= kmax, where f is given by a
    dense coefficient window on [-M, M] and K's endpoints sit on the
    dyadic grid of DYADIC_BITS.

    (f 1_K)^(n) = sum_m f^(m) 1_K^(n - m): a finite convolution of the
    window against exact indicator coefficients, evaluated by FFT once the
    operands pass the direct-convolution cutoff of _window_convolve.
    """
    window = np.asarray(window, dtype=complex)
    if window.shape != (2 * M + 1,):
        raise PreconditionError("window length must be 2M+1")
    ind = indicator_coeffs(K, kmax + M, DYADIC_BITS)
    full = _window_convolve(window, ind)
    # full covers offsets -(M + kmax + M) .. ; index of n is n + (2M + kmax)
    mid = (len(full) - 1) // 2
    return full[mid - kmax : mid + kmax + 1]
