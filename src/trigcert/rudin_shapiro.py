"""Flat unimodular cosine sums with certified sup bounds.

A choice of signs eps_1..eps_N (N = 2^k) gives Q(t) = sum eps_n cos(nt)
with L2 norm sqrt(N/2); the goal is a certified sup bound B = sqrt(2N).
Sign rules:

  adjacent-pairs          eps_n = (-1)^(number of adjacent 11 bit pairs in n)
  adjacent-pairs-shifted  same rule evaluated at n-1
  search                  exhaustive minimum over all sign vectors (small k)

The shifted rule makes Q(t) = Re(e^{it} P(t)) where P is the length-N
partial sum of the plain rule, and the pair recursion

    P_{k+1} = P_k + e^{i 2^k t} P'_k,   P'_{k+1} = P_k - e^{i 2^k t} P'_k

gives |P_k|^2 + |P'_k|^2 = 2^{k+1} identically (parallelogram law, by
induction), hence |Q| <= sqrt(2N) with no grid involved.  The plain rule
is tried first and certified from grids; for k >= 3 its minimum provably
undershoots -B (a grid point witnesses it) and the builder falls back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import SupCertificate, grid_scan_real, sup_certificate, transported_max
from .trigpoly import TWO_PI, Interval, TrigPoly, f17

SIGN_RULES = ("adjacent-pairs", "adjacent-pairs-shifted", "search")

# largest k for the builder; beyond this the coefficient arrays alone
# outgrow the workspace budget
MAX_K = 24

_POLY_BUDGET = 1 << 18


def sign_pattern(k: int, rule: str = "adjacent-pairs") -> np.ndarray:
    """Signs eps_n for n = 1..2^k as an int64 array of +-1."""
    if k < 0:
        raise PreconditionError("k must be >= 0", field="k")
    n = np.arange(1, (1 << k) + 1, dtype=np.uint64)
    if rule == "adjacent-pairs-shifted":
        n = n - np.uint64(1)
    elif rule != "adjacent-pairs":
        raise PreconditionError(f"unknown sign rule {rule!r}", field="rule")
    pairs = np.bitwise_count(n & (n >> np.uint64(1)))
    return (1 - 2 * (pairs & np.uint64(1))).astype(np.int64)


def signs_by_recursion(k: int) -> np.ndarray:
    """The plain-rule signs over n = 0..2^k-1 built by pair doubling,
    independent of the bit-counting formula (used to cross-check it)."""
    r = np.array([1], dtype=np.int8)
    s = np.array([1], dtype=np.int8)
    for _ in range(k):
        r, s = np.concatenate([r, s]), np.concatenate([r, -s])
    return r


def parallelogram_residual(k: int) -> int:
    """max |autocorr(r) + autocorr(s) - 2^(k+1) delta_0| over all lags,
    computed exactly in integers.  Zero iff |P|^2 + |P'|^2 = 2^(k+1)."""
    if k > 10:
        raise ResourceError("exact autocorrelation check limited to k <= 10")
    rr = np.array([1], dtype=np.int64)
    ss = np.array([1], dtype=np.int64)
    for _ in range(k):
        rr, ss = np.concatenate([rr, ss]), np.concatenate([rr, -ss])
    total = np.convolve(rr, rr[::-1]) + np.convolve(ss, ss[::-1])
    total[len(rr) - 1] -= 2 ** (k + 1)
    return int(np.abs(total).max())


class CosineSeries:
    """Q(t) = sum_{n=1}^{N} a_n cos(nt), dense amplitude array.

    A lighter-weight carrier than TrigPoly for the large flat sums
    (N = 2^23 would not fit a coefficient dict).
    """

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=float)
        if amps.ndim != 1 or amps.size < 1:
            raise PreconditionError("amps must be a nonempty 1-d array")
        self.amps = amps
        self.amps.setflags(write=False)

    @property
    def degree(self) -> int:
        return len(self.amps)

    def scale(self, c: float) -> "CosineSeries":
        return CosineSeries(self.amps * c)

    def coeff(self, n: int) -> complex:
        n = abs(n)
        if 1 <= n <= len(self.amps):
            return complex(self.amps[n - 1] / 2.0)
        return 0j

    def coeff_l1(self) -> float:
        return float(np.abs(self.amps).sum())

    def l2_norm_sq(self) -> float:
        # sum over +-n of |a_n/2|^2
        return float((self.amps**2).sum() / 2.0)

    def a_p_norm(self, p: float) -> Interval:
        if p < 1:
            raise PreconditionError("p must be >= 1", field="p")
        val = float((2.0 * (np.abs(self.amps) / 2.0) ** p).sum() ** (1.0 / p))
        return Interval(val, val)

    def half_spectrum(self) -> np.ndarray:
        half = np.zeros(len(self.amps) + 1, dtype=complex)
        half[1:] = self.amps / 2.0
        return half

    def eval_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = np.arange(1, len(self.amps) + 1)
        return np.cos(np.multiply.outer(t, n)) @ self.amps

    def grid_extrema(self, M: int):
        return grid_scan_real(self.half_spectrum(), self.degree, M)

    def to_trigpoly(self, budget: int = _POLY_BUDGET) -> TrigPoly:
        if 2 * len(self.amps) + 1 > budget:
            raise ResourceError(
                "cosine series too large for a coefficient table",
                budget=budget,
                required=2 * len(self.amps) + 1,
            )
        table = {}
        for i, a in enumerate(self.amps):
            if a != 0.0:
                table[i + 1] = a / 2.0
                table[-(i + 1)] = a / 2.0
        return TrigPoly(table)

    def to_json_dict(self, sign_rule: str | None = None, scale: float = 1.0) -> dict:
        """Inline amplitudes when small; otherwise a compact descriptor
        (rule + scale) from which the array is reproducible."""
        if sign_rule is not None and len(self.amps) > 4096:
            k = int(math.log2(len(self.amps)))
            return {
                "format": "signed-cosine-rule",
                "k": k,
                "scale": f17(scale * float(np.abs(self.amps[0]))),
                "sign_rule": sign_rule,
            }
        return {
            "format": "cosine-amps",
            "amps": [f17(a) for a in self.amps],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CosineSeries":
        if data["format"] == "signed-cosine-rule":
            signs = sign_pattern(int(data["k"]), data["sign_rule"])
            return cls(signs.astype(float) * float(data["scale"]))
        return cls(np.array([float(a) for a in data["amps"]]))


@dataclass(frozen=True)
class FlatnessCert:
    """Certified two-sided bound sup |Q| <= bound (<= target)."""

    bound: float
    target: float
    k: int
    sign_rule: str
    upper_method: str
    lower_method: str
    grid_size: int

    def scaled(self, c: float) -> "FlatnessCert":
        return FlatnessCert(
            self.bound * c,
            self.target * c,
            self.k,
            self.sign_rule,
            self.upper_method,
            self.lower_method,
            self.grid_size,
        )

    def to_json_dict(self) -> dict:
        return {
            "bound": f17(self.bound),
            "target": f17(self.target),
            "k": self.k,
            "sign_rule": self.sign_rule,
            "upper_method": self.upper_method,
            "lower_method": self.lower_method,
            "grid_size": self.grid_size,
        }


def _certify_plain(k: int, signs: np.ndarray, tol: float, max_grid_log2: int):
    """Grid certification of the plain rule: structural upper side plus
    transported lower side.  Raises CertificateError when a grid point
    witnesses sup |Q| > target (happens for every k >= 3)."""
    N = 1 << k
    B = math.sqrt(2.0 ** (k + 1))
    target = B * (1.0 + tol)
    rec = signs_by_recursion(k)
    if not (np.array_equal(signs[: N - 1], rec[1:]) and signs[N - 1] == 1):
        raise CertificateError("sign-recursion", 1.0, 0.0, "bit rule disagrees with recursion")
    # Q = Re(P_k) - 1 + cos(2^k t) with |P_k| <= B, and -1 + cos <= 0
    upper = B
    apriori = B + 2.0
    series = CosineSeries(signs.astype(float))
    q = series.to_trigpoly() if N <= 4096 else None
    lo_log = min(k + 5, max_grid_log2)
    for log_m in range(lo_log, max_grid_log2 + 1):
        M = 1 << log_m
        gmax, gmin = series.grid_extrema(M)
        if min(gmin, -gmax) < -target:
            worst = max(abs(gmin), abs(gmax))
            raise CertificateError(
                "sup-bound",
                worst,
                target,
                f"grid point witnesses sup > target for rule adjacent-pairs, k={k}",
            )
        upper_grid = transported_max(gmax, apriori, N, M)
        lower_grid = -transported_max(-gmin, apriori, N, M)
        bound = max(min(upper, upper_grid), -lower_grid)
        if q is not None:
            bound = min(bound, sup_certificate(q, grid_factor=max(4, M // (N + 1))).bound)
        if bound <= target:
            return series, FlatnessCert(
                bound,
                target,
                k,
                "adjacent-pairs",
                "parallelogram" if upper <= upper_grid else "grid-transport",
                "grid-transport",
                M,
            )
    raise CertificateError(
        "sup-bound", math.inf, target, f"grids exhausted for rule adjacent-pairs, k={k}"
    )


def _certify_search(k: int, tol: float):
    """Exhaustive minimum over sign vectors, k <= 4.  The winner's sup
    sits well below B, so an ordinary grid certificate closes."""
    N = 1 << k
    B = math.sqrt(2.0 ** (k + 1))
    target = B * (1.0 + tol)
    M = 1 << (k + 6)
    t = TWO_PI * np.arange(M) / M
    table = np.cos(np.outer(np.arange(1, N + 1, dtype=float), t))
    best_sup, best_bits = math.inf, 0
    chunk = 1 << 12
    for start in range(0, 1 << (N - 1), chunk):
        bits = np.arange(start, min(start + chunk, 1 << (N - 1)), dtype=np.uint64)
        # bit j drives sign j+1; the first sign is pinned to +1 (global
        # negation symmetry halves the search space)
        vecs = np.ones((len(bits), N))
        vecs[:, 1:] = 1.0 - 2.0 * (
            (bits[:, None] >> np.arange(N - 1, dtype=np.uint64)) & np.uint64(1)
        ).astype(float)
        sups = np.abs(vecs @ table).max(axis=1)
        i = int(np.argmin(sups))
        if sups[i] < best_sup:
            best_sup, best_bits = float(sups[i]), int(bits[i])
    signs = np.ones(N, dtype=np.int64)
    signs[1:] = 1 - 2 * ((best_bits >> np.arange(N - 1)) & 1)
    series = CosineSeries(signs.astype(float))
    cert = sup_certificate(series.to_trigpoly(), grid_factor=256)
    if cert.bound > target:
        raise CertificateError("sup-bound", cert.bound, target, f"search failed at k={k}")
    return series, FlatnessCert(
        cert.bound, target, k, "search", "grid-secant", "grid-secant", cert.grid_size
    )


def _certify_shifted(k: int, tol: float, spot_grid_log2: int = 22):
    """Shifted rule: |Q| <= B everywhere from the parallelogram law.
    The certificate is structural; a modest grid scan guards against
    construction bugs (any grid value past B would disprove the code,
    not the bound)."""
    N = 1 << k
    B = math.sqrt(2.0 ** (k + 1))
    target = B * (1.0 + tol)
    signs = sign_pattern(k, "adjacent-pairs-shifted")
    rec = signs_by_recursion(k)
    if not np.array_equal(signs, rec):
        raise CertificateError("sign-recursion", 1.0, 0.0, "bit rule disagrees with recursion")
    series = CosineSeries(signs.astype(float))
    M = 1 << min(spot_grid_log2, max(k + 4, 14))
    gmax, gmin = series.grid_extrema(M)
    if max(abs(gmax), abs(gmin)) > B * (1.0 + 1e-12):
        raise CertificateError(
            "sup-bound", max(abs(gmax), abs(gmin)), B, "spot check violates structural bound"
        )
    return series, FlatnessCert(
        B, target, k, "adjacent-pairs-shifted", "parallelogram", "parallelogram", 0
    )


_BUILD_CACHE: dict = {}


def build_Q(k: int, tol: float = 1e-9, max_grid_log2: int = 26):
    """Signed cosine sum of length 2^k with certified sup <= sqrt(2^(k+1)) * (1+tol).

    Tries the plain bit rule first; on a certified failure falls back to
    exhaustive search (k <= 4) or the shifted rule (structural bound).
    Returns (CosineSeries, FlatnessCert).
    """
    if k < 1:
        raise PreconditionError("k must be >= 1", field="k")
    if k > MAX_K:
        raise ResourceError(f"k = {k} exceeds the builder limit", budget=MAX_K, required=k)
    key = (k, tol, max_grid_log2)
    if key in _BUILD_CACHE:
        return _BUILD_CACHE[key]
    signs = sign_pattern(k, "adjacent-pairs")
    try:
        out = _certify_plain(k, signs, tol, max_grid_log2)
    except CertificateError:
        out = _certify_search(k, tol) if k <= 4 else _certify_shifted(k, tol)
    _BUILD_CACHE[key] = out
    return out


# -- scaled flat polynomials with small A_q norm -----------------------------


def phi_a_norm(k: int, q: float) -> float:
    """A_q norm of the unit-sup-normalized sum: 2^((k+1)(1/q - 1/2) - 1)."""
    return 2.0 ** ((k + 1) * (1.0 / q - 0.5) - 1.0)


def phi_k_for(q: float, gamma: float) -> tuple[int, bool]:
    """Smallest admissible k with phi_a_norm(k, q) < gamma, floored at 1.

    Returns (k, floored): floored means k = 0 would already satisfy the
    norm target but the construction starts at k = 1.
    """
    if not q > 2:
        raise PreconditionError("q must be > 2", field="q")
    if not 0 < gamma < 1:
        raise PreconditionError("gamma must be in (0, 1)", field="gamma")
    k = 1
    while phi_a_norm(k, q) >= gamma:
        k += 1
        if k > 200:
            raise ResourceError("no admissible k below 200")
    return k, phi_a_norm(0, q) < gamma


@dataclass(frozen=True)
class PhiBundle:
    """Real polynomial with mean zero, certified sup <= 1 + tol, and
    A_q norm strictly below gamma."""

    series: CosineSeries
    k: int
    q: float
    gamma: float
    a_norm: float
    l2_norm_sq: float
    sup_bound: float
    certificate: FlatnessCert
    sign_rule: str
    floored: bool

    def to_trigpoly(self, budget: int = _POLY_BUDGET) -> TrigPoly:
        return self.series.to_trigpoly(budget)

    def to_json_dict(self) -> dict:
        return {
            "poly": self.series.to_json_dict(sign_rule=self.sign_rule),
            "k": self.k,
            "q": f17(self.q),
            "gamma": f17(self.gamma),
            "a_norm": f17(self.a_norm),
            "l2_norm_sq": f17(self.l2_norm_sq),
            "sup_bound": f17(self.sup_bound),
            "sign_rule": self.sign_rule,
            "floored": self.floored,
            "certificate": self.certificate.to_json_dict(),
        }


def build_phi(q: float, gamma: float, tol: float = 1e-9) -> PhiBundle:
    """Mean-zero real polynomial phi with certified sup|phi| <= 1 + tol
    and ||phi||_{A_q} < gamma, at the smallest admissible scale.

    phi = 2^{-(k+1)/2} Q_k; the sup certificate scales exactly (the
    factor is a power of two) and the A_q norm has the closed form
    phi_a_norm(k, q) since all 2^{k+1} coefficients share one modulus.
    """
    k, floored = phi_k_for(q, gamma)
    series, cert = build_Q(k, tol=tol)
    s = 2.0 ** (-(k + 1) / 2.0)
    phi = series.scale(s)
    a_norm = float(phi.a_p_norm(q).hi)
    return PhiBundle(
        series=phi,
        k=k,
        q=q,
        gamma=gamma,
        a_norm=a_norm,
        l2_norm_sq=phi.l2_norm_sq(),
        sup_bound=cert.bound * s,
        certificate=cert.scaled(s),
        sign_rule=cert.sign_rule,
        floored=floored,
    )
