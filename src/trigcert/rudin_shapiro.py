"""Flat cosine sums from the Rudin-Shapiro signs, with a structural sup bound.

The Rudin-Shapiro sign r(n) = (-1)^(number of adjacent 11 bit pairs in n)
(Rudin, *Some theorems on Fourier coefficients*, 1959) over n = 0..N-1,
N = 2^k, gives

    Q(t) = sum_{n=1}^{N} r(n-1) cos(nt) = Re(e^{it} P_k(t)),
    P_k(t) = sum_{n<N} r(n) e^{int},

with L2 norm sqrt(N/2).  The pair recursion

    P_{k+1} = P_k + e^{i 2^k t} P'_k,   P'_{k+1} = P_k - e^{i 2^k t} P'_k

gives |P_k|^2 + |P'_k|^2 = 2^{k+1} identically (parallelogram law, by
induction), hence sup |Q| <= B = sqrt(2N) for every k with no grid
involved.  The rule is recorded as "adjacent-pairs-shifted": the bit
rule evaluated at n-1 for the coefficient of cos(nt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import grid_scan_real
from .trigpoly import TrigPoly, f17

SIGN_RULE = "adjacent-pairs-shifted"

# largest k for the builder; beyond this the coefficient arrays alone
# outgrow the workspace budget
MAX_K = 24

# largest coefficient table PhiBundle.to_trigpoly builds
_POLY_BUDGET = 1 << 18


def sign_pattern(k: int) -> np.ndarray:
    """Signs r(n) for n = 0..2^k-1 as an int64 array of +-1."""
    if k < 0:
        raise PreconditionError("k must be >= 0", field="k")
    n = np.arange(1 << k, dtype=np.uint64)
    pairs = np.bitwise_count(n & (n >> np.uint64(1)))
    return (1 - 2 * (pairs & np.uint64(1))).astype(np.int64)


def signs_by_recursion(k: int) -> np.ndarray:
    """The signs r(0..2^k-1) built by pair doubling, independent of the
    bit-counting formula (used to cross-check it)."""
    r = np.array([1], dtype=np.int8)
    s = np.array([1], dtype=np.int8)
    for _ in range(k):
        r, s = np.concatenate([r, s]), np.concatenate([r, -s])
    return r


@dataclass(frozen=True)
class FlatnessCert:
    """Certified bound sup |Q| <= bound (<= target), by the parallelogram law."""

    bound: float
    target: float
    k: int
    sign_rule: str

    def scaled(self, c: float) -> "FlatnessCert":
        return FlatnessCert(self.bound * c, self.target * c, self.k, self.sign_rule)

    def to_json_dict(self) -> dict:
        return {
            "bound": f17(self.bound),
            "target": f17(self.target),
            "k": self.k,
            "sign_rule": self.sign_rule,
        }


_BUILD_CACHE: dict = {}

# relative headroom of the recorded target over the structural bound
_TARGET_TOL = 1e-9


def build_Q(k: int):
    """Signed cosine sum of length 2^k with certified sup <= B = sqrt(2^(k+1)).

    The bound is the parallelogram law (see the module docstring), so it
    holds for every k; target B * (1 + _TARGET_TOL) is recorded alongside.  Two
    guards catch construction bugs: the bit formula must agree with the
    pair-doubling recursion, and no point of a spot grid may exceed B.
    Returns (signs, FlatnessCert): Q(t) = sum_n signs[n-1] cos(nt), the
    sign array read-only.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1", field="k")
    if k > MAX_K:
        raise ResourceError(f"k = {k} exceeds the builder limit", budget=MAX_K, required=k)
    if k in _BUILD_CACHE:
        return _BUILD_CACHE[k]
    B = math.sqrt(2.0 ** (k + 1))
    signs = sign_pattern(k)
    if not np.array_equal(signs, signs_by_recursion(k)):
        raise CertificateError("sign-recursion", 1.0, 0.0, "bit rule disagrees with recursion")
    signs.flags.writeable = False
    half = np.zeros(len(signs) + 1, dtype=complex)
    half[1:] = signs / 2.0
    # a grid value past B would disprove the code, not the bound
    gmax, gmin = grid_scan_real(half, 1 << min(22, max(k + 4, 14)))
    if max(abs(gmax), abs(gmin)) > B * (1.0 + 1e-12):
        raise CertificateError(
            "sup-bound", max(abs(gmax), abs(gmin)), B, "spot check violates structural bound"
        )
    out = signs, FlatnessCert(B, B * (1.0 + _TARGET_TOL), k, SIGN_RULE)
    _BUILD_CACHE[k] = out
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
    """Real polynomial phi(t) = sum_n amps[n-1] cos(nt) with mean zero,
    certified sup <= 1 + 1e-9, and A_q norm strictly below gamma.  amps is
    read-only."""

    amps: np.ndarray
    k: int
    q: float
    gamma: float
    a_norm: float
    l2_norm_sq: float
    sup_bound: float
    certificate: FlatnessCert
    sign_rule: str
    floored: bool

    def to_trigpoly(self) -> TrigPoly:
        N = len(self.amps)
        if 2 * N + 1 > _POLY_BUDGET:
            raise ResourceError(
                "cosine sum too large for a coefficient table",
                budget=_POLY_BUDGET,
                required=2 * N + 1,
            )
        n = np.arange(1, N + 1)
        return TrigPoly.from_arrays(np.concatenate([-n, n]),
                                    np.concatenate([self.amps, self.amps]) / 2.0)

    def _poly_json(self) -> dict:
        """Inline amplitudes when small; otherwise a compact descriptor
        (rule + scale) from which the array is reproducible."""
        if len(self.amps) > 4096:
            return {
                "format": "signed-cosine-rule",
                "k": self.k,
                "scale": f17(np.abs(self.amps[0])),
                "sign_rule": self.sign_rule,
            }
        return {"format": "cosine-amps", "amps": [f17(a) for a in self.amps]}

    def to_json_dict(self) -> dict:
        return {
            "poly": self._poly_json(),
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


def build_phi(q: float, gamma: float) -> PhiBundle:
    """Mean-zero real polynomial phi with certified sup|phi| <= 1 + 1e-9
    and ||phi||_{A_q} < gamma, at the smallest admissible k.

    phi = 2^{-(k+1)/2} Q_k with Q_k from build_Q, so the structural bound
    sqrt(2^(k+1)) scales to 1 up to one rounding (1.0000000000000002 at
    even k).  The A_q norm has the closed form phi_a_norm(k, q) since all
    2^{k+1} coefficients share one modulus.
    """
    k, floored = phi_k_for(q, gamma)
    signs, cert = build_Q(k)
    s = 2.0 ** (-(k + 1) / 2.0)
    amps = signs.astype(float) * s
    amps.flags.writeable = False
    # each amplitude a_n splits into two coefficients a_n / 2 at +-n
    a_norm = float((2.0 * (np.abs(amps) / 2.0) ** q).sum() ** (1.0 / q))
    return PhiBundle(
        amps=amps,
        k=k,
        q=q,
        gamma=gamma,
        a_norm=a_norm,
        l2_norm_sq=float((amps**2).sum() / 2.0),
        sup_bound=cert.bound * s,
        certificate=cert.scaled(s),
        sign_rule=cert.sign_rule,
        floored=floored,
    )
