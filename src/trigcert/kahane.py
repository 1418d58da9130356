"""Signed atomic measures with vanishing low moments, in exact rationals.

For an interval (a, b) with 0 < a < b < 1/2 and a target delta, place n
knots at the midpoints of an equispaced subdivision and give knot j the
Lagrange weight for evaluation at 0:

    m_j = prod_{i != j} s_i / (s_j - s_i)  (= ell_j(0), up to sign grouping)

Then sum m_j p(s_j) = p(0) for every polynomial of degree < n, so the
measure has unit mass and moments 1..n-1 exactly zero, while the high
moments decay like (2b)^k.  n is chosen as the least integer with
(2b)^n <= delta.  All knots, masses and moments are Fractions; nothing
in this module rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


def _exact(x, name: str) -> Fraction:
    if isinstance(x, float):
        raise PreconditionError(
            f"{name} must be exact (int, Fraction, or 'p/q' string), not float",
            field=name,
        )
    try:
        return Fraction(x)
    except (ValueError, TypeError) as e:
        raise PreconditionError(f"{name}: {e}", field=name) from e


@dataclass(frozen=True)
class AtomicMeasure:
    """sum_j masses[j] * (unit mass at knots[j]), all exact."""

    knots: tuple
    masses: tuple
    a: Fraction
    b: Fraction
    delta: Fraction
    n: int

    def moment(self, k: int) -> Fraction:
        """sum_j m_j s_j^k, exact."""
        if k < 0:
            raise PreconditionError("moment order must be >= 0", field="k")
        return sum((m * s**k for s, m in zip(self.knots, self.masses)), Fraction(0))

    def total_variation(self) -> Fraction:
        return sum((abs(m) for m in self.masses), Fraction(0))

    def tv_bound(self) -> float:
        """(2 e b / (b - a))^(n-1)."""
        return float((2.0 * math.e * self.b / (self.b - self.a)) ** (self.n - 1))

    def to_json_dict(self) -> dict:
        return {
            "knots": [str(s) for s in self.knots],
            "masses": [str(m) for m in self.masses],
            "a": str(self.a),
            "b": str(self.b),
            "delta": str(self.delta),
            "n": self.n,
        }


def interval_constant(a, b) -> float:
    """c = ln(2 e b / (b-a)) / ln(1/(2b)): the exponent tying the TV
    growth to the moment decay, ~7.5948 for (1/4, 1/3)."""
    a, b = _exact(a, "a"), _exact(b, "b")
    return math.log(2.0 * math.e * float(b) / float(b - a)) / math.log(
        1.0 / (2.0 * float(b))
    )


def knot_count(b, delta) -> int:
    """Least n >= 1 with (2b)^n <= delta, by exact comparison."""
    b, delta = _exact(b, "b"), _exact(delta, "delta")
    acc = Fraction(1)
    n = 0
    while acc > delta:
        acc *= 2 * b
        n += 1
        if n > 10_000:
            raise PreconditionError("delta too small for this interval", field="delta")
    return max(1, n)


def build_rho(a, b, delta) -> AtomicMeasure:
    """Atomic measure on (a, b) with unit mass, moments 1..n-1 zero, and
    |moment k| <= (2b)^k for k >= n, where (2b)^n <= delta.

    Exactness is the point: the vanishing moments are Fraction zeros,
    not small floats.
    """
    a, b, delta = _exact(a, "a"), _exact(b, "b"), _exact(delta, "delta")
    if not 0 < a < b:
        raise PreconditionError("need 0 < a < b", field="a")
    if not b < Fraction(1, 2):
        raise PreconditionError("need b < 1/2 so the moment base 2b is < 1", field="b")
    if not 0 < delta < 1:
        raise PreconditionError("delta must be in (0, 1)", field="delta")
    n = knot_count(b, delta)
    h = (b - a) / n
    knots = [a + (2 * j - 1) * h / 2 for j in range(1, n + 1)]
    masses = []
    for j in range(n):
        m = Fraction(1)
        for i in range(n):
            if i != j:
                m *= knots[i] / (knots[j] - knots[i])
        masses.append(m)
    if n % 2 == 0:
        masses = [-m for m in masses]
    # ell_j(0) = prod (0 - s_i)/(s_j - s_i): the (-1)^(n-1) from the
    # numerators is applied once, above
    rho = AtomicMeasure(tuple(knots), tuple(masses), a, b, delta, n)
    assert rho.moment(0) == 1
    return rho
