"""Tail bounds for averages of almost-multiplicative variables, checked
against exact tail probabilities on finite probability spaces.

The bound: if |X_j| <= 1, E(X_j) = mu > 0 for all j, and every subset
product satisfies |E[prod_A X_j] / mu^|A| - 1| <= eps, then

    P{ (1/N) sum X_j < mu - alpha } <= exp(-alpha^2 N / 8) + eps exp(N / 4).

This module supplies the finite spaces and their variables as numpy
arrays, the check measuring eps over every subset, the exact tail, and
the bound itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import PreconditionError, ResourceError

_SUBSET_CAP = 20


def _exact(values: np.ndarray) -> bool:
    """All ints and Fractions: by dtype, or by a scan of an object array."""
    if values.dtype == object:
        return all(isinstance(x, (int, Fraction)) for x in values.flat)
    return values.dtype.kind in "biu"


class DiscreteProbSpace:
    """Finite sample space with nonnegative weights summing to 1.

    Weights may be floats or exact; exact weights keep tail sums exact.
    """

    def __init__(self, weights):
        weights = np.array(weights)  # a copy of the caller's, read-only below
        weights_float = weights.astype(float, copy=False)
        # a NaN weight passes every comparison below, so reject it first
        if not np.isfinite(weights_float).all():
            raise PreconditionError("weights must be finite", field="weights")
        if (weights < 0).any():
            raise PreconditionError("weights must be nonnegative", field="weights")
        self.exact = _exact(weights)
        total = sum(weights.tolist()) if self.exact else math.fsum(weights_float)
        if abs(float(total) - 1.0) > 1e-12:
            raise PreconditionError(
                f"weights sum to {float(total)!r}, not 1", field="weights"
            )
        weights.flags.writeable = weights_float.flags.writeable = False
        self.weights, self.weights_float = weights, weights_float

    def __len__(self):
        return len(self.weights)

    def expectation(self, values):
        values = np.asarray(values)
        if self.exact and _exact(values):
            return sum(
                (Fraction(w) * Fraction(v)
                 for w, v in zip(self.weights.tolist(), values.tolist())),
                Fraction(0),
            )
        return float(np.dot(self.weights_float, values.astype(float)))

    @classmethod
    def coin_product(cls, p_heads, n: int):
        """Product of n independent coins; returns (space, variables)
        where variables[j] is +1 on heads and -1 on tails of coin j.
        Exact when p_heads is."""
        if not 1 <= n <= _SUBSET_CAP:
            raise PreconditionError(f"n must be in 1..{_SUBSET_CAP}", field="n")
        p = Fraction(p_heads) if not isinstance(p_heads, float) else p_heads
        q = 1 - p
        # coin j is bit n-1-j of outcome i: the outcomes in the order of
        # itertools.product(range(2), repeat=n)
        heads = (np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
        table = np.array([p**h * q ** (n - h) for h in range(n + 1)],
                         dtype=float if isinstance(p, float) else object)
        return cls(table[heads.sum(axis=0)]), 2 * heads - 1


def bernstein_bound(N: int, alpha: float, eps: float) -> float:
    """exp(-alpha^2 N / 8) + eps * exp(N / 4)."""
    if N < 1:
        raise PreconditionError("N must be >= 1", field="N")
    if not alpha >= 0:
        raise PreconditionError("alpha must be >= 0", field="alpha")
    if not 0 <= eps < 1:
        raise PreconditionError("eps must be in [0, 1)", field="eps")
    return math.exp(-(alpha**2) * N / 8.0) + eps * math.exp(N / 4.0)


def _validated_variables(space: DiscreteProbSpace, variables):
    try:
        X = np.asarray(variables, dtype=float)
    except (TypeError, ValueError):
        raise PreconditionError("variables must be real sequences of one length",
                                field="X")
    if X.ndim != 2 or X.shape[1] != len(space):
        raise PreconditionError("variables must align with the space")
    # NaN passes the bound and mean checks below, and max() drops it later
    if not np.isfinite(X).all():
        raise PreconditionError("variables must be finite", field="X")
    for j, row in enumerate(X):
        if np.abs(row).max() > 1 + 1e-12:
            raise PreconditionError(f"|X_{j + 1}| exceeds 1", field=f"X_{j + 1}")
    w = space.weights_float
    means = X @ w
    mu = float(means[0])
    if np.abs(means - mu).max() > 1e-10:
        raise PreconditionError("expectations must all be equal", field="X")
    if mu <= 0:
        raise PreconditionError("common expectation must be positive", field="X")
    return X, w, mu


@dataclass(frozen=True)
class MultiplicativeReport:
    mu: float
    max_deviation: float
    verdict: str
    subsets_checked: int


def check_almost_multiplicative(
    space: DiscreteProbSpace, variables, eps: float
) -> MultiplicativeReport:
    """Measure max over nonempty subsets A of |E[prod_A X]/mu^|A| - 1|.
    Only eps over every subset gives the bound, so more than _SUBSET_CAP
    variables raise ResourceError."""
    X, w, mu = _validated_variables(space, variables)
    N = len(X)
    if N > _SUBSET_CAP:
        raise ResourceError(
            f"{N} variables have 2^{N} - 1 subsets; the exhaustive check "
            f"stops at {_SUBSET_CAP} variables",
            budget=_SUBSET_CAP, required=N)
    worst = 0.0
    # depth-first over include/skip so each node costs one vector
    # product; vec carries the weights, so a leaf's expectation is a
    # plain sum, whose order (unlike a BLAS dot) does not depend on
    # the BLAS thread count
    stack = [(0, w, 0)]
    while stack:
        j, vec, size = stack.pop()
        if j == N:
            if size:
                ratio = float(vec.sum()) / mu**size
                worst = max(worst, abs(ratio - 1.0))
            continue
        stack.append((j + 1, vec, size))
        stack.append((j + 1, vec * X[j], size + 1))
    verdict = "pass" if worst <= eps else "fail"
    return MultiplicativeReport(mu, worst, verdict, (1 << N) - 1)


def _tails(space: DiscreteProbSpace, variables, X, mu: float, alphas) -> list:
    """P{ (1/N) sum_j X_j < mu - alpha } for each alpha, from one sort of
    the outcome means.  Exact weights and values give Fractions."""
    # only NaN differs from itself; it would count every outcome as below
    if any(a != a for a in alphas):
        raise PreconditionError("alpha must not be NaN", field="alpha")
    N = len(X)
    variables = np.asarray(variables)
    if space.exact and _exact(variables):
        # outcomes with one exact sum share a mean: weigh each distinct mean
        mass = {}
        for wt, total in zip(space.weights.tolist(),
                             variables.sum(axis=0).tolist()):
            mass[total] = mass.get(total, 0) + wt
        totals = sorted(mass)
        means = [Fraction(t) / N for t in totals]
        below = list(accumulate((mass[t] for t in totals), initial=Fraction(0)))
        return [below[bisect_left(means, Fraction(mu) - Fraction(a))] for a in alphas]
    means = X.mean(axis=0)
    order = np.argsort(means, kind="stable")
    means, w = means[order], space.weights_float[order]
    # fsum is correctly rounded, so the order of the summands is immaterial
    return [math.fsum(w[: np.searchsorted(means, mu - a, side="left")])
            for a in alphas]


def tail_probability(space: DiscreteProbSpace, variables, alpha: float):
    """P{ (1/N) sum_j X_j < mu - alpha }, summed exactly over the space."""
    X, _, mu = _validated_variables(space, variables)
    return _tails(space, variables, X, mu, [alpha])[0]


def bernstein_battery(space: DiscreteProbSpace, variables, alphas=None):
    """Rows of (alpha, exact tail, bound at the measured deviation) for a
    grid of alphas; the CSV surface behind the CLI."""
    X, _, mu = _validated_variables(space, variables)
    N = len(X)
    # X is already checked and float, so the check does not convert again
    report = check_almost_multiplicative(space, X, eps=math.inf)
    eps_hat = report.max_deviation
    alphas = [0.05 * k for k in range(1, 41)] if alphas is None else list(alphas)
    rows = []
    for a, tail in zip(alphas, _tails(space, variables, X, mu, alphas)):
        rows.append(
            {
                "alpha": float(a),
                "tail": float(tail),
                # the bound's premise needs eps < 1; report inf otherwise
                "bound": bernstein_bound(N, a, eps_hat) if eps_hat < 1 else math.inf,
            }
        )
    return {
        "N": N,
        "mu": mu,
        "deviation": report.max_deviation,
        "rows": rows,
    }
