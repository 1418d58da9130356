"""Tail bounds for averages of almost-multiplicative variables, checked
against exact tail probabilities on finite probability spaces.

The bound: if |X_j| <= 1, E(X_j) = mu > 0 for all j, and every subset
product satisfies |E[prod_A X_j] / mu^|A| - 1| <= eps, then

    P{ (1/N) sum X_j < mu - alpha } <= exp(-alpha^2 N / 8) + eps exp(N / 4).

This module supplies the finite spaces, the exhaustive subset check
measuring eps, the exact tail, and the bound itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from itertools import product as iter_product

import numpy as np

from .errors import PreconditionError, ResourceError

_SUBSET_CAP = 20
_SAMPLED_SUBSETS = 100_000


class DiscreteProbSpace:
    """Finite sample space with nonnegative weights summing to 1.

    Weights may be floats or Fractions; exact weights keep tail sums
    exact.  Points are opaque labels (indices, grid angles, tuples).
    """

    def __init__(self, points, weights):
        points = list(points)
        weights = list(weights)
        if len(points) != len(weights):
            raise PreconditionError("points and weights must align", field="weights")
        weights_float = np.array(weights, dtype=float)
        # a NaN weight passes every comparison below, so reject it first
        if not np.isfinite(weights_float).all():
            raise PreconditionError("weights must be finite", field="weights")
        if any(w < 0 for w in weights):
            raise PreconditionError("weights must be nonnegative", field="weights")
        total = sum(weights) if self._exact(weights) else math.fsum(weights)
        if abs(float(total) - 1.0) > 1e-12:
            raise PreconditionError(
                f"weights sum to {float(total)!r}, not 1", field="weights"
            )
        self.points = points
        self.weights = weights
        weights_float.flags.writeable = False
        self.weights_float = weights_float

    @staticmethod
    def _exact(seq) -> bool:
        return all(isinstance(x, (int, Fraction)) for x in seq)

    def __len__(self):
        return len(self.points)

    def expectation(self, values):
        if self._exact(self.weights) and self._exact(list(values)):
            return sum(
                (Fraction(w) * Fraction(v) for w, v in zip(self.weights, values)),
                Fraction(0),
            )
        return float(np.dot(self.weights_float, np.asarray(values, dtype=float)))

    @classmethod
    def coin_product(cls, p_heads, n: int, values=(1, -1)):
        """Product of n independent coins; returns (space, variables)
        where variable j reads coordinate j.  Exact when p_heads is."""
        if n < 1 or n > 24:
            raise PreconditionError("n must be in 1..24", field="n")
        p = Fraction(p_heads) if not isinstance(p_heads, float) else p_heads
        q = 1 - p
        outcomes = list(iter_product(range(2), repeat=n))
        weights = []
        for om in outcomes:
            heads = sum(om)
            weights.append(p**heads * q ** (n - heads))
        space = cls(outcomes, weights)
        vals = (values[0], values[1])
        variables = [
            [vals[0] if om[j] == 1 else vals[1] for om in outcomes] for j in range(n)
        ]
        return space, variables


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
        X = np.array(variables, dtype=float)
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
    exhaustive: bool
    subsets_checked: int


def check_almost_multiplicative(
    space: DiscreteProbSpace, variables, eps: float, seed: int = 0, sampled: bool = False
) -> MultiplicativeReport:
    """Measure max over nonempty subsets A of |E[prod_A X]/mu^|A| - 1|.

    Exhaustive for N <= 20; larger N raises unless sampled=True, which
    checks uniform random subsets and says so in the report.
    """
    X, w, mu = _validated_variables(space, variables)
    N = len(X)
    if N > _SUBSET_CAP and not sampled:
        raise ResourceError(
            f"exhaustive subset check capped at N = {_SUBSET_CAP}; "
            "pass sampled=True for a randomized non-exhaustive check",
            budget=_SUBSET_CAP,
            required=N,
        )
    worst = 0.0
    if N <= _SUBSET_CAP:
        checked = (1 << N) - 1
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
        exhaustive = True
    else:
        checked = _SAMPLED_SUBSETS
        rng = np.random.default_rng(seed)
        for _ in range(checked):
            mask = rng.integers(1, 1 << N, dtype=np.uint64)
            idx = [j for j in range(N) if (int(mask) >> j) & 1]
            vec = w
            for j in idx:
                vec = vec * X[j]
            ratio = float(vec.sum()) / mu ** len(idx)
            worst = max(worst, abs(ratio - 1.0))
        exhaustive = False
    verdict = "pass" if worst <= eps else "fail"
    if not exhaustive:
        verdict += " (sampled)"
    return MultiplicativeReport(mu, worst, verdict, exhaustive, checked)


def _tails(space: DiscreteProbSpace, variables, X, mu: float, alphas) -> list:
    """P{ (1/N) sum_j X_j < mu - alpha } for each alpha, from one sort of
    the outcome means.  Exact weights and values give Fractions."""
    # only NaN differs from itself; it would count every outcome as below
    if any(a != a for a in alphas):
        raise PreconditionError("alpha must not be NaN", field="alpha")
    N = len(X)
    if space._exact(space.weights) and all(space._exact(var) for var in variables):
        # outcomes with one exact sum share a mean: weigh each distinct mean
        mass = {}
        for wt, total in zip(space.weights, map(sum, zip(*variables))):
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


def bernstein_battery(space: DiscreteProbSpace, variables, alphas=None, seed: int = 0):
    """Rows of (alpha, exact tail, bound at the measured deviation) for a
    grid of alphas; the CSV surface behind the CLI."""
    X, _, mu = _validated_variables(space, variables)
    N = len(X)
    # X is already checked and float, so the check does not convert again
    report = check_almost_multiplicative(
        space, X, eps=math.inf, seed=seed, sampled=N > _SUBSET_CAP
    )
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
        "exhaustive": report.exhaustive,
        "rows": rows,
    }
