"""Independent computations that the benchmark checks the program's
artifacts against.  Only numpy, math and fractions are used here, never
trigcert, so a fault in the program cannot hide in its own oracle."""

import json
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


# -- reading artifacts ------------------------------------------------------


def load(path):
    return json.loads(path.read_text())


def scalar(text):
    """A serialized scalar: a 17-digit float string or a rational "p/q"."""
    text = str(text)
    return float(Fraction(text)) if "/" in text else float(text)


def coeff_table(doc):
    """(frequencies, complex coefficients) of a polynomial or sequence artifact."""
    n = np.array([int(e["n"]) for e in doc["coeffs"]])
    c = np.array([complex(scalar(e["re"]), scalar(e["im"])) for e in doc["coeffs"]])
    return n, c


def tail(doc):
    """(M, const, exp): |c(n)| <= const |n|^-exp for |n| > M."""
    t = doc["tail"]
    return int(t["M"]), scalar(t["const"]), scalar(t["exp"])


def arcs(doc):
    return [(scalar(e["a"]), scalar(e["b"])) for e in doc["arcs"]]


# -- trigonometric sums -------------------------------------------------------


def eval_direct(n, c, t, chunk=2048):
    """sum_n c_n exp(i n t) term by term, in chunks of t."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    for i in range(0, t.size, chunk):
        out[i:i + chunk] = np.exp(1j * np.outer(t[i:i + chunk], n)) @ c
    return out


def eval_grid(n, c, L):
    """The same sum on t_k = 2 pi k / L: exact there by folding n mod L."""
    spec = np.zeros(L, dtype=complex)
    np.add.at(spec, n % L, c)
    return L * np.fft.ifft(spec)


def tail_lp(M, const, exp, p):
    """Bound for sum over |n| > M of (const |n|^-exp)^p."""
    if const == 0.0:
        return 0.0
    b = p * exp
    return 2.0 * const**p * max(M, 1) ** (1.0 - b) / (b - 1.0)


def defect_enclosure(doc, q):
    """Enclosure of ||1 - f||_{A_q} from a windowed artifact with its tail."""
    n, c = coeff_table(doc)
    c = np.where(n == 0, 1.0 - c, -c)
    lo_pow = float(np.sum(np.abs(c) ** q))
    if not np.any(n == 0):
        lo_pow += 1.0
    hi_pow = lo_pow + tail_lp(*tail(doc), q)
    return lo_pow ** (1.0 / q), hi_pow ** (1.0 / q)


# -- arc geometry -------------------------------------------------------------


def inside(arc_list, t):
    t = np.asarray(t, dtype=float) % TWO_PI
    mask = np.zeros(t.shape, dtype=bool)
    for a, b in arc_list:
        mask |= (t >= a) & (t <= b)
    return mask


def sample(arc_list, count):
    """About count points spread over the arcs by length, endpoints included."""
    total = sum(b - a for a, b in arc_list)
    pts = [np.linspace(a, b, max(2, int(math.ceil(count * (b - a) / total))))
           for a, b in arc_list]
    return np.concatenate(pts)


def components(arc_list):
    """Arcs with a component split at 0 rejoined (its end then exceeds 2 pi)."""
    arc_list = sorted(arc_list)
    if (len(arc_list) >= 2 and arc_list[0][0] == 0.0
            and arc_list[-1][1] == TWO_PI):
        return arc_list[1:-1] + [(arc_list[-1][0], arc_list[0][1] + TWO_PI)]
    return arc_list


def gaps(arc_list):
    """The complementary open arcs of a closed arc union, rejoined across 0."""
    comps = components(arc_list)
    ends = sorted(comps)
    out = []
    for (a0, b0), (a1, _) in zip(ends, ends[1:] + [(ends[0][0] + TWO_PI, 0)]):
        if a1 > b0:
            out.append((b0, a1))
    return out


def witness_profile(arc_list, t):
    """((t-a)(b-t))^3 on each gap (a, b) of K, scaled to peak 1; 0 on K."""
    t = np.asarray(t, dtype=float) % TWO_PI
    out = np.zeros(t.shape)
    for a, b in gaps(arc_list):
        for shift in (0.0, TWO_PI):
            u = t + shift
            m = (u > a) & (u < b)
            out[m] = ((u[m] - a) * (b - u[m])) ** 3 * (4.0 / (b - a) ** 2) ** 3
    return out


# -- Bernstein tails ------------------------------------------------------------


def coin_tail(N, p_plus, alpha):
    """P{(1/N) sum X_j < mu - alpha} for N independent +-1 coins with
    P(+1) = p_plus, mu = 2 p_plus - 1, as an exact binomial sum."""
    p_plus, alpha = Fraction(p_plus), Fraction(alpha)
    mu = 2 * p_plus - 1
    return sum((math.comb(N, k) * p_plus**k * (1 - p_plus) ** (N - k)
                for k in range(N + 1) if Fraction(2 * k - N, N) < mu - alpha),
               Fraction(0))


def riesz_grid_size(N, nu):
    """Quadrature grid of the Riesz space: the least power of two above
    twice the degree of lambda_s = prod_j (1 + s cos nu^j t)."""
    degree = 2 * sum(nu**j for j in range(1, N + 1))
    return 1 << (degree + 1).bit_length()


def riesz_tails(N, nu, s, alphas):
    """Tails of the mean of X_j = cos(nu^j t) under the probability
    weights lambda_s / sum(lambda_s) on the uniform grid."""
    M = riesz_grid_size(N, nu)
    t = TWO_PI * np.arange(M) / M
    X = np.array([np.cos(nu**j * t) for j in range(1, N + 1)])
    lam = np.prod(1.0 + float(s) * X, axis=0)
    w = lam / lam.sum()
    mu = float(X[0] @ w)
    mean = X.mean(axis=0)
    return [math.fsum(w[mean < mu - a]) for a in alphas]
