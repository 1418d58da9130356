"""Trigonometric polynomials and tail-bounded coefficient sequences.

Everything lives on the Fourier side.  A polynomial is a sparse table
{frequency: coefficient}; a CoeffSeq is a dense coefficient window on
[-M, M] together with a power-law bound on everything outside it.  A_p
norms (l^p of the coefficient sequence) are returned as enclosing
intervals so downstream certificates can quote one-sided bounds.

Two scalar types coexist: python complex for numerics and QComplex (a
pair of Fractions) where identities must cancel exactly.  Mixing an
exact value with a float degrades the result to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ResourceError

TWO_PI = 2.0 * math.pi

# Default cap on the size of a coefficient table produced by multiply().
COEFF_BUDGET = 1 << 23

_EXACT_TYPES = (int, Fraction)


class QComplex:
    """Complex scalar with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_TYPES):
            return QComplex(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, QComplex):
            return QComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_TYPES):
            return QComplex(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT_TYPES):
            return QComplex(self.re / other, self.im / other)
        if isinstance(other, QComplex):
            d = other.re * other.re + other.im * other.im
            return self * QComplex(other.re / d, -other.im / d)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_TYPES):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return QComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self):
        return math.sqrt(float(self.abs2()))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QComplex({self.re!s}, {self.im!s})"


def _is_exact(value) -> bool:
    return isinstance(value, (QComplex,) + _EXACT_TYPES)


def _conj(value):
    if isinstance(value, QComplex):
        return value.conjugate()
    if isinstance(value, _EXACT_TYPES):
        return value
    return value.conjugate() if isinstance(value, complex) else complex(value).conjugate()


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], the result type of every norm computation."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise PreconditionError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        x = float(x)
        return cls(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, c: float) -> "Interval":
        c = float(c)
        if c < 0:
            raise PreconditionError("scale factor must be nonnegative")
        return Interval(self.lo * c, self.hi * c)

    def __contains__(self, x) -> bool:
        return self.lo <= float(x) <= self.hi


def _as_scalar(value):
    """Accept int/float/complex/Fraction/QComplex, normalize exact ints."""
    if isinstance(value, QComplex):
        return value
    if isinstance(value, _EXACT_TYPES):
        return QComplex(value)
    if isinstance(value, float):
        return complex(value)
    if isinstance(value, complex):
        return value
    raise PreconditionError(f"unsupported coefficient type {type(value).__name__}")


class TrigPoly:
    """Finitely supported Fourier coefficient table on the circle.

    Immutable.  ``coeffs`` maps integer frequency n to a nonzero
    coefficient; absent entries are zero.  The polynomial is
    t -> sum coeffs[n] * exp(i n t).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        table = {}
        for n, c in coeffs.items():
            c = _as_scalar(c)
            if (isinstance(c, QComplex) and c) or (
                isinstance(c, complex) and c != 0
            ):
                table[int(n)] = c
        object.__setattr__(self, "coeffs", table)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls({})

    @classmethod
    def const(cls, value) -> "TrigPoly":
        return cls({0: value})

    @classmethod
    def cosine(cls, n: int, amp=1, exact: bool = False) -> "TrigPoly":
        """amp * cos(n t)."""
        if exact or _is_exact(amp):
            half = QComplex(Fraction(amp) / 2)
        else:
            half = complex(amp) / 2
        return cls({n: half, -n: half}) if n else cls({0: _as_scalar(amp)})

    @classmethod
    def sine(cls, n: int, amp=1, exact: bool = False) -> "TrigPoly":
        """amp * sin(n t)."""
        if n == 0:
            return cls.zero()
        return cls({n: _neg_i_half(amp, exact), -n: _pos_i_half(amp, exact)})

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    @property
    def exact(self) -> bool:
        return all(isinstance(c, QComplex) for c in self.coeffs.values())

    def coeff(self, n: int):
        return self.coeffs.get(n, 0)

    def is_real(self, tol: float = 1e-12) -> bool:
        """Whether coeff(-n) == conj(coeff(n)) for all n (within tol for floats)."""
        scale = max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)
        bar = tol * max(1.0, scale)
        for n, c in self.coeffs.items():
            d = self.coeffs.get(-n, 0)
            if self.exact:
                if _conj(_as_scalar(d)) != c:
                    return False
            elif abs(complex(c) - _conj(_as_scalar(d))) > bar:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[n] == other.coeffs[n] for n in self.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{n}: {c!r}" for n, c in sorted(self.coeffs.items())[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"TrigPoly({{{terms}{more}}})"

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex, Fraction, QComplex)):
            other = TrigPoly.const(other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        table = dict(self.coeffs)
        for n, c in other.coeffs.items():
            table[n] = table[n] + c if n in table else c
        return TrigPoly(table)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly({n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex, Fraction, QComplex)):
            other = TrigPoly.const(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "TrigPoly":
        c = c if _is_exact(c) or isinstance(c, QComplex) else complex(c)
        return TrigPoly({n: v * c for n, v in self.coeffs.items()})

    def multiply(self, other: "TrigPoly", budget: int = COEFF_BUDGET) -> "TrigPoly":
        """Coefficient convolution; realizes the pointwise product.

        Raises ResourceError when the result table could exceed ``budget``
        entries.
        """
        if not isinstance(other, TrigPoly):
            raise PreconditionError("multiply expects a TrigPoly")
        if not self.coeffs or not other.coeffs:
            return TrigPoly.zero()
        span = 2 * (self.degree + other.degree) + 1
        if min(len(self.coeffs) * len(other.coeffs), span) > budget:
            raise ResourceError(
                f"product would need up to {span} coefficients, "
                f"budget is {budget}",
                budget=budget,
                required=span,
            )
        table = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                prod = c1 * c2
                table[n] = table[n] + prod if n in table else prod
        return TrigPoly(table)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return self.multiply(other)
        if isinstance(other, (int, float, complex, Fraction, QComplex)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def dilate(self, nu: int) -> "TrigPoly":
        """f(t) -> f(nu t): coefficient at nu*n equals coeff(n)."""
        nu = int(nu)
        if nu < 1:
            raise PreconditionError("dilation factor must be >= 1", field="nu")
        return TrigPoly({nu * n: c for n, c in self.coeffs.items()})

    def to_float(self) -> "TrigPoly":
        return TrigPoly({n: complex(c) for n, c in self.coeffs.items()})

    # -- evaluation ----------------------------------------------------

    def eval_grid(self, M: int) -> np.ndarray:
        """Values at t_k = 2 pi k / M, k = 0..M-1, via FFT synthesis.

        Exact on the grid for any M >= 1 (frequencies fold mod M, and
        exp(i n t_k) only depends on n mod M); the inverse transform
        recovers the coefficients when M >= 2*degree + 1.
        """
        M = int(M)
        if M < 1:
            raise PreconditionError("grid size must be >= 1", field="M")
        spec = np.zeros(M, dtype=complex)
        for n, c in self.coeffs.items():
            spec[n % M] += complex(c)
        return M * np.fft.ifft(spec)

    def eval_at(self, t) -> np.ndarray:
        """Values at arbitrary angles.

        Dense tables use vectorized Horner in exp(it); sparse tables sum
        c_n exp(int) term by term, which wins when the degree is much
        larger than the number of nonzero coefficients.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not self.coeffs:
            return np.zeros_like(t, dtype=complex)
        d = self.degree
        if 10 * len(self.coeffs) < 2 * d + 1:
            acc = np.zeros(t.shape, dtype=complex)
            for n, c in self.coeffs.items():
                acc += complex(c) * np.exp((1j * n) * t)
            return acc
        z = np.exp(1j * t)
        # Horner on frequencies d, d-1, ..., -d, then shift by z^{-d}.
        acc = np.zeros_like(z)
        for n in range(d, -d - 1, -1):
            acc *= z
            c = self.coeffs.get(n)
            if c is not None:
                acc += complex(c)
        return acc * z ** (-d)

    def mean(self):
        """The 0th coefficient: (1/2pi) * integral of f."""
        return self.coeff(0)

    def l2_norm_sq(self):
        """Parseval: squared L2 norm (normalized measure) as sum |c_n|^2."""
        if self.exact:
            return sum((c.abs2() for c in self.coeffs.values()), Fraction(0))
        return float(sum(abs(complex(c)) ** 2 for c in self.coeffs.values()))

    def coeff_l1(self) -> float:
        """l^1 of coefficients; an always-valid upper bound for sup|f|."""
        return float(sum(abs(complex(c)) for c in self.coeffs.values()))

    # -- norms ---------------------------------------------------------

    def a_p_norm(self, p: float) -> Interval:
        """A_p norm = l^p norm of the coefficient table (exact window)."""
        return self.as_coeffseq().a_p_norm(p)

    def as_coeffseq(self) -> "CoeffSeq":
        d = self.degree
        window = np.zeros(2 * d + 1, dtype=complex)
        for n, c in self.coeffs.items():
            window[n + d] = complex(c)
        return CoeffSeq(window, d, 0.0, 0.0)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return _seq_json_dict(self.coeffs, self.degree, 0, 0.0, 0.0)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPoly":
        tail = data.get("tail") or {}
        if float(_scalar_from_str(str(tail.get("const", "0")))) != 0.0:
            raise PreconditionError("TrigPoly artifact must have zero tail")
        table = {}
        for entry in data["coeffs"]:
            table[int(entry["n"])] = _scalar_pair(entry["re"], entry["im"])
        return cls(table)


def _neg_i_half(amp, exact):
    # sin nt = (e^{int} - e^{-int}) / (2i); coefficient at +n is amp/(2i) = -i*amp/2
    if exact or _is_exact(amp):
        return QComplex(0, -Fraction(amp) / 2)
    return complex(0, -amp / 2)


def _pos_i_half(amp, exact):
    if exact or _is_exact(amp):
        return QComplex(0, Fraction(amp) / 2)
    return complex(0, amp / 2)


class CoeffSeq:
    """Dense coefficient window [-M, M] plus a rigorous power-law tail.

    ``window[k]`` is the coefficient at frequency k - M.  Outside the
    window the sequence is only known to satisfy
    |c(n)| <= tail_const * |n|**(-tail_exp).
    A zero tail_const means the object is exactly a polynomial.
    """

    __slots__ = ("window", "M", "tail_const", "tail_exp")

    def __init__(self, window, M: int, tail_const: float = 0.0, tail_exp: float = 0.0):
        window = np.asarray(window, dtype=complex)
        M = int(M)
        if M < 0:
            raise PreconditionError("window half-width must be >= 0", field="M")
        if window.shape != (2 * M + 1,):
            raise PreconditionError(
                f"window length {window.shape} does not match M={M}"
            )
        if tail_const < 0:
            raise PreconditionError("tail_const must be >= 0", field="tail_const")
        self.window = window
        self.M = M
        self.tail_const = float(tail_const)
        self.tail_exp = float(tail_exp)

    def coeff(self, n: int) -> complex:
        if abs(n) <= self.M:
            return complex(self.window[n + self.M])
        return complex(0)

    # -- tail accounting ----------------------------------------------

    def tail_lp_pow(self, p: float) -> float:
        """Upper bound for sum over |n| > M of |c(n)|^p.

        Uses the integral estimate sum_{n>M} n^(-b) <= M^(1-b)/(b-1),
        valid for b > 1.
        """
        if self.tail_const == 0.0:
            return 0.0
        b = p * self.tail_exp
        if b <= 1.0:
            raise PreconditionError(
                f"tail l^{p} sum diverges: tail_exp*p = {b} <= 1"
            )
        M = max(self.M, 1)
        return 2.0 * self.tail_const**p * M ** (1.0 - b) / (b - 1.0)

    def tail_l1(self) -> float:
        return self.tail_lp_pow(1.0)

    # -- norms ----------------------------------------------------------

    def a_p_norm(self, p: float) -> Interval:
        """Enclosure of the A_p norm (l^p of the full coefficient sequence)."""
        p = float(p)
        if p < 1.0:
            raise PreconditionError("p must be >= 1", field="p")
        mags = np.abs(self.window)
        lo_pow = float(np.sum(mags**p))
        lo = lo_pow ** (1.0 / p)
        if self.tail_const == 0.0:
            return Interval(lo, lo)
        hi = (lo_pow + self.tail_lp_pow(p)) ** (1.0 / p)
        return Interval(lo, max(lo, hi))

    def l2_norm_sq_window(self) -> float:
        return float(np.sum(np.abs(self.window) ** 2))

    # -- algebra ---------------------------------------------------------

    def add(self, other: "CoeffSeq", scalar=1.0) -> "CoeffSeq":
        """self + scalar * other, tails combined soundly."""
        M = max(self.M, other.M)
        window = np.zeros(2 * M + 1, dtype=complex)
        window[M - self.M : M + self.M + 1] = self.window
        window[M - other.M : M + other.M + 1] += scalar * other.window
        const, exp = _tail_union(
            (self.tail_const, self.tail_exp, self.M),
            (abs(scalar) * other.tail_const, other.tail_exp, other.M),
            M,
        )
        return CoeffSeq(window, M, const, exp)

    def multiply(self, other: "CoeffSeq") -> "CoeffSeq":
        """Product of the underlying functions: full convolution.

        The new window is [-Ms-Mo, Ms+Mo].  The propagated tail uses
        |(fg)^(n)| <= ||f||_A-hi * sup_{|k|>|n|-Ms} |g^(k)| + (tail of f) * ||g||_A-hi,
        and for |n| > 2*max(Ms, Mo) each surviving index satisfies
        |n| - M_other > |n|/2, which costs a factor 2^exp on the constant.
        """
        Mo = self.M + other.M
        full = _window_convolve(self.window, other.window)
        a_self = self.a_p_norm(1.0) if _finite_l1(self) else None
        a_other = other.a_p_norm(1.0) if _finite_l1(other) else None
        if self.tail_const == 0.0 and other.tail_const == 0.0:
            return CoeffSeq(full, Mo, 0.0, 0.0)
        if a_self is None or a_other is None:
            raise PreconditionError("product tails need l^1-summable factors")
        exp = min(
            self.tail_exp if self.tail_const else math.inf,
            other.tail_exp if other.tail_const else math.inf,
        )
        # cross terms: window-of-one against tail-of-other, plus tail*tail
        c1 = a_self.hi * other.tail_const if other.tail_const else 0.0
        c2 = a_other.hi * self.tail_const if self.tail_const else 0.0
        cross = (
            self.tail_l1() * other.tail_const if other.tail_const else 0.0
        ) + (other.tail_l1() * self.tail_const if self.tail_const else 0.0)
        const = (2.0**exp) * (c1 + c2) + cross
        return CoeffSeq(full, Mo, const, exp)

    def truncate(self, M_out: int) -> "CoeffSeq":
        """Shrink the window, absorbing dropped entries into the tail."""
        M_out = int(M_out)
        if M_out >= self.M:
            return self
        dropped = np.concatenate(
            [self.window[: self.M - M_out], self.window[self.M + M_out + 1 :]]
        )
        idx = np.concatenate(
            [np.arange(-self.M, -M_out), np.arange(M_out + 1, self.M + 1)]
        )
        window = self.window[self.M - M_out : self.M + M_out + 1].copy()
        if self.tail_const:
            exp = self.tail_exp
        else:
            exp = max(self.tail_exp, 2.0)
        measured = float(np.max(np.abs(dropped) * np.abs(idx) ** exp, initial=0.0))
        # old tail restated at the same exponent stays valid verbatim
        const = max(measured, self.tail_const)
        return CoeffSeq(window, M_out, const, exp)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, window_out: int | None = None) -> dict:
        seq = self if window_out is None else self.truncate(window_out)
        table = {
            k - seq.M: seq.window[k]
            for k in range(len(seq.window))
            if seq.window[k] != 0
        }
        return _seq_json_dict(table, seq.M, seq.M, seq.tail_const, seq.tail_exp)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoeffSeq":
        tail = data.get("tail") or {"M": data["degree"], "const": "0", "exp": "0"}
        M = int(tail["M"])
        window = np.zeros(2 * M + 1, dtype=complex)
        for entry in data["coeffs"]:
            n = int(entry["n"])
            if abs(n) > M:
                raise PreconditionError(f"coefficient at |n|={abs(n)} outside window")
            window[n + M] = complex(_scalar_pair(entry["re"], entry["im"]))
        return cls(
            window,
            M,
            float(_scalar_from_str(str(tail["const"]))),
            float(_scalar_from_str(str(tail["exp"]))),
        )


def _window_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution: direct for small operands, by FFT otherwise."""
    n = len(a) + len(b) - 1
    if len(a) * len(b) <= 1 << 20:
        return np.convolve(a, b)
    size = next_pow2(n)
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:n]


def _finite_l1(seq: CoeffSeq) -> bool:
    return seq.tail_const == 0.0 or seq.tail_exp > 1.0


def _tail_union(t1, t2, M_new):
    """Combine two tails (const, exp, window) into one valid at M_new >= both."""
    parts = [(c, e) for (c, e, _m) in (t1, t2) if c > 0.0]
    if not parts:
        return 0.0, 0.0
    exp = min(e for _c, e in parts)
    M = max(M_new, 1)
    # restating |c(n)| <= C n^-e at a smaller exponent costs n^(e-exp) <= 1
    # for n > M only when e >= exp; that is how exp was chosen.
    const = sum(c * (1.0 if e == exp else M ** (exp - e)) for c, e in parts)
    return const, exp


# -- shared JSON helpers -------------------------------------------------


def f17(x) -> str:
    """A float with 17 significant digits: enough to read back bit for bit."""
    return format(float(x), ".17g")


def _scalar_to_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(
            x.numerator
        )
    if isinstance(x, int):
        return str(x)
    return f17(x)


def _scalar_from_str(s: str):
    s = str(s)
    if "/" in s:
        return Fraction(s)
    if s.lstrip("+-").isdigit():
        return Fraction(int(s))
    return float(s)


def _scalar_pair(re_str, im_str):
    re = _scalar_from_str(re_str)
    im = _scalar_from_str(im_str)
    if isinstance(re, Fraction) and isinstance(im, Fraction):
        return QComplex(re, im)
    return complex(float(re), float(im))


def _split_parts(c):
    if isinstance(c, QComplex):
        return c.re, c.im
    c = complex(c)
    return c.real, c.imag


def _seq_json_dict(table, degree, M, tail_const, tail_exp) -> dict:
    coeffs = []
    for n in sorted(table):
        re, im = _split_parts(table[n])
        coeffs.append({"n": n, "re": _scalar_to_str(re), "im": _scalar_to_str(im)})
    return {
        "degree": int(degree),
        "coeffs": coeffs,
        "tail": {
            "M": int(M),
            "const": _scalar_to_str(float(tail_const)),
            "exp": _scalar_to_str(float(tail_exp)),
        },
    }


def next_pow2(n: int) -> int:
    """Least power of two >= n (1 for n <= 1)."""
    return 1 << max(0, int(n) - 1).bit_length()


def grid_size(degree: int, factor: int = 1) -> int:
    """Least power of two >= factor * (2*degree + 1)."""
    return next_pow2(factor * (2 * int(degree) + 1))


def coeffs_from_grid(values: np.ndarray, degree: int) -> TrigPoly:
    """Inverse of eval_grid on a grid with M >= 2*degree + 1."""
    values = np.asarray(values, dtype=complex)
    M = len(values)
    if M < 2 * degree + 1:
        raise PreconditionError(
            f"grid of {M} points cannot resolve degree {degree}"
        )
    spec = np.fft.fft(values) / M
    table = {}
    for n in range(-degree, degree + 1):
        c = spec[n % M]
        if c != 0:
            table[n] = complex(c)
    return TrigPoly(table)


def synth_real(half_spectrum: np.ndarray, M: int, offset: float = 0.0) -> np.ndarray:
    """Real-polynomial synthesis on M points t_k = 2 pi k / M + offset.

    ``half_spectrum[n]`` is the coefficient at frequency n >= 0 of a real
    polynomial (the negative side is implied by conjugate symmetry).
    Returns float64 values; used for large certification grids where a
    full complex FFT would not fit in memory.
    """
    M = int(M)
    L = len(half_spectrum)
    if L > M // 2 + 1:
        raise PreconditionError("half spectrum longer than grid resolution")
    spec = np.zeros(M // 2 + 1, dtype=complex)
    spec[:L] = half_spectrum
    if offset != 0.0:
        spec[:L] *= np.exp(1j * offset * np.arange(L))
    return M * np.fft.irfft(spec, n=M)
