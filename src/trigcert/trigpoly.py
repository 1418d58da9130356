"""Trigonometric polynomials and tail-bounded coefficient sequences.

Everything lives on the Fourier side.  A TrigPoly is two arrays: its
frequencies, sorted and distinct, and the matching nonzero coefficients.
A CoeffSeq is a dense coefficient window on [-M, M] together with a
power-law bound on everything outside it.  A_p norms (l^p of the
coefficient sequence) are returned as enclosing intervals so downstream
certificates can quote one-sided bounds.

Two scalar types coexist: complex128 for numerics and QComplex (a pair
of Fractions, held in an object array) where identities must cancel
exactly.  Mixing an exact value with a float degrades the result to
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ResourceError

TWO_PI = 2.0 * math.pi

# cap on the size of a coefficient table produced by TrigPoly.multiply
COEFF_BUDGET = 1 << 23

# largest FFT of _window_convolve; a longer product is overlap-added from
# smaller blocks, which stay in cache where one transform of the whole
# product would not (a 1 603 x 1 050 179 product: 0.07 s against 0.5 s)
_MAX_CONV_BLOCK = 1 << 20

# frequencies are int64; each stays within 2^62, so the sum of two (a
# frequency of a product) cannot wrap around
_MAX_FREQ = 1 << 62

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


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], the result type of every norm computation."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise PreconditionError(f"empty interval [{self.lo}, {self.hi}]")

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
    if isinstance(value, (float, complex)):
        return complex(value)
    raise PreconditionError(f"unsupported coefficient type {type(value).__name__}")


_SCALARS = (int, float, complex, Fraction, QComplex)


class TrigPoly:
    """Finitely supported Fourier coefficient table on the circle.

    Immutable.  ``freqs`` holds the frequencies with a nonzero
    coefficient, sorted and distinct (int64); ``coeffs`` the matching
    coefficients.  The polynomial is t -> sum coeffs[i] exp(i freqs[i] t).
    ``coeffs`` is an object array of QComplex when every coefficient is
    exact (the zero polynomial included) and complex128 otherwise.
    """

    __slots__ = ("freqs", "coeffs")

    def __init__(self, coeffs):
        """From a mapping {frequency: coefficient}; zero entries are dropped."""
        freqs = [int(n) for n in coeffs]
        _check_degree(max(map(abs, freqs), default=0))
        values = [_as_scalar(c) for c in coeffs.values()]
        if all(isinstance(c, QComplex) for c in values):
            array = np.empty(len(values), dtype=object)
            array[:] = values
        else:
            array = np.array([complex(c) for c in values], dtype=complex)
        self._assign(np.array(freqs, dtype=np.int64), array)

    def _assign(self, freqs, coeffs):
        order = np.argsort(freqs, kind="stable")
        freqs, coeffs = freqs[order], coeffs[order]
        if freqs.size > 1:
            starts = np.flatnonzero(np.diff(freqs, prepend=freqs[0] - 1))
            if starts.size < freqs.size:
                # repeated frequencies add up, in the order given
                coeffs = np.add.reduceat(coeffs, starts)
                freqs = freqs[starts]
        keep = coeffs != 0
        freqs, coeffs = freqs[keep], coeffs[keep]
        if not coeffs.size:
            coeffs = coeffs.astype(object)  # no coefficient is inexact
        freqs.flags.writeable = False
        coeffs.flags.writeable = False
        self.freqs, self.coeffs = freqs, coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def from_arrays(cls, freqs, coeffs) -> "TrigPoly":
        """sum_i coeffs[i] exp(i freqs[i] t).  Repeated frequencies add
        up and zero coefficients are dropped.  An object array must hold
        QComplex values and stays exact; anything else becomes complex128.
        """
        coeffs = np.asarray(coeffs)
        if coeffs.dtype != object:
            coeffs = coeffs.astype(complex)
        poly = cls.__new__(cls)
        poly._assign(np.asarray(freqs, dtype=np.int64).ravel(), coeffs.ravel())
        return poly

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
        # sin nt = (e^{int} - e^{-int}) / (2i): amp/(2i) = -i amp/2 at +n
        if exact or _is_exact(amp):
            at_n = QComplex(0, -Fraction(amp) / 2)
        else:
            at_n = complex(0, -amp / 2)
        return cls({n: at_n, -n: at_n.conjugate()})

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.freqs.size:
            return 0
        return int(max(-self.freqs[0], self.freqs[-1]))

    @property
    def exact(self) -> bool:
        return self.coeffs.dtype == object

    def _values(self) -> np.ndarray:
        """The coefficients as complex128."""
        return self.coeffs.astype(complex) if self.exact else self.coeffs

    def _dense(self) -> bool:
        return 10 * self.coeffs.size >= 2 * self.degree + 1

    def coeff(self, n: int):
        i = int(np.searchsorted(self.freqs, n))
        if i < self.freqs.size and self.freqs[i] == n:
            return self.coeffs[i]
        return 0

    def is_real(self) -> bool:
        """Whether coeff(-n) == conj(coeff(n)) for all n (within 1e-12 of the
        largest modulus for floats)."""
        if not self.freqs.size:
            return True
        idx = np.minimum(np.searchsorted(self.freqs, -self.freqs), self.freqs.size - 1)
        paired = self.freqs[idx] == -self.freqs
        if self.exact:
            mirror = np.where(paired, self.coeffs[idx], 0)
            return bool(np.all(self.coeffs == np.conjugate(mirror)))
        c = self.coeffs
        bar = 1e-12 * max(1.0, float(np.abs(c).max()))
        mirror = np.where(paired, c[idx], 0)
        return not np.any(np.abs(c - np.conj(mirror)) > bar)

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return np.array_equal(self.freqs, other.freqs) and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __repr__(self):
        terms = ", ".join(f"{n}: {c!r}" for n, c in
                          zip(self.freqs[:6].tolist(), self.coeffs[:6].tolist()))
        more = "..." if self.freqs.size > 6 else ""
        return f"TrigPoly({{{terms}{more}}})"

    # -- algebra -------------------------------------------------------

    def _paired_values(self, other: "TrigPoly"):
        """Both coefficient arrays in one dtype: exact only if both are."""
        if self.exact and other.exact:
            return self.coeffs, other.coeffs
        return self._values(), other._values()

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = TrigPoly.const(other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        a, b = self._paired_values(other)
        return TrigPoly.from_arrays(np.concatenate([self.freqs, other.freqs]),
                                    np.concatenate([a, b]))

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly.from_arrays(self.freqs, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = TrigPoly.const(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "TrigPoly":
        if self.exact and _is_exact(c):
            return TrigPoly.from_arrays(self.freqs, self.coeffs * _as_scalar(c))
        return TrigPoly.from_arrays(self.freqs, self._values() * complex(c))

    def multiply(self, other: "TrigPoly") -> "TrigPoly":
        """Coefficient convolution; realizes the pointwise product.

        Two dense operands are convolved as windows; otherwise every pair
        of terms is formed and equal frequencies are summed.  Raises
        ResourceError when the result table could exceed COEFF_BUDGET
        entries.
        """
        if not isinstance(other, TrigPoly):
            raise PreconditionError("multiply expects a TrigPoly")
        if not self.freqs.size or not other.freqs.size:
            return TrigPoly.zero()
        _check_degree(self.degree + other.degree)
        span = 2 * (self.degree + other.degree) + 1
        if min(self.freqs.size * other.freqs.size, span) > COEFF_BUDGET:
            raise ResourceError(
                f"product would need up to {span} coefficients, "
                f"budget is {COEFF_BUDGET}",
                budget=COEFF_BUDGET,
                required=span,
            )
        a, b = self._paired_values(other)
        if self._dense() and other._dense():
            d = (span - 1) // 2
            full = _window_convolve(self._window(a), other._window(b))
            return TrigPoly.from_arrays(np.arange(-d, d + 1), full)
        return TrigPoly.from_arrays(np.add.outer(self.freqs, other.freqs),
                                    np.multiply.outer(a, b))

    def _window(self, values) -> np.ndarray:
        """values placed on the dense window of frequencies -degree..degree."""
        d = self.degree
        window = np.zeros(2 * d + 1, dtype=values.dtype)
        window[self.freqs + d] = values
        return window

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return self.multiply(other)
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def dilate(self, nu: int) -> "TrigPoly":
        """f(t) -> f(nu t): coefficient at nu*n equals coeff(n)."""
        nu = int(nu)
        if nu < 1:
            raise PreconditionError("dilation factor must be >= 1", field="nu")
        _check_degree(self.degree * nu)
        return TrigPoly.from_arrays(self.freqs * nu, self.coeffs)

    def to_float(self) -> "TrigPoly":
        return TrigPoly.from_arrays(self.freqs, self._values())

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
        np.add.at(spec, self.freqs % M, self._values())
        return M * np.fft.ifft(spec)

    def eval_at(self, t) -> np.ndarray:
        """Values at arbitrary angles.

        Dense tables use vectorized Horner in exp(it); sparse tables sum
        c_n exp(int) term by term, which wins when the degree is much
        larger than the number of nonzero coefficients.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not self.freqs.size:
            return np.zeros_like(t, dtype=complex)
        values = self._values()
        if not self._dense():
            acc = np.zeros(t.shape, dtype=complex)
            for n, c in zip(self.freqs.tolist(), values.tolist()):
                acc += c * np.exp((1j * n) * t)
            return acc
        z = np.exp(1j * t)
        # Horner on frequencies d, d-1, ..., -d, then shift by z^{-d}.
        acc = np.zeros_like(z)
        for c in self._window(values)[::-1].tolist():
            acc *= z
            if c:
                acc += c
        return acc * z ** (-self.degree)

    def mean(self):
        """The 0th coefficient: (1/2pi) * integral of f."""
        return self.coeff(0)

    def l2_norm_sq(self):
        """Parseval: squared L2 norm (normalized measure) as sum |c_n|^2."""
        if self.exact:
            return sum((c.abs2() for c in self.coeffs), Fraction(0))
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def coeff_l1(self) -> float:
        """l^1 of coefficients; an always-valid upper bound for sup|f|."""
        return float(np.sum(np.abs(self._values())))

    # -- norms ---------------------------------------------------------

    def a_p_norm(self, p: float) -> Interval:
        """A_p norm = l^p norm of the coefficient table (exact window)."""
        return self.as_coeffseq().a_p_norm(p)

    def as_coeffseq(self) -> "CoeffSeq":
        return CoeffSeq(self._window(self._values()), self.degree, 0.0, 0.0)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return _seq_json_dict(self.freqs, self.coeffs, self.degree, 0, 0.0, 0.0)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPoly":
        tail = data.get("tail") or {}
        if float(_scalar_from_str(str(tail.get("const", "0")))) != 0.0:
            raise PreconditionError("TrigPoly artifact must have zero tail")
        return cls({int(e["n"]): _scalar_pair(e["re"], e["im"]) for e in data["coeffs"]})


def _check_degree(degree: int) -> None:
    if degree > _MAX_FREQ:
        raise ResourceError(
            f"frequency {degree} is past the int64 range kept for products",
            budget=_MAX_FREQ,
            required=degree,
        )


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
        # tail_const < 0 is false for a NaN, so finiteness is checked first
        if not math.isfinite(tail_const) or tail_const < 0:
            raise PreconditionError("tail_const must be finite and >= 0",
                                    field="tail_const")
        if not math.isfinite(tail_exp):
            raise PreconditionError("tail_exp must be finite", field="tail_exp")
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
        valid for b > 1 and M >= 1; at M = 0 the n = 1 term is counted
        apart, sum_{n>0} n^(-b) <= 1 + 1/(b-1).
        """
        if self.tail_const == 0.0:
            return 0.0
        b = p * self.tail_exp
        if b <= 1.0:
            raise PreconditionError(
                f"tail l^{p} sum diverges: tail_exp*p = {b} <= 1"
            )
        if not self.M:
            return 2.0 * self.tail_const**p * (1.0 + 1.0 / (b - 1.0))
        return 2.0 * self.tail_const**p * self.M ** (1.0 - b) / (b - 1.0)

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
        M = self.M
        window = self.window[M - M_out : M + M_out + 1].copy()
        if self.tail_const:
            exp = self.tail_exp
        else:
            exp = max(self.tail_exp, 2.0)
        # the two dropped halves, each in increasing |n|, share |n|^exp
        weight = np.arange(M_out + 1, M + 1) ** exp
        measured = max(float(np.max(np.abs(self.window[: M - M_out][::-1]) * weight)),
                       float(np.max(np.abs(self.window[M + M_out + 1 :]) * weight)))
        # old tail restated at the same exponent stays valid verbatim
        const = max(measured, self.tail_const)
        return CoeffSeq(window, M_out, const, exp)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, window_out: int | None = None) -> dict:
        seq = self if window_out is None else self.truncate(window_out)
        nz = np.flatnonzero(seq.window)
        return _seq_json_dict(nz - seq.M, seq.window[nz], seq.M, seq.M,
                              seq.tail_const, seq.tail_exp)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoeffSeq":
        """Read a CoeffSeq or a TrigPoly artifact: the window reaches the
        larger of the tail's M and the degree, so a polynomial (tail M 0)
        reads back as as_coeffseq() gives it."""
        tail = data.get("tail") or {}
        M = max(int(tail.get("M", 0)), int(data["degree"]))
        window = np.zeros(2 * M + 1, dtype=complex)
        for entry in data["coeffs"]:
            n = int(entry["n"])
            if abs(n) > M:
                raise PreconditionError(f"coefficient at |n|={abs(n)} outside window")
            window[n + M] = complex(_scalar_pair(entry["re"], entry["im"]))
        return cls(
            window,
            M,
            float(_scalar_from_str(str(tail.get("const", "0")))),
            float(_scalar_from_str(str(tail.get("exp", "0")))),
        )


def _window_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution: direct for small or exact (object)
    operands, by FFT otherwise.

    A product of at most _MAX_CONV_BLOCK points is one FFT of the next
    power of two.  A longer one is an overlap-add over blocks of about
    eight times the short operand (the fastest size measured), at most
    _MAX_CONV_BLOCK points: the long operand is cut into pieces that fit
    a block together with the short one, each piece is transformed once
    and multiplied by the short operand's transform, and the pieces'
    products are summed into place.
    """
    n = len(a) + len(b) - 1
    if a.dtype == object or len(a) * len(b) <= 1 << 20:
        return np.convolve(a, b)
    short, long_ = sorted((a, b), key=len)
    size = min(max(next_pow2(8 * len(short)), 1 << 12), _MAX_CONV_BLOCK)
    if next_pow2(n) <= _MAX_CONV_BLOCK or 2 * len(short) > size:
        size = next_pow2(n)
        return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:n]
    step = size - len(short) + 1
    kernel = np.fft.fft(short, size)
    out = np.zeros(n, dtype=complex)
    for start in range(0, len(long_), step):
        piece = np.fft.fft(long_[start : start + step], size)
        piece *= kernel
        np.fft.ifft(piece, out=piece)
        stop = min(start + size, n)
        out[start:stop] += piece[: stop - start]
    return out


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
    """The one scalar encoding of the artifacts: a Fraction as "p/q" ("p"
    when q = 1), anything else as a float with 17 significant digits,
    enough to read back bit for bit."""
    if isinstance(x, Fraction):
        return str(x)
    return format(float(x), ".17g")


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


def _seq_json_dict(freqs, values, degree, M, tail_const, tail_exp) -> dict:
    """Shared artifact layout; freqs must be sorted.  A float table is
    written from its real and imaginary parts as Python floats, each part
    in f17's float format, so only an exact table goes through
    _split_parts and f17."""
    if values.dtype == object:
        coeffs = []
        for n, c in zip(freqs.tolist(), values.tolist()):
            re, im = _split_parts(c)
            coeffs.append({"n": n, "re": f17(re), "im": f17(im)})
    else:
        coeffs = [{"n": n, "re": format(re, ".17g"), "im": format(im, ".17g")}
                  for n, re, im in zip(freqs.tolist(), values.real.tolist(),
                                       values.imag.tolist())]
    return {
        "degree": int(degree),
        "coeffs": coeffs,
        "tail": {
            "M": int(M),
            "const": f17(tail_const),
            "exp": f17(tail_exp),
        },
    }


def next_pow2(n: int) -> int:
    """Least power of two >= n (1 for n <= 1)."""
    return 1 << max(0, int(n) - 1).bit_length()


def synth_real(half_spectrum: np.ndarray, M: int) -> np.ndarray:
    """Real-polynomial synthesis on the M points t_k = 2 pi k / M.

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
    return M * np.fft.irfft(spec, n=M)
