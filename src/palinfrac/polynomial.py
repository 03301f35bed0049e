"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

``BigRational`` is ``fractions.Fraction``: always stored reduced with a
positive denominator, unbounded precision.  ``Polynomial`` keeps a dense
coefficient tuple, lowest degree first, trailing zeros stripped; the zero
polynomial is the empty tuple and reports degree -1.

Exact evaluation (:meth:`Polynomial.eval_exact`) and 64-bit floating
evaluation (:meth:`Polynomial.eval_float`, Horner on converted
coefficients) are separate code paths and are never mixed implicitly.

`three_term` runs u_{k+1} = f_k u_k + g_k u_{k-1} over any ring: it gives
the convergents, the J- and P-fraction reconstructions and the Chebyshev
families T_n, U_n.  Also provided: the residual of the Pell-Abel identity
T_n^2 - (x^2 - 1) U_{n-1}^2 = 1, which is the zero polynomial for every n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZeroPolynomial

__all__ = [
    "BigRational",
    "Polynomial",
    "X",
    "ONE",
    "ZERO",
    "parse_rational",
    "format_rational",
    "poly_divmod",
    "poly_gcd",
    "three_term",
    "chebyshev_t",
    "chebyshev_u",
    "pell_abel_residual",
]

BigRational = Fraction

RationalLike = Union[Fraction, int, str]


def parse_rational(text: RationalLike) -> Fraction:
    """Parse "num/den" or a bare integer string into a reduced Fraction."""
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i, zero beyond the stored degree."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return ZERO
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if other == -1:  # the g = -1 steps of three_term: negating beats multiplying
            return -self
        scalar = Fraction(other)
        return Polynomial(c * scalar for c in self._coeffs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        return poly_divmod(self, other)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return poly_divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return poly_divmod(self, other)[1]

    # -- evaluation and calculus -------------------------------------------

    def eval_exact(self, x: RationalLike) -> Fraction:
        """Horner evaluation in exact rational arithmetic."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: float) -> float:
        """Horner evaluation in 64-bit floating point."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + float(c)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self._coeffs) if i >= 1)

    def monic(self) -> "Polynomial":
        """Divide through by the leading coefficient."""
        if self.is_zero:
            raise DivisionByZeroPolynomial("the zero polynomial has no monic form")
        lead = self._coeffs[-1]
        if lead == 1:
            return self
        return Polynomial(c / lead for c in self._coeffs)

    # -- serialization and comparison ---------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as "num/den" strings, lowest degree first."""
        return [format_rational(c) for c in self._coeffs]

    @classmethod
    def from_strings(cls, items: Iterable[RationalLike]) -> "Polynomial":
        return cls(parse_rational(item) for item in items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for i in reversed(range(len(self._coeffs))):
            c = self._coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                factor = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(factor)
                elif c == -1:
                    parts.append(f"-{factor}")
                else:
                    parts.append(f"{c}*{factor}")
        return "Polynomial(" + " + ".join(parts).replace("+ -", "- ") + ")"


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def poly_divmod(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact division with remainder: num = quotient * den + remainder,
    deg remainder < deg den."""
    if den.is_zero:
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if num.degree < den.degree:
        return ZERO, num
    rem = list(num.coefficients)
    dcs = den.coefficients
    dlead = dcs[-1]
    dn = len(dcs)
    quot = [Fraction(0)] * (len(rem) - dn + 1)
    for shift in range(len(rem) - dn, -1, -1):
        factor = rem[shift + dn - 1] / dlead
        if factor:
            quot[shift] = factor
            for i, dc in enumerate(dcs):
                rem[shift + i] -= factor * dc
    return Polynomial(quot), Polynomial(rem[: dn - 1])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (zero if both inputs are zero)."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b.monic()  # keeps coefficient growth in check
    if a.is_zero:
        return ZERO
    return a.monic()


def three_term(steps: Iterable[tuple], seed: tuple) -> list:
    """Values u_0, u_1, ..., u_n of u_{k+1} = f_k u_k + g_k u_{k-1}, one pair
    (f_k, g_k) of ``steps`` per k, from ``seed`` = (u_{-1}, u_0); any ring
    works (int, Fraction, Polynomial), as only ``*`` and ``+`` are used."""
    prev, cur = seed
    values = [cur]
    for f, g in steps:
        prev, cur = cur, f * cur + g * prev
        values.append(cur)
    return values


def _chebyshev(n: int, before_one: Polynomial) -> Polynomial:
    """C_n of C_{k+1} = 2x C_k - C_{k-1} with C_0 = 1, C_{-1} = ``before_one``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return three_term([(Polynomial((0, 2)), -1)] * n, (before_one, ONE))[-1]


def chebyshev_t(n: int) -> Polynomial:
    """First-kind Chebyshev polynomial from T_{n+1} = 2x T_n - T_{n-1},
    T_0 = 1, T_{-1} = x; degree n with leading coefficient 2^(n-1) for n >= 1."""
    return _chebyshev(n, X)


def chebyshev_u(n: int) -> Polynomial:
    """Second-kind Chebyshev polynomial from U_{n+1} = 2x U_n - U_{n-1},
    U_0 = 1, U_{-1} = 0; degree n with leading coefficient 2^n."""
    return _chebyshev(n, ZERO)


def pell_abel_residual(n: int) -> Polynomial:
    """T_n^2 - (x^2 - 1) U_{n-1}^2 - 1; identically zero for every n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    t = chebyshev_t(n)
    u = chebyshev_u(n - 1)
    x2m1 = Polynomial((-1, 0, 1))
    return t * t - x2m1 * (u * u) - ONE
