"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

``BigRational`` is ``fractions.Fraction``: always stored reduced with a
positive denominator, unbounded precision.  A ``Polynomial`` is stored as
a canonical pair c * v: a nonzero rational content c (a Fraction that
carries the sign) and a primitive integer coefficient tuple v, lowest
degree first, with gcd 1, a positive leading entry and no trailing zeros.
The zero polynomial is c = 0 with the empty tuple and reports degree -1.
Arithmetic runs on the integers and touches the content once per result:
by Gauss's lemma the product of two primitive vectors is primitive, so a
product needs no gcd; scaling, negation and `monic` change only c; a sum
and each step of `poly_divmod` take one gcd over the integer vector.  The
rational coefficients (:attr:`Polynomial.coefficients`) are built from the
pair on first use.

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
from math import gcd, lcm
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

_set = object.__setattr__


def parse_rational(text: RationalLike) -> Fraction:
    """Parse "num/den" or a bare integer string into a reduced Fraction."""
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _primitive(num: int, den: int, ints: list) -> tuple[Fraction, tuple[int, ...]]:
    """The canonical pair of (num / den) * ints, for any integer list ``ints``
    (consumed) and num, den != 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return Fraction(0), ()
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    return Fraction(num * g, den), tuple(ints)


def _lcm_form(cs: list) -> tuple[int, list]:
    """(d, ints) with cs = ints / d; ``cs`` holds ints and Fractions."""
    d = lcm(*[c.denominator for c in cs])
    return d, [c.numerator * (d // c.denominator) for c in cs]


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients, stored as
    a rational content times a primitive integer vector (see the module
    docstring for the canonical form)."""

    __slots__ = ("_content", "_ints", "_coeffs")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        den, ints = _lcm_form([Fraction(c) for c in coeffs])
        self._fill(*_primitive(1, den, ints))

    def _fill(self, content: Fraction, ints: tuple[int, ...]) -> "Polynomial":
        _set(self, "_content", content)
        _set(self, "_ints", ints)
        _set(self, "_coeffs", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.coefficients,)

    # -- structure ---------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Reduced rational coefficients, lowest degree first."""
        cs = self._coeffs
        if cs is None:
            n, d = self._content.numerator, self._content.denominator
            cs = tuple(Fraction(n * v, d) for v in self._ints)
            _set(self, "_coeffs", cs)
        return cs

    @property
    def content(self) -> Fraction:
        """The rational c with self = c * v for the primitive integer vector v
        with positive leading entry; its sign is the sign of the leading
        coefficient, and it is 0 for the zero polynomial."""
        return self._content

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._ints:
            return Fraction(0)
        return self._content * self._ints[-1]

    @property
    def is_monic(self) -> bool:
        # content * lead == 1 with lead > 0, read off the reduced content
        c = self._content
        return bool(self._ints) and c.numerator == 1 and c.denominator == self._ints[-1]

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i, zero beyond the stored degree."""
        if 0 <= i < len(self._ints):
            return self._content * self._ints[i]
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._ints, other._ints
        if not b:
            return self
        if not a:
            return other
        ca, cb = self._content, other._content
        da, db = ca.denominator, cb.denominator
        den = lcm(da, db)
        ma, mb = ca.numerator * (den // da), cb.numerator * (den // db)
        g = gcd(ma, mb)
        ma, mb = ma // g, mb // g
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [ma * x + mb * y for x, y in zip(a, b)]
        out += [ma * x for x in a[len(b):]]
        return _make(*_primitive(g, den, out))

    def __neg__(self) -> "Polynomial":
        return _make(-self._content, self._ints)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self._ints, other._ints
            if not a or not b:
                return ZERO
            if len(a) < len(b):
                a, b = b, a
            na = len(a)
            out = [0] * (na + len(b) - 1)
            for j, y in enumerate(b):
                if y:
                    out[j:j + na] = [o + x * y for o, x in zip(out[j:j + na], a)]
            # Gauss's lemma: out is primitive again, with a positive lead
            return _make(self._content * other._content, tuple(out))
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        if not other or not self._ints:
            return ZERO
        return _make(self._content * other, self._ints)

    __rmul__ = __mul__

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
        """Horner evaluation in exact rational arithmetic: integer Horner on
        q^n * v(p/q) for x = p/q, one Fraction at the end."""
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        v = self._ints
        if not v:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, qpow = v[-1], 1
        for c in v[-2::-1]:
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(self._content.numerator * acc, self._content.denominator * qpow)

    def eval_float(self, x: float) -> float:
        """Horner evaluation in 64-bit floating point."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + float(c)
        return acc

    def derivative(self) -> "Polynomial":
        v = self._ints
        c = self._content
        return _make(*_primitive(c.numerator, c.denominator, [i * v[i] for i in range(1, len(v))]))

    def monic(self) -> "Polynomial":
        """Divide through by the leading coefficient."""
        if self.is_zero:
            raise DivisionByZeroPolynomial("the zero polynomial has no monic form")
        if self.is_monic:
            return self
        return _make(Fraction(1, self._ints[-1]), self._ints)

    # -- serialization and comparison ---------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as "num/den" strings, lowest degree first."""
        return [format_rational(c) for c in self.coefficients]

    @classmethod
    def from_strings(cls, items: Iterable[RationalLike]) -> "Polynomial":
        return cls(parse_rational(item) for item in items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._ints == other._ints and self._content == other._content

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        cs = self.coefficients
        for i in reversed(range(len(cs))):
            c = cs[i]
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


def _make(content: Fraction, ints: tuple[int, ...]) -> Polynomial:
    """A Polynomial from a pair already in canonical form."""
    return object.__new__(Polynomial)._fill(content, ints)


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def poly_divmod(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact division with remainder: num = quotient * den + remainder,
    deg remainder < deg den.

    Fraction-free on the integer vectors: the running remainder is an
    integer list over one shared denominator, reduced by one vector gcd
    whenever that denominator grows (after the last step, by `_primitive`)."""
    if den.is_zero:
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if num.degree < den.degree:
        return ZERO, num
    d = den._ints
    dn, lead = len(d), d[-1]
    rem = list(num._ints)  # running remainder of the primitive parts: rem / scale
    scale = 1
    quot = [0] * (len(rem) - dn + 1)  # quot[i] / dens[i] is the x^i coefficient
    dens = [1] * len(quot)
    for shift in range(len(rem) - dn, -1, -1):
        top = rem.pop()
        if not top:
            continue
        g = gcd(top, lead)
        m, t = lead // g, top // g  # m * top = t * lead
        quot[shift], dens[shift] = t, scale * m
        if m == 1:
            rem[shift:] = [r - t * w for r, w in zip(rem[shift:], d)]
        else:
            rem = [m * r for r in rem[:shift]] + [m * r - t * w for r, w in zip(rem[shift:], d)]
            scale *= m
            g = gcd(scale, *rem) if shift else 1  # _primitive reduces the last
            if g != 1:
                rem = [r // g for r in rem]
                scale //= g
    cn, cd = num._content, den._content
    qden = lcm(*dens)
    qints = [q * (qden // qd) for q, qd in zip(quot, dens)]
    quotient = _make(*_primitive(cn.numerator * cd.denominator, cn.denominator * cd.numerator * qden, qints))
    return quotient, _make(*_primitive(cn.numerator, cn.denominator * scale, rem))


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
