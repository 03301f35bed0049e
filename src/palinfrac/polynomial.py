"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

``BigRational`` is ``fractions.Fraction``: always stored reduced with a
positive denominator, unbounded precision.  A ``Polynomial`` is stored as
a canonical pair c * v: a nonzero rational content c and a primitive
integer coefficient tuple v, lowest degree first, with gcd 1, a positive
leading entry and no trailing zeros.  c is held as a reduced integer pair
(num, den) with den > 0, so num carries the sign.  The zero polynomial is
c = 0/1 with the empty tuple and reports degree -1.  Arithmetic runs on
the integers alone and touches the content once per result: by Gauss's
lemma the product of two primitive vectors is primitive, so a product
needs no gcd over the vector, only the two cross-gcds of the contents;
scaling, negation and `monic` change only c; a sum takes one gcd over the
integer vector, and `poly_divmod` one per result.  ``Fraction`` objects
appear only at the boundary: `content`, `leading_coefficient`, `coeff`
and the rational coefficients (:attr:`Polynomial.coefficients`, built from
the pair on first use).

Evaluation has one path, exact (:meth:`Polynomial.eval_exact`);
:meth:`Polynomial.eval_float` crosses to 64-bit floating point
explicitly, rounding the exact value at the double x once, so it is
correctly rounded at any degree.

`three_term` runs u_{k+1} = f_k u_k + g_k u_{k-1} over any ring: it gives
the convergents, the J- and P-fraction reconstructions and the Chebyshev
families T_n, U_n.  On Polynomials each step with a scalar g is one fused
integer combination (`_step`): the two products over one common
denominator, summed in one list pass for deg f <= 1, reduced once.  Also
provided: the residual of the Pell-Abel identity
T_n^2 - (x^2 - 1) U_{n-1}^2 = 1, which is the zero polynomial for every n.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import DivisionByZeroPolynomial, OutOfRange

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


def _times(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a / b) * (c / d) in lowest terms for reduced pairs with b, d > 0, by
    the two cross-gcds."""
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _common(an: int, ad: int, bn: int, bd: int) -> tuple[int, int, int, int]:
    """(ma, mb, g, den) with an / ad = ma * g / den and bn / bd = mb * g / den
    for ad, bd > 0: den = lcm(ad, bd) and g = gcd of the two numerators
    over den, so ma and mb are coprime."""
    k = gcd(ad, bd)
    den = ad // k * bd
    ma, mb = an * (bd // k), bn * (ad // k)
    g = gcd(ma, mb)
    return ma // g, mb // g, g, den


def _primitive(num: int, den: int, ints: list) -> tuple[int, int, tuple[int, ...]]:
    """The canonical triple (content num, content den, v) of (num / den) * ints,
    for any integer list ``ints`` (consumed) and num, den != 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return 0, 1, ()
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    num *= g
    g = gcd(num, den)  # the content in lowest terms, with den > 0
    if den < 0:
        g = -g
    return num // g, den // g, tuple(ints)


def _convolve(a: tuple, b: tuple) -> list[int]:
    """The schoolbook product of two nonempty integer vectors."""
    if len(a) < len(b):
        a, b = b, a
    na = len(a)
    out = [0] * (na + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + na] = [o + x * y for o, x in zip(out[j:j + na], a)]
    return out


def _lcm_form(cs: list) -> tuple[int, list]:
    """(d, ints) with cs = ints / d; ``cs`` holds ints and Fractions."""
    d = lcm(*[c.denominator for c in cs])
    return d, [c.numerator * (d // c.denominator) for c in cs]


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients, stored as
    a rational content times a primitive integer vector (see the module
    docstring for the canonical form)."""

    __slots__ = ("_num", "_den", "_ints", "_coeffs")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        den, ints = _lcm_form([c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs])
        self._fill(*_primitive(1, den, ints))

    def _fill(self, num: int, den: int, ints: tuple[int, ...]) -> "Polynomial":
        _set(self, "_num", num)
        _set(self, "_den", den)
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
            n, d = self._num, self._den
            cs = tuple(Fraction(n * v, d) for v in self._ints)
            _set(self, "_coeffs", cs)
        return cs

    @property
    def content(self) -> Fraction:
        """The rational c with self = c * v for the primitive integer vector v
        with positive leading entry; its sign is the sign of the leading
        coefficient, and it is 0 for the zero polynomial."""
        return Fraction(self._num, self._den)

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
        return Fraction(self._num * self._ints[-1], self._den)

    @property
    def is_monic(self) -> bool:
        # content * lead == 1 with lead > 0, read off the reduced content
        return bool(self._ints) and self._num == 1 and self._den == self._ints[-1]

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i, zero beyond the stored degree."""
        if 0 <= i < len(self._ints):
            return Fraction(self._num * self._ints[i], self._den)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._ints, other._ints
        if not b:
            return self
        if not a:
            return other
        ma, mb, g, den = _common(self._num, self._den, other._num, other._den)
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [ma * x + mb * y for x, y in zip(a, b)]
        out += [ma * x for x in a[len(b):]]
        return _make(*_primitive(g, den, out))

    def __neg__(self) -> "Polynomial":
        return _make(-self._num, self._den, self._ints)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self._ints or not other._ints:
                return ZERO
            # Gauss's lemma: the product is primitive again, with a positive lead
            content = _times(self._num, self._den, other._num, other._den)
            return _make(*content, tuple(_convolve(self._ints, other._ints)))
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        if not other or not self._ints:
            return ZERO
        return _make(*_times(self._num, self._den, other.numerator, other.denominator), self._ints)

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
        return Fraction(self._num * acc, self._den * qpow)

    def eval_float(self, x: float) -> float:
        """The exact value at the double x (`eval_exact`), rounded once to a
        double; OutOfRange when it lies past the largest double."""
        try:
            return float(self.eval_exact(x))
        except OverflowError:
            raise OutOfRange(f"the value at {x!r} lies past the largest double") from None

    def derivative(self) -> "Polynomial":
        v = self._ints
        return _make(*_primitive(self._num, self._den, [i * v[i] for i in range(1, len(v))]))

    def monic(self) -> "Polynomial":
        """Divide through by the leading coefficient."""
        if self.is_zero:
            raise DivisionByZeroPolynomial("the zero polynomial has no monic form")
        if self.is_monic:
            return self
        return _make(1, self._ints[-1], self._ints)

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
        return self._ints == other._ints and self._num == other._num and self._den == other._den

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


def _make(num: int, den: int, ints: tuple[int, ...]) -> Polynomial:
    """A Polynomial from a triple already in canonical form."""
    return object.__new__(Polynomial)._fill(num, den, ints)


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def poly_divmod(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact division with remainder: num = quotient * den + remainder,
    deg remainder < deg den.

    Fraction-free pseudo-division on the integer vectors (Knuth, TAOCP 2,
    4.6.1): quotient and remainder are integer lists over one shared
    denominator ``scale``.  Each step cancels the top term with the least
    multiplier m and keeps scale * num = quot * den + rem; `_primitive`
    reduces both results once, at the end."""
    if den.is_zero:
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if num.degree < den.degree:
        return ZERO, num
    d = den._ints
    dn, lead = len(d), d[-1]
    rem = list(num._ints)
    quot = [0] * (len(rem) - dn + 1)
    scale = 1
    for shift in range(len(rem) - dn, -1, -1):
        top = rem.pop()
        if not top:
            continue
        g = gcd(top, lead)
        m, t = lead // g, top // g  # m * top = t * lead
        if m != 1:
            rem = [m * r for r in rem]
            quot = [m * q for q in quot]
            scale *= m
        quot[shift] = t
        rem[shift:] = [r - t * w for r, w in zip(rem[shift:], d)]
    quotient = _make(*_primitive(num._num * den._den, num._den * den._num * scale, quot))
    return quotient, _make(*_primitive(num._num, num._den * scale, rem))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (zero if both inputs are zero)."""
    last = _remainder_chain(a, b)[-1]
    return ZERO if last.is_zero else last.monic()


def _remainder_chain(a: Polynomial, b: Polynomial) -> list[Polynomial]:
    """Signed remainder chain a, b, -rem(a, b), ... without its zero tail, so
    the last element is gcd(a, b) up to a factor.  Each element is scaled by
    a positive rational to content +-1: every sign, and so every Sturm
    sign-change count, is kept while the coefficients stop growing."""
    chain = [_unit_content(a), _unit_content(b)]
    while not chain[-1].is_zero:
        chain.append(_unit_content(-(chain[-2] % chain[-1])))
    chain.pop()
    return chain


def _unit_content(p: Polynomial) -> Polynomial:
    """p times the positive rational 1 / |content(p)|."""
    return _make(1 if p._num > 0 else -1, 1, p._ints) if p._ints else p


def three_term(steps: Iterable[tuple], seed: tuple) -> list:
    """Values u_0, u_1, ..., u_n of u_{k+1} = f_k u_k + g_k u_{k-1}, one pair
    (f_k, g_k) of ``steps`` per k, from ``seed`` = (u_{-1}, u_0); any ring
    works (int, Fraction, float, Polynomial), as only ``*`` and ``+`` are
    used.  When both seeds are Polynomials every step runs through the
    fused `_step`, which gives the same canonical values as
    f_k * u_k + g_k * u_{k-1} with no intermediate Polynomial or Fraction;
    any other seed runs that expression as it stands."""
    prev, cur = seed
    values = [cur]
    if isinstance(prev, Polynomial) and isinstance(cur, Polynomial):
        for f, g in steps:
            prev, cur = cur, _step(f, cur, g, prev)
            values.append(cur)
    else:
        for f, g in steps:
            prev, cur = cur, f * cur + g * prev
            values.append(cur)
    return values


def _step(f, cur: Polynomial, g, prev: Polynomial) -> Polynomial:
    """f * cur + g * prev for Polynomials f, cur, prev and an int or Fraction
    g, as one integer combination: the contents of the two products are
    brought to one common denominator, the integer vectors combined in one
    list pass when deg f <= 1 (schoolbook above), and the sum reduced by one
    `_primitive`.  The canonical form is unique, so this is the very value
    the generic expression gives; that expression still runs when f is not
    a Polynomial, g is not an int or Fraction, or either product is zero."""
    if not (isinstance(f, Polynomial) and isinstance(g, (int, Fraction)) and g
            and f._ints and cur._ints and prev._ints):
        return f * cur + g * prev
    a, b, c = f._ints, cur._ints, prev._ints
    # the contents of f * cur and g * prev (not reduced) over one denominator
    ml, mr, k, den = _common(f._num * cur._num, f._den * cur._den,
                             g.numerator * prev._num, g.denominator * prev._den)
    if len(a) > 2:  # schoolbook: b becomes the integer vector of f * cur
        a, b = (1,), tuple(_convolve(a, b))
    n = max(len(b) + len(a) - 1, len(c))
    b, c = b + (0,) * (n - len(b)), c + (0,) * (n - len(c))
    u = ml * a[0]
    if len(a) == 2:
        v = ml * a[1]
        out = [u * x + v * y + mr * z for x, y, z in zip(b, (0, *b), c)]
    else:
        out = [u * x + mr * z for x, z in zip(b, c)]
    return _make(*_primitive(k, den, out))


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
