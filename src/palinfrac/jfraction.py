"""Jacobi continued fractions of proper rational functions.

A J-fraction with diagonal values a_0..a_N and positive squared couplings
b_0^2..b_{N-1}^2 is the nested fraction

    1 / (x - a_0 - b_0^2 / (x - a_1 - ... - b_{N-1}^2 / (x - a_N))).

Clearing it yields a monic pair (Q, P) = (Q_{N+1}, P_{N+1}) through the
polynomial three-term recurrences

    P_{k+1} = (x - a_k) P_k - b_{k-1}^2 P_{k-1},
    Q_{k+1} = (x - a_k) Q_k - b_{k-1}^2 Q_{k-1},

seeded with P_{-1} = 0, P_0 = 1, Q_{-1} = -1, Q_0 = 0 and the convention
b_{-1} = 1.  Conversely a monic pair with deg P = deg Q + 1 expands into a
J-fraction exactly when the zeros of P and Q are real and strictly
interlacing.  A J-fraction is the linear case of a P-fraction: the
Euclidean expansion of Q/P (`pfraction`) has partial quotients
c_k (x - a_k) with every c_k > 0, and b_k^2 = 1 / (c_k c_{k+1}) makes
every level monic.  The expansion is pure coefficient arithmetic and never
computes a root.  Its failure signatures are a partial quotient of degree
>= 2 (a remainder dropped degree), one with c_k <= 0 (a non-positive
coupling) and a vanished remainder (a common factor); each means the zeros
do not strictly interlace.

A J-fraction is palindromic when a_k = a_{N-k} and b_k^2 = b_{N-1-k}^2.
That is equivalent to the exact divisibility of Q^2 - b_0^2...b_{N-1}^2 by
P, the polynomial form of the Serret criterion; `is_palindromic_jfraction`
computes both routes and cross-checks them.

`interlacing_check` is an independent oracle for the interlacing property
built on two exact Sturm root counts over the whole line: P has deg P
distinct real roots and the Wronskian W = P'Q - PQ' has no real root.
Then W > 0 (leading coefficient 1), so every residue Q(x_i)/P'(x_i) =
W(x_i)/P'(x_i)^2 of Q/P is positive, which is strict interlacing;
conversely interlacing gives W = P^2 * sum r_i/(x - x_i)^2 > 0.  Root
counting uses the signed-remainder chain, each remainder scaled by a
positive rational to content +-1, on half-open intervals (lo, hi].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegreeMismatch, InternalCheckFailed, NotCoprime, NotInterlacing
from .pfraction import _euclid
from .polynomial import ONE, X, ZERO, Polynomial, format_rational, parse_rational, poly_divmod, three_term

__all__ = [
    "JFraction",
    "JPalindromeDecision",
    "expand_jfraction",
    "jfraction_to_rational",
    "is_palindromic_jfraction",
    "chebyshev_jfraction",
    "interlacing_check",
    "sturm_chain",
    "count_real_roots",
    "cauchy_root_bound",
]


@dataclass(frozen=True)
class JFraction:
    """Diagonal values a_0..a_N and squared couplings b_0^2..b_{N-1}^2."""

    a: tuple[Fraction, ...]
    b2: tuple[Fraction, ...]

    def __init__(self, a: Iterable, b2: Iterable):
        a = tuple(Fraction(v) for v in a)
        b2 = tuple(Fraction(v) for v in b2)
        if not a:
            raise ValueError("a J-fraction needs at least one diagonal value")
        if len(b2) != len(a) - 1:
            raise ValueError(f"need len(b2) = len(a) - 1, got {len(b2)} vs {len(a)}")
        if any(v <= 0 for v in b2):
            raise ValueError("squared couplings must be strictly positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b2", b2)

    @property
    def is_palindromic(self) -> bool:
        return self.a == self.a[::-1] and self.b2 == self.b2[::-1]

    def to_json_obj(self) -> dict:
        return {
            "a": [format_rational(v) for v in self.a],
            "b2": [format_rational(v) for v in self.b2],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "JFraction":
        return cls(
            (parse_rational(v) for v in obj["a"]),
            (parse_rational(v) for v in obj["b2"]),
        )


@dataclass(frozen=True)
class JPalindromeDecision:
    """Palindromicity verdict with the divisibility witness.

    ``beta`` is the coupling product b_0^2...b_{N-1}^2; when palindromic,
    ``cofactor`` is the exact quotient (Q^2 - beta) / P.
    """

    palindromic: bool
    beta: Fraction
    cofactor: Polynomial | None
    jfraction: JFraction


def expand_jfraction(Q: Polynomial, P: Polynomial) -> JFraction:
    """Expand Q/P into a J-fraction, or raise NotInterlacing at the first
    level that shows the zeros of P and Q do not strictly interlace.

    Inputs must be monic with deg P = deg Q + 1.  The J-fraction is read
    off the partial quotients of the P-fraction Euclid (`pfraction._euclid`):
    it exists exactly when every quotient is p_k = c_k (x - a_k) with
    c_k > 0, and then b_k^2 = 1 / (c_k c_{k+1}), the equivalence
    transformation that makes every level monic.  Proof: for monic P and Q,
    c_0 = 1.  A level P = (x - a) Q - b^2 R with R monic is
    divmod(P, Q) = (x - a, -b^2 R), so the next quotient, of Q by b^2 R,
    has c = 1 / b^2.  Hence a zero remainder is NotCoprime, a remainder that
    drops degree shows up as a next quotient of degree >= 2, and a coupling
    b^2 <= 0 as some c_k <= 0; all three are reported as NotInterlacing.
    """
    if not (P.is_monic and Q.is_monic):
        raise DegreeMismatch("expand_jfraction needs monic P and Q")
    if P.degree != Q.degree + 1:
        raise DegreeMismatch(
            f"need deg P = deg Q + 1, got deg P = {P.degree}, deg Q = {Q.degree}"
        )
    a_terms: list[Fraction] = []
    scales: list[Fraction] = []
    try:
        for k, quotient in enumerate(_euclid(Q, P)):
            c = quotient.leading_coefficient
            if quotient.degree != 1 or c <= 0:
                raise NotInterlacing(
                    f"partial quotient {k} has degree {quotient.degree} and leading "
                    f"coefficient {c}, not c (x - a) with c > 0"
                )
            a_terms.append(-quotient.coeff(0) / c)
            scales.append(c)
    except NotCoprime as exc:
        raise NotInterlacing(str(exc)) from exc
    return JFraction(a_terms, (1 / (c * d) for c, d in zip(scales, scales[1:])))


def jfraction_to_rational(jf: JFraction) -> tuple[Polynomial, Polynomial, tuple[list, list]]:
    """Run the three-term recurrences; returns (Q_{N+1}, P_{N+1}, (Ps, Qs))
    with Ps[k] = P_k and Qs[k] = Q_k for k = 0..N+1."""
    steps = [(X - Polynomial((a,)), -b2) for a, b2 in zip(jf.a, (1,) + jf.b2)]  # b_{-1} = 1
    ps, qs = three_term(steps, (ZERO, ONE)), three_term(steps, (-ONE, ZERO))
    return qs[-1], ps[-1], (ps, qs)


def is_palindromic_jfraction(Q: Polynomial, P: Polynomial) -> JPalindromeDecision:
    """Decide palindromicity of the J-fraction of Q/P two ways and cross-check.

    Route one reads the expanded coefficient sequences; route two tests
    the exact divisibility of Q^2 - b_0^2...b_{N-1}^2 by P.  The routes
    agree identically; a mismatch raises InternalCheckFailed.
    """
    jf = expand_jfraction(Q, P)
    by_terms = jf.is_palindromic
    beta = Fraction(1)
    for v in jf.b2:
        beta *= v
    quotient, remainder = poly_divmod(Q * Q - Polynomial((beta,)), P)
    by_division = remainder.is_zero
    if by_terms != by_division:
        raise InternalCheckFailed(
            f"coefficient palindromicity ({by_terms}) disagrees with divisibility ({by_division})"
        )
    return JPalindromeDecision(by_division, beta, quotient if by_division else None, jf)


def chebyshev_jfraction(n: int) -> JFraction:
    """Closed-form J-fraction of the monic-normalized pair
    (T_n, (x^2 - 1) U_{n-1}).

    All n + 1 diagonal values are 0.  For n >= 2 the couplings are
    [1/2, 1/4, ..., 1/4, 1/2] (n entries, interior all 1/4); n = 1 falls
    outside that pattern: x / (x^2 - 1) expands with the single coupling
    b^2 = 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    if n == 1:
        b2: tuple[Fraction, ...] = (Fraction(1),)
    elif n == 2:
        b2 = (half, half)
    else:
        b2 = (half,) + (quarter,) * (n - 2) + (half,)
    return JFraction((Fraction(0),) * (n + 1), b2)


# -- Sturm-chain machinery ---------------------------------------------------


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Signed-remainder chain p, p', -rem(p, p'), ... up to positive factors;
    the zero tail is dropped.

    Each element is scaled by a positive rational to content +-1 (its
    primitive integer vector, sign kept), which leaves every sign and so
    every sign-change count unchanged while the coefficients stop growing.
    Root counts derived from it are exact for squarefree p, and for any p
    on an interval whose ends are not roots of p.
    """
    chain = [_unit_content(p), _unit_content(p.derivative())]
    while not chain[-1].is_zero:
        chain.append(_unit_content(-(chain[-2] % chain[-1])))
    chain.pop()
    return chain


def _unit_content(p: Polynomial) -> Polynomial:
    """p times the positive rational 1 / |content(p)|."""
    return p * (1 / abs(p.content)) if p.content else p


def _sign_changes(chain: list[Polynomial], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = poly.eval_exact(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(chain: list[Polynomial], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the half-open interval (lo, hi]."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """B = 1 + max |c_i| / |lead|; every root of p lies strictly inside (-B, B)."""
    lead = abs(p.leading_coefficient)
    body = p.coefficients[:-1]
    if not body:
        return Fraction(1)
    return 1 + max(abs(c) for c in body) / lead


def interlacing_check(P: Polynomial, Q: Polynomial) -> bool:
    """Independent interlacing oracle: two exact Sturm root counts.

    True iff P and Q (monic, deg P = deg Q + 1) have real, simple, strictly
    interlacing roots, which holds iff P has deg P distinct real roots and
    the Wronskian W = P'Q - PQ' has no real root.  If P has simple real
    roots x_i and W has none, then W > 0 (its leading coefficient is
    n - (n - 1) = 1), so every residue Q(x_i)/P'(x_i) = W(x_i)/P'(x_i)^2 of
    Q/P is positive, which is strict interlacing; conversely interlacing
    gives W = P^2 * sum r_i/(x - x_i)^2 > 0 with all r_i > 0.  A shared or
    repeated root makes W vanish at a real point.  Euclid runs only on
    (P, P') and (W, W'); P is never divided by Q.
    """
    n = P.degree
    if not (P.is_monic and Q.is_monic) or n != Q.degree + 1 or n < 1:
        raise DegreeMismatch("interlacing_check needs monic P, Q with deg P = deg Q + 1 >= 1")
    W = P.derivative() * Q - P * Q.derivative()
    return _real_root_count(P) == n and _real_root_count(W) == 0


def _real_root_count(p: Polynomial) -> int:
    """Distinct real roots of p, all of which lie in (-B, B]."""
    bound = cauchy_root_bound(p)
    return count_real_roots(sturm_chain(p), -bound, bound)
