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
interlacing; the expansion below is pure coefficient arithmetic, one
division level at a time, and never computes a root.  A non-positive
coupling or a remainder of the wrong degree is the arithmetic signature of
non-interlacing zeros.

A J-fraction is palindromic when a_k = a_{N-k} and b_k^2 = b_{N-1-k}^2.
That is equivalent to the exact divisibility of Q^2 - b_0^2...b_{N-1}^2 by
P, the polynomial form of the Serret criterion; `is_palindromic_jfraction`
computes both routes and cross-checks them.

`interlacing_check` is an independent oracle for the interlacing property
built on Sturm-chain root counting over exact rationals: it verifies that
P and Q are real-rooted with simple roots and that exactly one root of P
falls in every interval cut by consecutive roots of Q, outer intervals
included.  Root counting uses the signed-remainder chain on half-open
intervals (lo, hi].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    DegreeMismatch,
    InternalCheckFailed,
    NotInterlacing,
    RemainderDegreeDrop,
    ZeroRemainder,
)
from .polynomial import ONE, X, ZERO, Polynomial, format_rational, parse_rational, poly_divmod, poly_gcd, three_term

__all__ = [
    "JFraction",
    "JPalindromeDecision",
    "jstep",
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


def jstep(P: Polynomial, Q: Polynomial) -> tuple[Fraction, Fraction, Polynomial]:
    """One division level: write P = (x - a) Q - b2 * R with R monic of
    degree deg P - 2.

    ``a`` comes from matching the x^(n-1) coefficient, which is the Vieta
    value (sum of the roots of P) - (sum of the roots of Q); ``b2`` is the
    leading coefficient of (x - a) Q - P and may come out negative, the
    caller decides what a non-positive coupling means.  Requires monic
    inputs with deg P = deg Q + 1 >= 2.
    """
    n = P.degree
    if not (P.is_monic and Q.is_monic) or n != Q.degree + 1 or n < 2:
        raise DegreeMismatch(
            f"jstep needs monic P, Q with deg P = deg Q + 1 >= 2, got deg {n} and {Q.degree}"
        )
    a = Q.coeff(n - 2) - P.coeff(n - 1)
    rem = (X - Polynomial((a,))) * Q - P
    if rem.is_zero:
        raise ZeroRemainder(f"P = (x - {a}) Q exactly; the pair is not coprime")
    if rem.degree < n - 2:
        raise RemainderDegreeDrop(
            f"remainder degree {rem.degree} < {n - 2}; no monic R of the required degree"
        )
    b2 = rem.leading_coefficient
    return a, b2, rem.monic()


def expand_jfraction(Q: Polynomial, P: Polynomial) -> JFraction:
    """Expand Q/P into a J-fraction, or raise NotInterlacing.

    Inputs must be monic with deg P = deg Q + 1.  The expansion iterates
    `jstep`; a non-positive coupling, a vanished remainder, or a remainder
    degree drop all certify that the zeros of P and Q are not real and
    strictly interlacing.
    """
    if not (P.is_monic and Q.is_monic):
        raise DegreeMismatch("expand_jfraction needs monic P and Q")
    if P.degree != Q.degree + 1:
        raise DegreeMismatch(
            f"need deg P = deg Q + 1, got deg P = {P.degree}, deg Q = {Q.degree}"
        )
    a_terms: list[Fraction] = []
    b2_terms: list[Fraction] = []
    cur_p, cur_q = P, Q
    while cur_p.degree >= 2:
        try:
            a, b2, rest = jstep(cur_p, cur_q)
        except (ZeroRemainder, RemainderDegreeDrop) as exc:
            raise NotInterlacing(str(exc)) from exc
        if b2 <= 0:
            raise NotInterlacing(f"non-positive coupling b^2 = {b2} at level {len(a_terms)}")
        a_terms.append(a)
        b2_terms.append(b2)
        cur_p, cur_q = cur_q, rest
    # cur_p = x - a_N and cur_q is the monic constant 1
    a_terms.append(-cur_p.coeff(0))
    return JFraction(a_terms, b2_terms)


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
    """Signed-remainder chain p, p', -rem(p, p'), ...; the zero tail is dropped.

    Root counts derived from it are exact for squarefree p.
    """
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


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


def _isolate_roots(chain: list[Polynomial], lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals, in increasing order, each holding exactly
    one root of the squarefree polynomial behind ``chain``."""
    count = count_real_roots(chain, lo, hi)
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    return _isolate_roots(chain, lo, mid) + _isolate_roots(chain, mid, hi)


def _shrink_off(
    chain_owner: list[Polynomial],
    chain_other: list[Polynomial],
    lo: Fraction,
    hi: Fraction,
) -> tuple[Fraction, Fraction]:
    """Narrow an isolating interval of ``chain_owner``'s root until it holds
    no root of the other polynomial (possible whenever the two are coprime)."""
    while count_real_roots(chain_other, lo, hi) > 0:
        mid = (lo + hi) / 2
        if count_real_roots(chain_owner, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def interlacing_check(P: Polynomial, Q: Polynomial) -> bool:
    """Independent interlacing oracle via exact Sturm root counting.

    True iff P and Q (monic, deg P = deg Q + 1) are both real-rooted with
    simple roots, share no root, and exactly one root of P lies in each of
    the deg P intervals cut by the roots of Q (the two unbounded ones
    included).
    """
    n = P.degree
    if not (P.is_monic and Q.is_monic) or n != Q.degree + 1 or n < 1:
        raise DegreeMismatch("interlacing_check needs monic P, Q with deg P = deg Q + 1 >= 1")
    if n == 1:
        return True  # Q = 1 has no roots; a single real root of P is trivially fine
    if poly_gcd(P, Q).degree > 0:
        return False  # a common root breaks strict interlacing
    if poly_gcd(P, P.derivative()).degree > 0 or poly_gcd(Q, Q.derivative()).degree > 0:
        return False  # repeated roots break strict interlacing
    bound = max(cauchy_root_bound(P), cauchy_root_bound(Q))
    chain_p = sturm_chain(P)
    chain_q = sturm_chain(Q)
    if count_real_roots(chain_p, -bound, bound) != n:
        return False
    if count_real_roots(chain_q, -bound, bound) != n - 1:
        return False
    boxes = _isolate_roots(chain_q, -bound, bound)
    for i, (lo, hi) in enumerate(boxes, start=1):
        lo, hi = _shrink_off(chain_q, chain_p, lo, hi)
        # every root of P below this box endpoint is below the i-th root of Q
        if count_real_roots(chain_p, -bound, lo) != i:
            return False
    return True
