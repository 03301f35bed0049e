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
computes a root.  Each partial quotient is judged on the remainder the
division before it left: one that drops more than one degree (a quotient
of degree >= 2), has a negative leading coefficient (c_k < 0) or vanishes
(a common factor) means the zeros do not strictly interlace.

A J-fraction is palindromic when a_k = a_{N-k} and b_k^2 = b_{N-1-k}^2.
That is equivalent to the exact divisibility of Q^2 - b_0^2...b_{N-1}^2 by
P, the polynomial form of the Serret criterion; `is_palindromic_jfraction`
computes both routes and cross-checks them.

`interlacing_check` is an independent oracle for the interlacing property:
the Cauchy index of Q/P over the whole line is deg P.  The index is at most
the number of distinct real poles, so it reaches deg P exactly when P has
deg P simple real roots x_i, none shared with Q, and every residue
Q(x_i)/P'(x_i) is positive, which is strict interlacing.  By Sturm's
theorem for the Cauchy index it is V(-inf) - V(+inf) on the signed
remainder chain of (P, Q), one chain of degree deg P at unit content, read
off each element's leading sign and degree: no root bound, no evaluation.
The chain divides P by Q with the `poly_divmod` the expansion uses, but
normalizes on its own terms (unit content and a sign count, against exact
remainders and leading-coefficient tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import ne
from typing import Iterable

from .errors import DegreeMismatch, InternalCheckFailed, NotCoprime, NotInterlacing
from .pfraction import _euclid
from .polynomial import ONE, ZERO, Polynomial, format_rational, parse_rational, poly_divmod, three_term
from .polynomial import _remainder_chain

__all__ = [
    "JFraction",
    "JPalindromeDecision",
    "expand_jfraction",
    "jfraction_to_rational",
    "is_palindromic_jfraction",
    "chebyshev_jfraction",
    "interlacing_check",
    "sturm_chain",
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
    off the P-fraction Euclid (`pfraction._euclid`): it exists exactly when
    every partial quotient is p_k = c_k (x - a_k) with c_k > 0, and then
    b_k^2 = 1 / (c_k c_{k+1}), the equivalence transformation that makes
    every level monic.  Proof: for monic P and Q, p_0 = quo(P, Q) = x - a_0.
    Division k, of N_k by D_k, leaves the next divisor R_k = p_k D_k - N_k;
    quo(D_k, R_k) is linear iff deg R_k = deg D_k - 1, and its c_{k+1} =
    lead(D_k) / lead(R_k) > 0 iff lead(R_k) > 0, as lead(D_k) = lead(R_{k-1})
    > 0.  So quotient k + 1 is judged on R_k, without dividing again.  A
    level P = (x - a) Q - b^2 R with R monic has R_0 = b^2 R, so c_1 = 1 / b^2.
    Hence a zero R_k is NotCoprime, an R_k that drops more than one degree
    means a next quotient of degree >= 2, and a coupling b^2 <= 0 means
    lead(R_k) < 0; all three are reported as NotInterlacing.
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
        for k, (quotient, remainder) in enumerate(_euclid(Q, P)):
            c = quotient.leading_coefficient
            a_terms.append(-quotient.coeff(0) / c)
            scales.append(c)
            lead = remainder.leading_coefficient
            if not remainder.is_zero and (remainder.degree != P.degree - k - 2 or lead <= 0):
                raise NotInterlacing(
                    f"partial quotient {k + 1} is not c (x - a) with c > 0: the remainder of "
                    f"division {k} has degree {remainder.degree} and leading coefficient {lead}"
                )
    except NotCoprime as exc:
        raise NotInterlacing(str(exc)) from exc
    return JFraction(a_terms, (1 / (c * d) for c, d in zip(scales, scales[1:])))


def jfraction_to_rational(jf: JFraction) -> tuple[Polynomial, Polynomial, tuple[list, list]]:
    """Run the three-term recurrences; returns (Q_{N+1}, P_{N+1}, (Ps, Qs))
    with Ps[k] = P_k and Qs[k] = Q_k for k = 0..N+1."""
    steps = [(Polynomial((-a, 1)), -b2) for a, b2 in zip(jf.a, (1,) + jf.b2)]  # x - a_k; b_{-1} = 1
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
    else:
        b2 = (half,) + (quarter,) * (n - 2) + (half,)
    return JFraction((Fraction(0),) * (n + 1), b2)


# -- Sturm-chain machinery ---------------------------------------------------


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Signed-remainder chain p, p', -rem(p, p'), ... at content +-1 with
    every sign kept (`polynomial._remainder_chain`).  Root counts derived
    from it are exact for squarefree p, and for any p on an interval whose
    ends are not roots of p."""
    return _remainder_chain(p, p.derivative())


def interlacing_check(P: Polynomial, Q: Polynomial) -> bool:
    """Independent interlacing oracle: the Cauchy index of Q/P.

    True iff P and Q (monic, deg P = deg Q + 1 = n) have real, simple,
    strictly interlacing roots, which holds iff the Cauchy index of Q/P
    over the whole line is n (`_cauchy_index`).  The index sums +-1 over
    the real poles of Q/P where it jumps from -inf to +inf or back, so it
    is at most the number of distinct real poles, itself at most n.  It is
    n iff P has n simple real roots x_i, Q shares none of them, and every
    residue Q(x_i)/P'(x_i) is positive; for monic P and Q of degrees n and
    n - 1 that is strict interlacing.  One chain of degree n decides it.

    The chain divides P by Q through `poly_divmod`, which `expand_jfraction`
    also runs (via `pfraction._euclid`), so the two routes share the
    division kernel.  They still normalize independently: here every
    remainder is brought to unit content and only signs are counted, where
    the expansion keeps exact remainders and tests each leading coefficient.
    """
    n = P.degree
    if not (P.is_monic and Q.is_monic) or n != Q.degree + 1 or n < 1:
        raise DegreeMismatch("interlacing_check needs monic P, Q with deg P = deg Q + 1 >= 1")
    return _cauchy_index(P, Q) == n


def _cauchy_index(p: Polynomial, q: Polynomial) -> int:
    """Cauchy index of q/p over the whole line: V(-inf) - V(+inf) on the
    signed remainder chain of (p, q) (Sturm's theorem for the Cauchy index;
    Basu, Pollack & Roy 2006, Thm 2.58), where each element has the sign of
    its content at +inf and that sign times (-1)^degree at -inf: no root
    bound, no evaluation."""
    chain = _remainder_chain(p, q)
    at_plus = [e.content > 0 for e in chain]
    at_minus = [s != (e.degree % 2 == 1) for s, e in zip(at_plus, chain)]
    return sum(map(ne, at_minus, at_minus[1:])) - sum(map(ne, at_plus, at_plus[1:]))
