"""General polynomial continued fractions with the minus-sign convention.

A proper rational function Q/P (deg Q < deg P, both nonzero) expands as

    Q/P = 1 / (p_0 - 1 / (p_1 - ... - 1 / p_N)),

where each partial quotient p_k is a polynomial division quotient: one
Euclidean step maps the pair (Q, P) to (p Q - P, Q) with p = quo(P, Q) and
the expansion stops when the new remainder vanishes.  Every partial
quotient of such a canonical expansion has degree >= 1 and the quotient
list is unique.  This one Euclid loop (`_euclid`) also expands
J-fractions: a J-fraction is the P-fraction whose partial quotients are
all linear, c_k (x - a_k) with c_k > 0, brought to monic form (see
`jfraction.expand_jfraction`).

Reconstruction (`polynomial.three_term`) runs P_{k+1} = p_k P_k - P_{k-1} and
Q_{k+1} = p_k Q_k - Q_{k-1} from the seeds P_{-1} = 0, P_0 = 1,
Q_{-1} = -1, Q_0 = 0; the Wronskian P_{k+1} Q_k - P_k Q_{k+1} = -1 holds
identically, so the reconstructed pair is coprime and equals
(c Q, c P) where c is the product of the partial quotients' leading
coefficients.

`is_palindromic_pfraction` decides the exact divisibility of Q^2 - 1 by P,
the polynomial-ring form of the Serret criterion.  On the raw
reconstruction, divisibility is equivalent to the identity
Q_{N+1} = c^2 * P_N, which the implementation cross-checks.  Term-wise
palindromicity of the quotient list coincides with the verdict exactly
when c^2 = 1, in particular whenever every quotient is monic.  For
c^2 != 1 the notions genuinely diverge in both directions: the expansion
of (x^2 - 1/2)/(x^3 - x) is [x, 2x, x], palindromic with c = 2, yet the
pair fails the divisibility; conversely a divisible pair need only have a
quotient list that is palindromic up to an alternating rescaling by c^2.
The decision therefore reports the divisibility verdict and the term-wise
flag separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DegreeError, InternalCheckFailed, NotCoprime
from .polynomial import ONE, ZERO, Polynomial, poly_divmod, three_term

__all__ = [
    "PFraction",
    "PPalindromeDecision",
    "expand_pfraction",
    "pfraction_to_rational",
    "is_palindromic_pfraction",
]


@dataclass(frozen=True)
class PFraction:
    """Partial quotient list p_0..p_N; no entry is the zero polynomial."""

    partial_quotients: tuple[Polynomial, ...]

    def __init__(self, partial_quotients: Iterable[Polynomial]):
        quotients = tuple(partial_quotients)
        if not quotients:
            raise ValueError("a P-fraction needs at least one partial quotient")
        if any(p.is_zero for p in quotients):
            raise ValueError("partial quotients must be nonzero")
        object.__setattr__(self, "partial_quotients", quotients)

    def __len__(self) -> int:
        return len(self.partial_quotients)

    @property
    def is_palindromic(self) -> bool:
        return self.partial_quotients == self.partial_quotients[::-1]

    def to_json_obj(self) -> dict:
        return {"partial_quotients": [p.to_strings() for p in self.partial_quotients]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PFraction":
        return cls(Polynomial.from_strings(item) for item in obj["partial_quotients"])


@dataclass(frozen=True)
class PPalindromeDecision:
    """Verdict of the polynomial-ring palindrome criterion for monic Q/P.

    ``palindromic`` is the divisibility verdict P | Q^2 - 1 with
    ``cofactor`` = (Q^2 - 1) / P as witness; ``termwise_palindromic``
    reports whether the canonical quotient list itself reads the same
    reversed (equivalent to the verdict exactly when the reconstruction
    scale c satisfies c^2 = 1).
    """

    palindromic: bool
    cofactor: Polynomial | None
    termwise_palindromic: bool
    pfraction: PFraction


def _euclid(Q: Polynomial, P: Polynomial) -> Iterator[tuple[Polynomial, Polynomial]]:
    """Partial quotients p_k of Q/P, yielded one Euclidean step at a time
    with the next divisor R_k = p_k D_k - N_k (minus the remainder of N_k by
    D_k), so a caller can stop at the first step it rejects.

    Raises NotCoprime when a remainder vanishes while the divisor still
    has positive degree (nonconstant gcd), DegreeError for an improper or
    degenerate input pair.  Unlike `polynomial._remainder_chain` it keeps
    each remainder exact: a factor on it would scale the quotients after it.
    """
    if P.is_zero or Q.is_zero:
        raise DegreeError("both polynomials must be nonzero")
    if Q.degree >= P.degree:
        raise DegreeError(f"need deg Q < deg P, got {Q.degree} >= {P.degree}")
    num, den = Q, P
    while True:
        quotient, remainder = poly_divmod(den, num)
        following = -remainder  # quotient * num - den
        yield quotient, following
        if remainder.is_zero:
            if num.degree >= 1:
                raise NotCoprime(
                    f"gcd has positive degree {num.degree}; the pair is not coprime"
                )
            return
        num, den = following, num


def expand_pfraction(Q: Polynomial, P: Polynomial) -> PFraction:
    """Partial quotients of Q/P from the Euclidean algorithm; raises
    NotCoprime or DegreeError as `_euclid` does."""
    return PFraction(quotient for quotient, _ in _euclid(Q, P))


def _reconstruct_raw(pf: PFraction) -> tuple[list[Polynomial], list[Polynomial]]:
    """Sequences P_0..P_{N+1} and Q_0..Q_{N+1} of the recurrence, P_k and
    Q_k at index k."""
    steps = [(quotient, -1) for quotient in pf.partial_quotients]
    return three_term(steps, (ZERO, ONE)), three_term(steps, (-ONE, ZERO))


def pfraction_to_rational(pf: PFraction) -> tuple[Polynomial, Polynomial]:
    """Value of the fraction as a pair (Q, P), normalized so P is monic.

    Round-trips with `expand_pfraction` up to that overall rational
    scaling; for a fraction expanded from a monic pair the round trip is
    the identity.
    """
    ps, qs = _reconstruct_raw(pf)
    lead = ps[-1].leading_coefficient
    inverse = 1 / lead
    return inverse * qs[-1], inverse * ps[-1]


def is_palindromic_pfraction(Q: Polynomial, P: Polynomial) -> PPalindromeDecision:
    """Decide whether P divides Q^2 - 1 exactly, for monic Q, P.

    The verdict is cross-checked against the reconstruction identity
    Q_{N+1} = c^2 * P_N of the canonical expansion (c = product of the
    quotients' leading coefficients), which characterizes divisibility;
    the term-wise palindrome flag of the quotient list is reported
    alongside, since the two coincide only when c^2 = 1.
    """
    if not (P.is_monic and Q.is_monic):
        raise DegreeError("the palindrome criterion is stated for monic Q and P")
    pf = expand_pfraction(Q, P)
    quotient, remainder = poly_divmod(Q * Q - ONE, P)
    divisible = remainder.is_zero
    ps, qs = _reconstruct_raw(pf)
    scale = ps[-1].leading_coefficient
    identity_holds = qs[-1] == (scale * scale) * ps[-2]
    if divisible != identity_holds:
        raise InternalCheckFailed(
            f"divisibility ({divisible}) disagrees with the reconstruction "
            f"identity ({identity_holds})"
        )
    return PPalindromeDecision(
        divisible, quotient if divisible else None, pf.is_palindromic, pf
    )
