"""Finite continued fractions of rationals and the Serret palindrome criterion.

A rational q/p with 0 < q < p and gcd(p, q) = 1 is encoded by the quotient
sequence of the Euclidean algorithm,

    q/p = 1 / (a0 + 1 / (a1 + ... + 1 / aN)),

written here as the term list [a0, ..., aN].  The canonical form ends with
aN >= 2 (it always does when produced by plain Euclidean division); the
padded form rewrites the last term as (aN - 1) + 1/1, appending a trailing
1.  Padding flips the parity of the term count, which is what makes
expansions such as 3/4 = [1, 2, 1] palindromic even though the canonical
[1, 3] is not.

Convergents q_k/p_k are generated with the seeds p_{-1} = 0, p_0 = 1,
q_{-1} = 1, q_0 = 0 by `polynomial.three_term`, so both sequences satisfy
the same difference equation u_{k+1} = a_k u_k + u_{k-1}.  All integers
are arbitrary precision; nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InternalCheckFailed, NotCoprime, OutOfRange
from .polynomial import three_term

__all__ = [
    "NumericCF",
    "ConvergentPair",
    "SerretDecision",
    "expand_euclid",
    "convergents",
    "evaluate",
    "reverse",
    "is_palindromic_serret",
]


@dataclass(frozen=True)
class NumericCF:
    """Term list of a finite continued fraction with value in (0, 1)."""

    terms: tuple[int, ...]

    def __init__(self, terms: Iterable[int]):
        coerced = tuple(int(t) for t in terms)
        if not coerced:
            raise ValueError("a continued fraction needs at least one term")
        if any(t < 1 for t in coerced):
            raise ValueError("all terms must be positive integers")
        if coerced == (1,):
            raise ValueError("[1] evaluates to 1, which is not in (0, 1)")
        object.__setattr__(self, "terms", coerced)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @property
    def is_palindrome(self) -> bool:
        return self.terms == self.terms[::-1]


class ConvergentPair(NamedTuple):
    """Denominator/numerator pair (p_k, q_k); the convergent value is q/p."""

    p: int
    q: int


@dataclass(frozen=True)
class SerretDecision:
    """Outcome of the palindrome criterion for q/p.

    ``sign`` is the s with p | q^2 + s (s = -1 preferred when both work);
    ``form`` and ``expansion`` exhibit the palindromic representation.
    """

    palindromic: bool
    sign: int | None = None
    form: str | None = None
    expansion: NumericCF | None = None


def _validate_pair(q: int, p: int) -> None:
    if q <= 0 or p <= 0 or q >= p:
        raise OutOfRange(f"need 0 < q < p, got q={q}, p={p}")
    g = math.gcd(p, q)
    if g != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {g}")


def expand_euclid(q: int, p: int, form: str = "canonical") -> NumericCF:
    """Continued fraction of q/p from the Euclidean algorithm on (p, q).

    ``form="canonical"`` returns the plain quotient list, whose last term
    is >= 2 whenever the fraction is proper.  ``form="padded"`` replaces
    the last term aN by aN - 1 followed by 1, the equivalent
    representation with one more term.
    """
    _validate_pair(q, p)
    if form not in ("canonical", "padded"):
        raise ValueError(f"form must be 'canonical' or 'padded', got {form!r}")
    terms = []
    a, b = p, q
    while b:
        d, r = divmod(a, b)
        terms.append(d)
        a, b = b, r
    if form == "padded":
        terms[-1] -= 1
        terms.append(1)
    return NumericCF(terms)


def convergents(cf: NumericCF) -> tuple[ConvergentPair, ...]:
    """Pairs (p_k, q_k) for k = 1..N+1 from the three-term recurrences."""
    steps = [(a, 1) for a in cf.terms]
    ps, qs = three_term(steps, (0, 1)), three_term(steps, (1, 0))
    return tuple(map(ConvergentPair, ps[1:], qs[1:]))


def evaluate(cf: NumericCF) -> tuple[int, int]:
    """Value of the fraction as (q, p); the final convergent, already coprime."""
    last = convergents(cf)[-1]
    return (last.q, last.p)


def reverse(cf: NumericCF) -> NumericCF:
    """Terms reversed; evaluates to p_N / p_{N+1} of the original fraction."""
    return NumericCF(cf.terms[::-1])


def is_palindromic_serret(q: int, p: int) -> SerretDecision:
    """Serret's criterion: q/p has a palindromic expansion (canonical or
    padded) exactly when p divides q^2 - 1 or q^2 + 1.

    The decision itself is pure modular arithmetic; when it is positive,
    the witness expansion is located by inspecting the canonical form
    first, then the padded one.
    """
    _validate_pair(q, p)
    if (q * q - 1) % p == 0:
        sign = -1
    elif (q * q + 1) % p == 0:
        sign = +1
    else:
        return SerretDecision(False)
    canonical = expand_euclid(q, p, "canonical")
    if canonical.is_palindrome:
        return SerretDecision(True, sign, "canonical", canonical)
    padded = expand_euclid(q, p, "padded")
    if padded.is_palindrome:
        return SerretDecision(True, sign, "padded", padded)
    raise InternalCheckFailed(
        f"p | q^2{sign:+d} holds for {q}/{p} but neither expansion is palindromic"
    )
