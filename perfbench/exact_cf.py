"""Workload exact-cf: the exact layers `polynomial`, `jfraction`, `pfraction`
and `numeric_cf`, with no floats.

Chosen because `Fraction` arithmetic on coefficients that grow with the
level (several hundred bits at level 128) sets its time.  The same layer
is used three ways: building (the three-term recurrences, polynomial
multiplication), taking apart (J-/P-fraction expansion, division) and early
rejection (non-interlacing inputs).  Ops per pass, all inputs from the seed:

* random small-rational J-fractions at levels 16 (32 of them), 64, 128:
  `jfraction_to_rational` then `expand_jfraction`, which must give the
  J-fraction back exactly;
* palindromic J-fractions at the same levels: `jfraction_to_rational`
  then `is_palindromic_jfraction`, true by construction;
* `poly_divmod` on both level-128 pairs, and `pell_abel_residual(128)`;
* non-interlacing root sets of degree 8 and 16: `expand_jfraction` must
  raise NotInterlacing;
* monic P-fractions at the same levels, palindromic and not:
  `pfraction_to_rational` then `is_palindromic_pfraction`, whose verdict
  is the construction because every quotient is monic (c^2 = 1);
* `interlacing_check` on lattice-root pairs of degree 8 and 16 and on
  random-rational pairs at levels 8 and 12, interlacing and not;
* a Serret sweep: `is_palindromic_serret` on 24 consecutive coprime
  pairs q < p from a seeded start, checked against a Euclid written here.
  A call takes microseconds, and timings that short vary by a third
  between processes, so the sweep is kept well below half of the ops.

The many level-16 inputs put both the median and the 90th percentile
among level-16 ops (the 90th among `is_palindromic_pfraction`, the
slowest of them), away from the few slow ops at level 64 and 128 and the
interlacing checks, whose cost varies most from seed to seed; those show
in ops_per_ref_s and in their per-layer figures.

The oracles evaluate at an exact rational point with their own Horner
and continued-fraction code, so none reuses the code path it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from palinfrac import jfraction, numeric_cf, pfraction, polynomial
from palinfrac.polynomial import Polynomial
from harness import calibration_loop, expect_error, expect_value, mirror

IMPORTS = "palinfrac"
reference = calibration_loop  # this workload's reference work
REFERENCE_EVERY_S = 0.25
SCALES = {
    "full": {"levels": (16,) * 32 + (64, 128), "lattice": (8, 16), "rational": (8, 12), "pell": 128, "serret": 24},
    "tiny": {"levels": (8, 16), "lattice": (4, 8), "rational": (4, 6), "pell": 16, "serret": 16},
}
SERRET_CHUNK = 8  # sweep pairs per task
X0 = Fraction(100003, 7)  # evaluation point, far beyond every root of the inputs


@dataclass(frozen=True)
class Task:
    kind: str
    size: str
    data: tuple


def small(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def positive(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


# -- polynomials on plain coefficient lists, lowest degree first ----------------


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    out = [x - y for x, y in zip(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return out


def from_roots(roots) -> list:
    out = [Fraction(1)]
    for r in roots:
        out = _mul(out, [-Fraction(r), Fraction(1)])
    return out


def recurrence(a: list, b2: list) -> tuple[list, list]:
    """(Q, P) of the J-fraction a, b2; b2 may hold a non-positive entry."""
    p_prev, p_cur, q_prev, q_cur = [], [Fraction(1)], [Fraction(-1)], []
    for k, ak in enumerate(a):
        factor = [-ak, Fraction(1)]
        coupling = b2[k - 1] if k else Fraction(1)
        p_prev, p_cur = p_cur, _sub(_mul(factor, p_cur), [coupling * c for c in p_prev])
        q_prev, q_cur = q_cur, _sub(_mul(factor, q_cur) if q_cur else [], [coupling * c for c in q_prev])
    return q_cur, p_cur


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _jfraction_value(a, b2, x: Fraction) -> Fraction:
    t = x - a[-1]
    for k in range(len(a) - 2, -1, -1):
        t = x - a[k] - b2[k] / t
    return 1 / t


def _pfraction_value(quotients, x: Fraction) -> Fraction:
    t = _horner(quotients[-1], x)
    for q in reversed(quotients[:-1]):
        t = _horner(q, x) - 1 / t
    return 1 / t


# -- inputs --------------------------------------------------------------------


def build_inputs(seed: int, scale: str = "full") -> list[Task]:
    rng = random.Random(f"exact-cf:{seed}")
    cfg = SCALES[scale]
    tasks = []
    for level in cfg["levels"]:
        a = [small(rng) for _ in range(level)]
        b2 = [positive(rng) for _ in range(level - 1)]
        last = level == cfg["levels"][-1]  # poly_divmod runs on the top-level pairs
        tasks.append(Task("jfraction-roundtrip", f"L{level}", (a, b2, last)))
        a = mirror([small(rng) for _ in range((level + 1) // 2)], level)
        b2 = mirror([positive(rng) for _ in range(level // 2)], level - 1)
        tasks.append(Task("jfraction-palindrome", f"L{level}", (a, b2, last)))
        for palindromic in (True, False):
            quotients = [[small(rng), Fraction(1)] for _ in range(level)]
            if palindromic:
                quotients = mirror(quotients[: (level + 1) // 2], level)
            elif quotients == quotients[::-1]:
                quotients[0] = [quotients[0][0] + 1, Fraction(1)]
            tasks.append(Task("pfraction", f"L{level}", (quotients, palindromic)))
    tasks.append(Task("pell-abel", f"L{cfg['pell']}", (cfg["pell"],)))
    for degree in cfg["lattice"]:
        points = sorted(Fraction(p, 2) for p in rng.sample(range(-48, 49), 2 * degree - 1))
        tasks.append(Task("interlacing", f"d{degree}", (from_roots(points[0::2]), from_roots(points[1::2]), True)))
        # Q keeps one root between P's two smallest and puts the rest above all of P's
        p_roots, q_roots = points[:degree], points[degree:]
        q_roots[0] = (p_roots[0] + p_roots[1]) / 2
        tasks.append(Task("noninterlacing", f"d{degree}", (from_roots(p_roots), from_roots(q_roots))))
    for level in cfg["rational"]:
        a = [small(rng) for _ in range(level)]
        b2 = [positive(rng) for _ in range(level - 1)]
        q, p = recurrence(a, b2)
        tasks.append(Task("interlacing", f"L{level}", (p, q, True)))
        b2[rng.randrange(level - 1)] *= -1
        q, p = recurrence(a, b2)
        tasks.append(Task("interlacing", f"L{level}", (p, q, False)))
    p = rng.randint(50, 400)
    pairs = []
    while len(pairs) < cfg["serret"]:
        pairs.extend((q, p) for q in range(1, p) if math.gcd(q, p) == 1)
        p += 1
    for start in range(0, cfg["serret"], SERRET_CHUNK):
        tasks.append(Task("serret", "", tuple(pairs[start : min(start + SERRET_CHUNK, cfg["serret"])])))
    rng.shuffle(tasks)  # spread each kind over the pass, so host-speed drift hits all alike
    return tasks


# -- oracles -------------------------------------------------------------------


def _bits(poly: Polynomial) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coefficients)


def _rational_check(run, value_at_x0, degree, bits_key=None):
    def check(result):
        q, p = result[0], result[1]
        if not p.is_monic or p.degree != degree or q.degree != degree - 1:
            return f"degrees {q.degree}/{p.degree} or a non-monic P"
        if bits_key:
            run.note_max(bits_key, max(_bits(p), _bits(q)))
        if _horner(q.coefficients, X0) / _horner(p.coefficients, X0) != value_at_x0:
            return "Q/P differs from the continued fraction at x0"
        return None

    return check


def _same_jfraction(a, b2):
    def check(jf):
        if list(jf.a) != a or list(jf.b2) != b2:
            return "expansion differs from the J-fraction it came from"
        return None

    return check


def _jpalindrome_check(a, b2):
    beta = math.prod(b2, start=Fraction(1))

    def check(decision):
        if decision.palindromic is not True:
            return f"verdict {decision.palindromic}, palindromic by construction"
        if list(decision.jfraction.a) != a or list(decision.jfraction.b2) != b2 or decision.beta != beta:
            return "expansion or coupling product differs from the construction"
        return None

    return check


def _cofactor_check(q, p, shift, decision):
    """cofactor * P = Q^2 - shift, tested exactly at x0."""
    lhs = _horner(decision.cofactor.coefficients, X0) * _horner(p.coefficients, X0)
    return lhs == _horner(q.coefficients, X0) ** 2 - shift


def _ppalindrome_check(quotients, palindromic, q, p):
    def check(decision):
        if decision.palindromic != palindromic or decision.termwise_palindromic != palindromic:
            return f"verdict {decision.palindromic}/{decision.termwise_palindromic}, construction {palindromic}"
        if [list(pq.coefficients) for pq in decision.pfraction.partial_quotients] != quotients:
            return "partial quotients differ from the construction"
        if palindromic and not _cofactor_check(q, p, 1, decision):
            return "cofactor * P != Q^2 - 1 at x0"
        return None

    return check


def _divmod_check(num, den):
    def check(result):
        quot, rem = result
        if rem.degree >= den.degree:
            return f"remainder degree {rem.degree} >= {den.degree}"
        for x in (X0, -X0 / 3):
            lhs = _horner(num.coefficients, x)
            if lhs != _horner(quot.coefficients, x) * _horner(den.coefficients, x) + _horner(rem.coefficients, x):
                return "num != quot * den + rem"
        return None

    return check


def _euclid(q: int, p: int) -> list[int]:
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    return terms


def _serret_check(q, p):
    canonical = _euclid(q, p)
    padded = canonical[:-1] + [canonical[-1] - 1, 1]
    form, expansion = None, None
    if canonical == canonical[::-1]:
        form, expansion = "canonical", canonical
    elif padded == padded[::-1]:
        form, expansion = "padded", padded

    def check(decision):
        if decision.palindromic != (form is not None):
            return f"verdict {decision.palindromic} for {q}/{p}, Euclid says {form is not None}"
        if form is not None and (decision.form != form or list(decision.expansion.terms) != expansion):
            return f"witness {decision.form} {decision.expansion} for {q}/{p}"
        return None

    return check


# -- the pass ------------------------------------------------------------------


def _jfraction_task(run, task):
    a, b2, divide = task.data
    level = len(a)
    ok, result = run.op(
        "jfraction.jfraction_to_rational", task.size,
        lambda: jfraction.jfraction_to_rational(jfraction.JFraction(a, b2)),
        expect_value(_rational_check(run, _jfraction_value(a, b2, X0), level, "jfraction.max_coeff_bits")),
    )
    q, p = result[:2] if ok else (None, None)
    if task.kind == "jfraction-roundtrip":
        run.op("jfraction.expand_jfraction", task.size, lambda: jfraction.expand_jfraction(q, p),
               expect_value(_same_jfraction(a, b2)), ok)
    else:
        run.op("jfraction.is_palindromic_jfraction", task.size,
               lambda: jfraction.is_palindromic_jfraction(q, p), expect_value(_jpalindrome_check(a, b2)), ok)
    if divide:
        run.op("polynomial.poly_divmod", task.size, lambda: polynomial.poly_divmod(p, q),
               expect_value(_divmod_check(p, q)), ok)


def _pfraction_task(run, task):
    quotients, palindromic = task.data
    ok, result = run.op(
        "pfraction.pfraction_to_rational", task.size,
        lambda: pfraction.pfraction_to_rational(pfraction.PFraction(Polynomial(c) for c in quotients)),
        expect_value(_rational_check(run, _pfraction_value(quotients, X0), len(quotients))),
    )
    q, p = result if ok else (None, None)
    run.op("pfraction.is_palindromic_pfraction", task.size, lambda: pfraction.is_palindromic_pfraction(q, p),
           expect_value(_ppalindrome_check(quotients, palindromic, q, p)), ok)


def run_task(run, task: Task) -> None:
    with run.task(task.kind):
        if task.kind.startswith("jfraction"):
            _jfraction_task(run, task)
        elif task.kind == "pfraction":
            _pfraction_task(run, task)
        elif task.kind == "pell-abel":
            run.op("polynomial.pell_abel_residual", task.size,
                   lambda: polynomial.pell_abel_residual(task.data[0]),
                   expect_value(lambda r: None if r.coefficients == () else "nonzero Pell-Abel residual"))
        elif task.kind == "noninterlacing":
            p, q = (Polynomial(c) for c in task.data)
            run.op("jfraction.interlacing_check", task.size, lambda: jfraction.interlacing_check(p, q),
                   expect_value(lambda v: None if v is False else f"interlacing_check says {v}"))
            run.op("jfraction.expand_jfraction", task.size, lambda: jfraction.expand_jfraction(q, p),
                   expect_error("NotInterlacing"))
        elif task.kind == "interlacing":
            p, q = Polynomial(task.data[0]), Polynomial(task.data[1])
            expected = task.data[2]
            run.op("jfraction.interlacing_check", task.size, lambda: jfraction.interlacing_check(p, q),
                   expect_value(lambda v: None if v is expected else f"interlacing_check says {v}"))
        else:
            for q, p in task.data:
                run.op("numeric_cf.is_palindromic_serret", task.size,
                       lambda: numeric_cf.is_palindromic_serret(q, p), expect_value(_serret_check(q, p)))


def run_pass(run, tasks: list[Task]) -> None:
    for task in tasks:
        run_task(run, task)
