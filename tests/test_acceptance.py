"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from genutil import (
    interlacing_pair,
    noninterlacing_pair,
    perturb_asymmetric,
    random_jfraction,
    random_nonpalindromic_jfraction,
    random_palindromic_jfraction,
    random_persymmetric,
)
from palinfrac.errors import NotInterlacing, NotPersymmetric
from palinfrac.jacobi import (
    Spectrum,
    eigenvalues,
    from_jfraction,
    normalized_poly_sequence,
)
from palinfrac.jfraction import (
    chebyshev_jfraction,
    expand_jfraction,
    interlacing_check,
    is_palindromic_jfraction,
    jfraction_to_rational,
)
from palinfrac.numeric_cf import convergents, expand_euclid, is_palindromic_serret
from palinfrac.pfraction import expand_pfraction, is_palindromic_pfraction
from palinfrac.polynomial import (
    Polynomial,
    chebyshev_t,
    chebyshev_u,
    pell_abel_residual,
)
from palinfrac.pst import design_persymmetric, evolve, fidelity, verify_pst

X2M1 = Polynomial((-1, 0, 1))
SWEEP_LIMIT = 500


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


@pytest.fixture(scope="module")
def serret_sweep():
    """One pass over all coprime pairs with p <= 500: palindrome oracle
    agreement and the exact Wronskian identity, for both expansion forms."""
    start = time.perf_counter()
    mismatches = []
    wronskian_failures = []
    for p in range(2, SWEEP_LIMIT + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            canonical = expand_euclid(q, p, "canonical")
            padded = expand_euclid(q, p, "padded")
            direct = canonical.is_palindrome or padded.is_palindrome
            if is_palindromic_serret(q, p).palindromic != direct:
                mismatches.append((q, p))
            for cf in (canonical, padded):
                pairs = convergents(cf)
                ps = [0, 1] + [c.p for c in pairs]
                qs = [1, 0] + [c.q for c in pairs]
                for k in range(len(pairs)):
                    if ps[k + 2] * qs[k + 1] - ps[k + 1] * qs[k + 2] != (-1) ** (k + 1):
                        wronskian_failures.append((q, p, k))
    elapsed = time.perf_counter() - start
    return elapsed, mismatches, wronskian_failures


def test_criterion_01_serret_oracle_sweep(serret_sweep):
    elapsed, mismatches, _ = serret_sweep
    ok = not mismatches and elapsed < 5.0
    report(
        1,
        "Serret criterion agrees with direct palindrome inspection, p <= 500",
        ok,
        f"{elapsed:.2f} s, {len(mismatches)} mismatches",
    )


def test_criterion_02_wronskian_identity(serret_sweep):
    _, _, failures = serret_sweep
    report(
        2,
        "Wronskian p_(k+1) q_k - p_k q_(k+1) = (-1)^(k+1) exactly over the sweep",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_03_chebyshev_closed_form():
    start = time.perf_counter()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    ok = True
    for n in range(2, 31):
        q = chebyshev_t(n).monic()
        p = (X2M1 * chebyshev_u(n - 1)).monic()
        jf = expand_jfraction(q, p)
        expected_b2 = (half,) + (quarter,) * (n - 2) + (half,) if n > 2 else (half, half)
        if jf.a != (Fraction(0),) * (n + 1) or jf.b2 != expected_b2:
            ok = False
            break
        if jf != chebyshev_jfraction(n):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(
        3,
        "Chebyshev ratio expands to zeros over [1/2, 1/4, ..., 1/4, 1/2], n = 2..30",
        ok and elapsed < 10.0,
        f"{elapsed:.2f} s",
    )


def test_criterion_04_pell_abel_identity():
    ok = all(pell_abel_residual(n).is_zero for n in range(1, 31))
    report(4, "Pell-Abel residual is the zero polynomial, n = 1..30", ok)


def test_criterion_05_liouville_ostrogradski():
    rng = random.Random(1005)
    ok = True
    for _ in range(200):
        jf = random_jfraction(rng, max_n=8)
        _, _, (Ps, Qs) = jfraction_to_rational(jf)
        coupling_product = Fraction(1)
        for k in range(len(jf.a)):
            lhs = Ps[k + 1] * Qs[k] - Ps[k] * Qs[k + 1]
            if lhs != Polynomial((-coupling_product,)):
                ok = False
            if k < len(jf.b2):
                coupling_product *= jf.b2[k]
    report(
        5,
        "Liouville-Ostrogradski determinant identity on 200 random J-fractions",
        ok,
    )


def test_criterion_06_palindromicity_equivalence():
    rng = random.Random(1006)
    ok = True
    for _ in range(200):
        jf = random_palindromic_jfraction(rng)
        q, p, _ = jfraction_to_rational(jf)
        decision = is_palindromic_jfraction(q, p)
        beta = Fraction(1)
        for v in jf.b2:
            beta *= v
        divisible = (q * q - Polynomial((beta,))) % p
        if not decision.palindromic or not divisible.is_zero:
            ok = False
    for _ in range(200):
        jf = random_nonpalindromic_jfraction(rng)
        q, p, _ = jfraction_to_rational(jf)
        decision = is_palindromic_jfraction(q, p)
        beta = Fraction(1)
        for v in jf.b2:
            beta *= v
        divisible = (q * q - Polynomial((beta,))) % p
        if decision.palindromic or divisible.is_zero:
            ok = False
    report(
        6,
        "coefficient palindromicity <=> P | Q^2 - prod b^2 on 200 + 200 J-fractions",
        ok,
    )


def test_criterion_07_worked_chain_end_to_end():
    jf = chebyshev_jfraction(2)
    chain = from_jfraction(jf)
    coupling = 1.0 / math.sqrt(2.0)
    ok = all(abs(b - coupling) <= 1e-15 for b in chain.offdiag)

    spectrum = eigenvalues(chain)
    ok = ok and max(
        abs(a - b) for a, b in zip(spectrum.eigenvalues, (-1.0, 0.0, 1.0))
    ) <= 1e-12

    cert = verify_pst(chain)
    ok = ok and abs(cert.T - math.pi) <= 1e-10 and abs(cert.phi - math.pi) <= 1e-10

    amp = evolve(chain, (math.pi,)).amplitudes[0]
    e_last = np.array([0.0, 0.0, 1.0])
    ok = ok and np.abs(amp + e_last).max() <= 1e-10
    report(
        7,
        "3-site chain end to end: couplings, spectrum, (T, phi) = (pi, pi), transfer",
        ok,
    )


def test_criterion_08_inverse_design():
    chain_ref = from_jfraction(chebyshev_jfraction(2))
    ok = True
    for top in range(1, 11):
        values = tuple(k - top / 2 for k in range(top + 1))
        spectrum = Spectrum(values, 1e-9)
        designed = design_persymmetric(spectrum)
        scale = max(1.0, max(abs(v) for v in values))
        n = designed.size
        persym = max(
            [abs(designed.diag[k] - designed.diag[n - 1 - k]) for k in range(n)]
            + [abs(designed.offdiag[k] - designed.offdiag[n - 2 - k]) for k in range(n - 1)]
        )
        if persym > 1e-10:
            ok = False
        recomputed = eigenvalues(designed).eigenvalues
        if max(abs(a - b) for a, b in zip(recomputed, values)) > 1e-8:
            ok = False
        cert = verify_pst(designed)
        if fidelity(designed, cert.T) < 1.0 - 1e-8:
            ok = False
        if top == 2:
            if (
                np.abs(np.asarray(designed.diag) - np.asarray(chain_ref.diag)).max() > 1e-10
                or np.abs(
                    np.asarray(designed.offdiag) - np.asarray(chain_ref.offdiag)
                ).max()
                > 1e-10
            ):
                ok = False
    report(
        8,
        "inverse design for lambda_k = k - N/2, N = 1..10: persymmetry, spectrum, transfer",
        ok,
    )


def test_criterion_09_mirror_symmetry_law():
    rng = random.Random(1009)
    ok = True
    for _ in range(100):
        chain = random_persymmetric(rng, rng.randint(2, 10))
        top = chain.size - 1
        spectrum = eigenvalues(chain)
        for k, lam in enumerate(spectrum.eigenvalues):
            end_value = normalized_poly_sequence(chain, lam)[top]
            if not (1.0 - 1e-6 <= abs(end_value) <= 1.0 + 1e-6):
                ok = False
            if math.copysign(1.0, end_value) != (-1.0) ** (top + k):
                ok = False
    for _ in range(100):
        chain = perturb_asymmetric(random_persymmetric(rng, rng.randint(2, 10)), rng)
        try:
            verify_pst(chain)
            ok = False
        except NotPersymmetric:
            pass
    report(
        9,
        "persymmetric chains: end values +-1 alternating; perturbed chains rejected",
        ok,
    )


def test_criterion_10_pfraction_goldens():
    q1 = Polynomial((2, 3, 1))
    p1 = Polynomial((-6, 11, -6, 1))
    expected1 = (
        Polynomial((-9, 1)),
        Polynomial((Fraction(-2, 27), Fraction(-1, 36))),
        Polynomial((Fraction(54, 5), Fraction(162, 5))),
    )
    ok = expand_pfraction(q1, p1).partial_quotients == expected1
    decision1 = is_palindromic_pfraction(q1, p1)
    ok = ok and not decision1.palindromic and decision1.cofactor is None

    q2 = Polynomial((2, 1, 3, 1))
    p2 = Polynomial((3, 4, 10, 6, 1))
    expected2 = (Polynomial((3, 1)), Polynomial((1, 0, 1)), Polynomial((3, 1)))
    ok = ok and expand_pfraction(q2, p2).partial_quotients == expected2
    decision2 = is_palindromic_pfraction(q2, p2)
    ok = ok and decision2.palindromic and decision2.cofactor == Polynomial((1, 0, 1))
    report(10, "polynomial continued fraction golden examples and palindrome verdicts", ok)


def test_criterion_11_interlacing_oracle():
    rng = random.Random(1011)
    ok = True
    for _ in range(200):
        deg = rng.randint(2, 8)
        p, q = interlacing_pair(rng, deg)
        if not interlacing_check(p, q):
            ok = False
        try:
            expand_jfraction(q, p)
        except NotInterlacing:
            ok = False
    for _ in range(200):
        deg = rng.randint(2, 8)
        p, q = noninterlacing_pair(rng, deg)
        if interlacing_check(p, q):
            ok = False
        try:
            expand_jfraction(q, p)
            ok = False
        except NotInterlacing:
            pass
    report(
        11,
        "J-fraction expansion success matches the Sturm interlacing oracle, 200 + 200 pairs",
        ok,
    )
