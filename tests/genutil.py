"""Seeded random generators and closed-form chains shared by the test modules."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from palinfrac.jacobi import JacobiMatrix
from palinfrac.jfraction import JFraction
from palinfrac.pfraction import PFraction
from palinfrac.polynomial import ONE, Polynomial, X


def rand_fraction(rng: random.Random, max_abs: int = 20, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))
        if not nonzero or value != 0:
            return value


def rand_positive_fraction(rng: random.Random, max_abs: int = 20) -> Fraction:
    return Fraction(rng.randint(1, max_abs), rng.randint(1, max_abs))


def random_jfraction(rng: random.Random, max_n: int = 8) -> JFraction:
    levels = rng.randint(1, max_n + 1)
    diag = [rand_fraction(rng) for _ in range(levels)]
    couplings = [rand_positive_fraction(rng) for _ in range(levels - 1)]
    return JFraction(diag, couplings)


def random_palindromic_jfraction(rng: random.Random, max_n: int = 8) -> JFraction:
    levels = rng.randint(1, max_n + 1)
    half_a = [rand_fraction(rng) for _ in range((levels + 1) // 2)]
    diag = half_a + half_a[: levels // 2][::-1]
    m = levels - 1
    half_b = [rand_positive_fraction(rng) for _ in range((m + 1) // 2)]
    couplings = half_b + half_b[: m // 2][::-1]
    return JFraction(diag, couplings)


def random_nonpalindromic_jfraction(rng: random.Random, max_n: int = 8) -> JFraction:
    while True:
        jf = random_jfraction(rng, max_n)
        if len(jf.a) >= 2 and not jf.is_palindromic:
            return jf


def poly_from_roots(roots) -> Polynomial:
    poly = ONE
    for root in roots:
        poly = poly * (X - Polynomial((Fraction(root),)))
    return poly


def _lattice_sample(rng: random.Random, count: int) -> list[Fraction]:
    """Distinct half-integer lattice points, sorted."""
    points = rng.sample(range(-24, 25), count)
    return sorted(Fraction(p, 2) for p in points)


def interlacing_pair(rng: random.Random, deg: int) -> tuple[Polynomial, Polynomial]:
    """Monic (P, Q), deg P = deg, roots strictly interlacing by construction."""
    merged = _lattice_sample(rng, 2 * deg - 1)
    p_roots = merged[0::2]
    q_roots = merged[1::2]
    return poly_from_roots(p_roots), poly_from_roots(q_roots)


def noninterlacing_pair(rng: random.Random, deg: int) -> tuple[Polynomial, Polynomial]:
    """Monic real-rooted (P, Q) whose roots do not strictly interlace."""
    while True:
        p_roots = _lattice_sample(rng, deg)
        q_roots = _lattice_sample(rng, deg - 1)
        interlaces = all(
            p_roots[i] < q_roots[i] < p_roots[i + 1] for i in range(deg - 1)
        ) and len(set(p_roots) & set(q_roots)) == 0
        if not interlaces:
            return poly_from_roots(p_roots), poly_from_roots(q_roots)


def random_jacobi(rng: random.Random, size: int, min_gap: float = 1e-3) -> JacobiMatrix:
    """Random chain whose eigenvalues are separated by at least min_gap."""
    while True:
        diag = [rng.uniform(-2.0, 2.0) for _ in range(size)]
        off = [rng.uniform(0.4, 2.0) for _ in range(size - 1)]
        matrix = JacobiMatrix(diag, off)
        eigs = np.linalg.eigvalsh(matrix.dense())
        if size == 1 or float(np.diff(eigs).min()) >= min_gap:
            return matrix


PERSYMMETRIC_DRAWS = 1000


def random_persymmetric(rng: random.Random, size: int, min_gap: float = 1e-3) -> JacobiMatrix:
    """Random mirrored chain whose eigenvalues are separated by at least
    min_gap, drawn by rejection.  The end eigenvalue pairs of such chains
    close in exponentially with the size, so past ~30 sites hardly a draw
    passes; after PERSYMMETRIC_DRAWS rejected draws it raises ValueError
    (`random_mirror` needs no rejection)."""
    for _ in range(PERSYMMETRIC_DRAWS):
        half_d = [rng.uniform(-2.0, 2.0) for _ in range((size + 1) // 2)]
        diag = half_d + half_d[: size // 2][::-1]
        m = size - 1
        half_b = [rng.uniform(0.4, 2.0) for _ in range((m + 1) // 2)]
        off = half_b + half_b[: m // 2][::-1]
        matrix = JacobiMatrix(diag, off)
        eigs = np.linalg.eigvalsh(matrix.dense())
        if float(np.diff(eigs).min()) >= min_gap:
            return matrix
    raise ValueError(
        f"no mirrored chain of {size} sites with eigenvalue gaps >= {min_gap} "
        f"in {PERSYMMETRIC_DRAWS} draws"
    )


def random_mirror(rng: random.Random, size: int) -> JacobiMatrix:
    """Exact mirror: a diagonal in [-0.5, 0.5] and the Krawtchouk couplings
    stretched by up to 20%, each half drawn once and reflected.  Unlike
    `random_persymmetric` it needs no rejection at any size: its end
    eigenvalue pairs stay apart."""
    half_d = [rng.uniform(-0.5, 0.5) for _ in range((size + 1) // 2)]
    half_b = [math.sqrt((k + 1) * (size - k - 1)) / 2 * rng.uniform(0.8, 1.2) for k in range(size // 2)]
    return JacobiMatrix(half_d + half_d[: size // 2][::-1], half_b + half_b[: (size - 1) // 2][::-1])


def krawtchouk(n: int) -> JacobiMatrix:
    """Closed-form chain b_k = sqrt((k+1)(n-k-1))/2: spectrum k - (n-1)/2,
    perfect transfer at T = pi, first eigenvector components squared
    binom(n-1, k) / 2^(n-1)."""
    return JacobiMatrix((0.0,) * n, [math.sqrt((k + 1) * (n - k - 1)) / 2 for k in range(n - 1)])


def wilkinson(n: int) -> JacobiMatrix:
    """Diagonal |k - (n-1)/2|, couplings 1: the top eigenvalues come in
    pairs closer than 1e-8 relative (n = 15, 16)."""
    return JacobiMatrix([abs(k - (n - 1) / 2) for k in range(n)], [1.0] * (n - 1))


def perturb_asymmetric(H: JacobiMatrix, rng: random.Random, amount: float = 0.3) -> JacobiMatrix:
    """Break mirror symmetry by shifting one end of the diagonal."""
    diag = list(H.diag)
    diag[0] += amount * (1.0 + rng.random())
    return JacobiMatrix(diag, H.offdiag)


def _random_monic_quotient(rng: random.Random, max_deg: int = 2) -> Polynomial:
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    return Polynomial(coeffs + [Fraction(1)])


def random_monic_pfraction(rng: random.Random, palindromic: bool, max_n: int = 5) -> PFraction:
    """P-fraction whose entries are monic of degree 1..2 (reconstruction scale 1)."""
    levels = rng.randint(2, max_n + 1)
    if palindromic:
        half = [_random_monic_quotient(rng) for _ in range((levels + 1) // 2)]
        quotients = half + half[: levels // 2][::-1]
        return PFraction(quotients)
    while True:
        quotients = [_random_monic_quotient(rng) for _ in range(levels)]
        if quotients != quotients[::-1]:
            return PFraction(quotients)
