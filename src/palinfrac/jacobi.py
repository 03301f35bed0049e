"""Real symmetric tridiagonal (Jacobi) matrices and their spectral tools.

A matrix H with diagonal a_0..a_N and strictly positive off-diagonal
b_0..b_{N-1} drives the normalized three-term recurrence

    x p_k(x) = b_k p_{k+1}(x) + a_k p_k(x) + b_{k-1} p_{k-1}(x),

seeded with p_{-1} = 0, p_0 = 1 and the boundary conventions
b_{-1} = b_N = 1.  The last value p_{N+1}(x) equals
det(xI - H) / (b_0...b_{N-1}); `charpoly_check` verifies this against an
independent leading-minor recurrence.

Ratios of consecutive values are the pivots of H - xI = L D L^T,

    q_k = -b_k p_{k+1}(x) / p_k(x) = (a_k - x) - b_{k-1}^2 / q_{k-1},

the same recurrence in a form that neither overflows nor underflows.  By
Sylvester's law of inertia the number of negative pivots is the number of
eigenvalues below x; that count, taken for many shifts at once, drives
the multisection eigenvalue solver (2^b - 1 points per bracket and pass,
b fixed by N), which therefore exercises the recurrence itself instead of
delegating to a dense solver.  The result is bit-identical to bisection.  Run from both ends, the
pivots give twisted factorizations and with them every eigenvector in
O(N) (Dhillon & Parlett).

Everything in this module runs in 64-bit floating point; exact rationals
enter only through the explicit conversion in `from_jfraction`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, NotAnEigenvalue, SizeTooSmall, ToleranceTooLoose
from .jfraction import JFraction
from .polynomial import three_term

__all__ = [
    "JacobiMatrix",
    "Spectrum",
    "from_jfraction",
    "normalized_poly_sequence",
    "charpoly_check",
    "truncate_first",
    "eigenvalues",
    "eigenvector",
    "eigenvectors",
    "is_persymmetric",
    "gershgorin_interval",
]


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: diagonal a_0..a_N, off-diagonal b_0..b_{N-1} > 0."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __init__(self, diag: Iterable[float], offdiag: Iterable[float] = ()):
        diag = tuple(float(v) for v in diag)
        offdiag = tuple(float(v) for v in offdiag)
        if not diag:
            raise ValueError("a Jacobi matrix needs at least one diagonal entry")
        if len(offdiag) != len(diag) - 1:
            raise ValueError(f"need len(offdiag) = len(diag) - 1, got {len(offdiag)} vs {len(diag)}")
        if not all(map(math.isfinite, diag + offdiag)):
            raise ValueError("matrix entries must be finite")
        if any(b <= 0 for b in offdiag):
            raise ValueError("off-diagonal entries must be strictly positive")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        m = np.diag(np.asarray(self.diag, dtype=float))
        if self.offdiag:
            off = np.asarray(self.offdiag, dtype=float)
            m += np.diag(off, 1) + np.diag(off, -1)
        return m

    def to_json_obj(self) -> dict:
        return {"diag": list(self.diag), "offdiag": list(self.offdiag)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "JacobiMatrix":
        return cls(obj["diag"], obj["offdiag"])


@dataclass(frozen=True)
class Spectrum:
    """Strictly increasing eigenvalues with the resolution they are trusted to."""

    eigenvalues: tuple[float, ...]
    tolerance: float

    def __init__(self, eigenvalues: Iterable[float], tolerance: float):
        eigenvalues = tuple(float(v) for v in eigenvalues)
        tolerance = float(tolerance)
        if not eigenvalues:
            raise ValueError("a spectrum needs at least one eigenvalue")
        if not all(map(math.isfinite, eigenvalues)):
            raise ValueError("eigenvalues must be finite")
        if not (0 < tolerance < math.inf):
            raise ValueError("tolerance must be positive and finite")
        for left, right in zip(eigenvalues, eigenvalues[1:]):
            if right - left <= tolerance:
                raise DegenerateSpectrum(
                    f"eigenvalues {left} and {right} are not separated beyond {tolerance}"
                )
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "tolerance", tolerance)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def from_jfraction(jf: JFraction) -> JacobiMatrix:
    """Jacobi matrix with diagonal a and off-diagonal +sqrt(b^2)."""
    return JacobiMatrix(
        (float(v) for v in jf.a),
        (math.sqrt(float(v)) for v in jf.b2),
    )


def normalized_poly_sequence(H: JacobiMatrix, x: float) -> list[float]:
    """Values p_0(x), ..., p_{N+1}(x) of the normalized recurrence at a
    finite x: `three_term` with steps ((x - a_k) / b_k, -b_{k-1} / b_k)."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    left, right = (1.0,) + H.offdiag, H.offdiag + (1.0,)  # b_{-1} = b_N = 1
    steps = [((x - a) / b, -b_prev / b) for a, b_prev, b in zip(H.diag, left, right)]
    return three_term(steps, (0.0, 1.0))


def charpoly_check(H: JacobiMatrix, x: float) -> float:
    """Relative disagreement between p_{N+1}(x) and
    det(xI - H) / (b_0...b_{N-1}), the latter from the independent
    leading-minor recurrence, steps (x - a_k, -b_{k-1}^2).  Contract:
    <= 1e-10 for any finite x."""
    recurrence_value = normalized_poly_sequence(H, x)[-1]
    steps = [(x - a, -b_prev * b_prev) for a, b_prev in zip(H.diag, (1.0,) + H.offdiag)]
    minor = three_term(steps, (0.0, 1.0))[-1]
    determinant_value = minor / math.prod(H.offdiag)
    return abs(recurrence_value - determinant_value) / max(
        1.0, abs(recurrence_value), abs(determinant_value)
    )


def truncate_first(H: JacobiMatrix) -> JacobiMatrix:
    """Drop a_0 and b_0; the truncated matrix drives the companion recurrence."""
    if H.size < 2:
        raise SizeTooSmall("cannot truncate a 1x1 matrix")
    return JacobiMatrix(H.diag[1:], H.offdiag[1:])


def gershgorin_interval(H: JacobiMatrix) -> tuple[float, float]:
    """Closed interval guaranteed to contain every eigenvalue (row-sum bound)."""
    lo = math.inf
    hi = -math.inf
    for k in range(H.size):
        radius = (H.offdiag[k - 1] if k > 0 else 0.0) + (H.offdiag[k] if k < H.size - 1 else 0.0)
        lo = min(lo, H.diag[k] - radius)
        hi = max(hi, H.diag[k] + radius)
    return lo, hi


class _Scaled(NamedTuple):
    """H times the power of 2 that brings its largest entry into [1, 2),
    with what its pivot recurrence needs: b^2 and the guard pivmin."""

    diag: list[float]
    offdiag: list[float]
    coupling_sq: list[float]
    pivmin: float
    factor: float


def _scaled(H: JacobiMatrix) -> _Scaled:
    """The scaled form of H, prepared once per matrix.

    The scaling is exact, except for entries more than 2^1021 times smaller
    than the largest, which lie far below its rounding anyway; the b^2 of
    the pivot recurrence then cannot overflow (LAPACK dstevx scales too).
    The pivot guard is pivmin = tiny * max(1, max b^2).
    """
    factor = 2.0 ** (1 - math.frexp(max(map(abs, H.diag + H.offdiag)))[1])
    offdiag = [b * factor for b in H.offdiag]
    coupling_sq = [b * b for b in offdiag]
    pivmin = sys.float_info.min * max([1.0, *coupling_sq])
    return _Scaled([a * factor for a in H.diag], offdiag, coupling_sq, pivmin, factor)


def _pivots(s: _Scaled, shifts: np.ndarray, reverse: bool = False):
    """Pivots q_k = (a_k - x) - b_{k-1}^2 / q_{k-1} of H - xI = L D L^T for
    every (scaled) shift x at once, yielded one row per k together with the
    mask of its negative entries; with ``reverse`` the recurrence runs from
    the last site back to the first.

    A pivot smaller in magnitude than pivmin becomes -pivmin before anyone
    reads it (the LAPACK dstebz guard), so b^2 / q never exceeds 1 / tiny
    and an exact eigenvalue hit counts as lying below the shift.
    """
    diag, coupling_sq, pivmin = s.diag, s.coupling_sq, s.pivmin
    if reverse:
        diag, coupling_sq = diag[::-1], coupling_sq[::-1]
    pivot = diag[0] - shifts
    for k in range(len(diag)):
        if k:
            pivot = (diag[k] - shifts) - coupling_sq[k - 1] / pivot
        negative = pivot < pivmin
        np.minimum(pivot, -pivmin, out=pivot, where=negative)
        yield pivot, negative


def _count_less(s: _Scaled, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift, an array of any shape: by
    Sylvester's law of inertia, the number of negative pivots of H - xI."""
    shifts = np.asarray(shifts, dtype=float)
    count = np.zeros(shifts.size, dtype=np.intp)
    for _, negative in _pivots(s, shifts.ravel() * s.factor):  # 1-d runs a few % faster
        count += negative
    return count.reshape(shifts.shape)


def _to_keys(x) -> np.ndarray:
    """Integer keys that order doubles as their values do (-0.0 and 0.0
    alike): consecutive doubles have consecutive keys."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.where(bits < 0, -(bits & np.int64(2**63 - 1)), bits)


def _from_keys(keys: np.ndarray) -> np.ndarray:
    return np.copysign(np.abs(keys).view(np.float64), keys)


def eigenvalues(H: JacobiMatrix, tol: float | None = None) -> Spectrum:
    """All eigenvalues by Sturm-count multisection inside the Gershgorin
    bracket.

    The N brackets shrink together.  Each pass takes one pivot count at
    2^b - 1 evenly spaced interior points of every bracket, and each
    bracket becomes the part between the two neighbouring points where the
    count passes its index (LAPACK dlaebz).  b is fixed by N: the largest
    b <= 6 with N (2^b - 1) <= 1024 shifts per pass, down to b = 1
    (bisection) from N = 342 on.  The points are spaced evenly over the
    doubles of the bracket, not over its width, and each root is narrowed
    down to two adjacent doubles.  As the rounded count is monotone in the
    shift, that final bracket is unique, so the result does not depend on
    b and is bit-identical to bisection.  The returned values are accurate
    to a few ulps (near 0, to the pivot guard pivmin ~ 1e-308; an
    eigenvalue within the guard is returned as +0.0) regardless of
    ``tol``; ``tol`` (default 1e-12 scaled by the Gershgorin radius) is the
    separation the resulting Spectrum certifies.  Raises ToleranceTooLoose
    when ``tol`` exceeds the best possible eigenvalue gap or any computed
    gap fails it.
    """
    n = H.size
    lo, hi = gershgorin_interval(H)
    scale = max(1.0, abs(lo), abs(hi))
    if tol is None:
        tol = 1e-12 * scale
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if n == 1:
        return Spectrum((H.diag[0],), tol)
    span = hi - lo
    if tol >= span / (n - 1):
        raise ToleranceTooLoose(
            f"tol {tol} is not below the best possible gap {span / (n - 1)} "
            f"of {n} eigenvalues inside the Gershgorin interval"
        )
    s = _scaled(H)
    pad = 16 * sys.float_info.epsilon * scale
    # Split the keys of the bracket ends, not their values: the bracket
    # holds fewer than 2^64 doubles, so every root is done within 64 / b
    # passes, where splitting the width would walk ~1000 bisection steps
    # through the subnormals towards an eigenvalue 0 that a bracket end
    # hits exactly.  A bracket across 0 holds more than 2^63 doubles, so
    # key widths and offsets are unsigned.
    # invariant: count_less at lower[k] <= k < count_less at upper[k]
    # (NumPy 1.x turns uint64 mixed with int64 into float64: no mixing.)
    b = max(1, min(6, (1024 // n + 1).bit_length() - 1))
    shift, low_bits = np.uint64(b), np.uint64(2**b - 1)
    j = np.arange(1, 2**b, dtype=np.uint64)
    lower = np.full(n, _to_keys(lo - pad))
    upper = np.full(n, _to_keys(hi + pad))
    index = np.arange(n)
    upper_above = np.ones((n, 1), dtype=bool)  # the upper end lies above its index
    while True:
        width = upper.view(np.uint64) - lower.view(np.uint64)
        if (width <= 1).all():
            break
        # floor(width * j / 2^b), without overflow
        offsets = (width >> shift)[:, None] * j + (((width & low_bits)[:, None] * j) >> shift)
        keys = (lower.view(np.uint64)[:, None] + offsets).view(np.int64)
        above = _count_less(s, _from_keys(keys)) > index[:, None]
        flip = np.hstack((above, upper_above)).argmax(axis=1)  # first point above its index
        ends = np.column_stack((lower, keys, upper))
        lower, upper = ends[index, flip], ends[index, flip + 1]
    found = 0.5 * (_from_keys(lower) + _from_keys(upper))
    found[np.abs(found) <= s.pivmin / s.factor] = 0.0  # an eigenvalue 0 lands on -pivmin
    for left_val, right_val in zip(found, found[1:]):
        if right_val - left_val <= tol:
            raise ToleranceTooLoose(
                f"computed gap {right_val - left_val} is within tol {tol}"
            )
    return Spectrum(found, tol)


def eigenvectors(H: JacobiMatrix, lams: Iterable[float]) -> np.ndarray:
    """Unit eigenvectors of H as columns, one per eigenvalue in lams (an
    N x 0 array for none), by twisted factorization.

    For each lam the forward pivots D+ and backward pivots D- of H - lam I
    give gamma_k = D+_k + D-_k - (a_k - lam), the reciprocal of the k-th
    diagonal entry of (H - lam I)^{-1}; at the twist r = argmin |gamma_k|
    the solution of (H - lam I) z = gamma_r e_r is the eigenvector, found
    outward from z_r = 1 in O(N).  The sign makes the first component
    positive.  Every residual ||Hv - lam v|| must come out within
    1e-8 * ||H||_inf, otherwise NotAnEigenvalue is raised.
    """
    s = _scaled(H)
    lams = np.asarray(tuple(lams), dtype=float) * s.factor
    n = H.size
    if not lams.size:
        return np.zeros((n, 0))
    forward = np.empty((n, lams.size))
    backward = np.empty((n, lams.size))
    for k, (pivot, _) in enumerate(_pivots(s, lams)):
        forward[k] = pivot
    for k, (pivot, _) in enumerate(_pivots(s, lams, reverse=True)):
        backward[n - 1 - k] = pivot
    diag, off = np.asarray(s.diag), np.asarray(s.offdiag)
    vectors = forward + backward  # gamma, then the solution, in one array
    vectors -= diag[:, None]
    vectors += lams
    twist = np.abs(vectors, out=vectors).argmin(axis=0)
    vectors.fill(0.0)
    vectors[twist, np.arange(lams.size)] = 1.0
    for k in range(n - 2, -1, -1):
        np.divide(-off[k] * vectors[k + 1], forward[k], out=vectors[k], where=k < twist)
    for k in range(1, n):
        np.divide(-off[k - 1] * vectors[k - 1], backward[k], out=vectors[k], where=k > twist)
    del forward, backward
    signs = np.where(vectors[0] < 0, -1.0, 1.0)
    vectors *= signs / np.sqrt(np.einsum("ij,ij->j", vectors, vectors))

    residual = vectors * np.subtract.outer(diag, lams)
    residual[:-1] += off[:, None] * vectors[1:]
    residual[1:] += off[:, None] * vectors[:-1]
    worst = float(np.sqrt(np.einsum("ij,ij->j", residual, residual)).max())
    row_sums = np.abs(diag)
    row_sums[:-1] += off
    row_sums[1:] += off
    bound = 1e-8 * float(row_sums.max())
    if not worst <= bound:
        raise NotAnEigenvalue(
            f"residual {worst / s.factor:.3e} exceeds 1e-8 * ||H|| = {bound / s.factor:.3e}"
        )
    return vectors


def eigenvector(H: JacobiMatrix, lam: float) -> np.ndarray:
    """Unit eigenvector for the eigenvalue lam with a positive first
    component: the one-column case of `eigenvectors`, which raises
    NotAnEigenvalue when lam is not (close enough to) an eigenvalue."""
    return eigenvectors(H, (lam,))[:, 0]


def is_persymmetric(H: JacobiMatrix, tol: float) -> bool:
    """True iff H equals its reversal: a_k = a_{N-k}, b_n = b_{N-1-n} within tol."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    n = H.size
    diag_ok = all(abs(H.diag[k] - H.diag[n - 1 - k]) <= tol for k in range(n))
    off_ok = all(abs(H.offdiag[k] - H.offdiag[n - 2 - k]) <= tol for k in range(n - 1))
    return diag_ok and off_ok
