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

the same recurrence in a form that neither overflows nor underflows, and
the levels of a J-fraction (`_pivots`).  One kernel tabulates them, N x M
for M shifts at once.  It runs the recurrence bare and repeats it under the
pivot guard of LAPACK dstebz only on the columns where a pivot comes
within the guard of zero; the table is bit for bit the guarded one.  By
Sylvester's law of inertia the negative entries of a column count the
eigenvalues below its shift; that count drives the multisection
eigenvalue solver (2^b - 1 points per bracket and pass, b fixed by N),
bit-identical to bisection, which therefore exercises the recurrence
itself instead of delegating to a dense solver.  With the table
of the mirrored matrix read bottom-up, the pivots give twisted
factorizations and with them every eigenvector in O(N) (Dhillon & Parlett).

A persymmetric matrix folds (`_Fold`): its spectrum is that of two half
chains, S for the symmetric eigenvectors and A for the antisymmetric ones,
which alternate from the top down.  The halves share every pivot row but
one, so a folded count (`_count_folded`) tabulates about N / 2 rows for
the shifts of both and adds one fold row; the multisection runs unchanged
on it, each bracket counting in its own half (`_kinds` places the kinds
in the spectrum).  The decision to fold is made here alone: `_prepare`
scales a chain once and folds it when it is an exact mirror of two or
more sites.  Each chain has one spectrum, one multisection of the
prepared chain (`_multisection`), whole or folded: `eigenvalues` and
`pst.verify_pst` read it as a Spectrum (`_spectrum`), and `pst.evolve`
reads it as it is, with the eigenbasis (`_eigenbasis`).  The eigenbasis
asks one separation, 1e-12 ||H||_inf, of two eigenvalues whose vectors
are not orthogonal by construction: on a whole chain any two, on a fold
two of one kind.  `_unfold`, the inverse of `_fold`, builds the chain
from its symmetric half for the design, which certifies the chain on the
bracket counter of the multisection (`_counter`).

The private kernels work in one unit, that of the scaled chain
(`_Scaled`): the counts take scaled shifts, the multisection returns
scaled eigenvalues, and the eigenvectors take them.  Only the public
functions convert, by the scale factor, where values enter or leave, so
an eigenvalue is resolved to the doubles near the scaled chain, not to
the subnormals below a tiny H or past the largest double above a huge one.

Everything in this module runs in 64-bit floating point; exact rationals
enter only through the explicit conversion in `from_jfraction`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, NotAnEigenvalue, OutOfRange, SizeTooSmall, ToleranceTooLoose
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
    """Jacobi matrix with diagonal a and off-diagonal +sqrt(b^2), rounded
    from the exact values.

    b_k is sqrt(b_k^2 / 4^e) 2^e, with 4^e the even power of 2 that brings
    b_k^2 into [1/2, 4): both scalings are exact, so b_k is
    sqrt(float(b_k^2)) wherever b_k^2 is a normal double, and a b_k^2 past
    the doubles still gives the b_k that lies within them.  Raises
    OutOfRange naming k when a_k or b_k lies past the largest double, or
    b_k rounds to 0.
    """

    def coupling(b2: Fraction) -> float:
        e = (b2.numerator.bit_length() - b2.denominator.bit_length()) // 2
        return math.ldexp(math.sqrt(b2 / Fraction(4) ** e), e)

    def rounded(name: str, values, convert) -> list[float]:
        entries = []
        for k, value in enumerate(values):
            try:
                entries.append(convert(value))
            except OverflowError:
                raise OutOfRange(f"{name}_{k} of the J-fraction lies past the largest double") from None
            if name == "b" and entries[-1] == 0.0:
                raise OutOfRange(f"b_{k} of the J-fraction rounds to 0, below the smallest double")
        return entries

    return JacobiMatrix(rounded("a", jf.a, float), rounded("b", jf.b2, coupling))


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
    """Closed interval guaranteed to contain every eigenvalue (row-sum bound);
    max(|lo|, |hi|) is ||H||_inf.  `_scaled` keeps it for the scaled matrix."""
    return _gershgorin(H.diag, H.offdiag)


def _gershgorin(diag, offdiag) -> tuple[float, float]:
    radius = [left + right for left, right in zip([0.0, *offdiag], [*offdiag, 0.0])]
    return min(a - r for a, r in zip(diag, radius)), max(a + r for a, r in zip(diag, radius))


class _Scaled(NamedTuple):
    """H times the power of 2 that brings its largest entry into [1, 2), with
    b^2, the pivot guard pivmin and the ends lo, hi of its Gershgorin interval."""

    diag: list[float]
    offdiag: list[float]
    coupling_sq: list[float]
    pivmin: float
    factor: float
    lo: float
    hi: float

    @property
    def norm(self) -> float:
        """||H||_inf of the scaled matrix, finite where that of H may overflow."""
        return max(abs(self.lo), abs(self.hi))

    def mirrored(self) -> "_Scaled":
        """The scaled form of the mirrored matrix, sites N..0 as 0..N."""
        return _Scaled(self.diag[::-1], self.offdiag[::-1], self.coupling_sq[::-1], *self[3:])


def _scaled(H: JacobiMatrix) -> _Scaled:
    """The scaled form of H, prepared once per matrix.

    The scaling is exact, except for entries more than 2^1021 times smaller
    than the largest, which lie far below its rounding anyway (a matrix of
    subnormals is scaled by 2^1023 only); the b^2 of the pivot recurrence
    then cannot overflow (LAPACK dstevx scales too), nor can ||H||_inf.
    The pivot guard is pivmin = tiny * max(1, max b^2).
    """
    factor = 2.0 ** min(1023, 1 - math.frexp(max(map(abs, H.diag + H.offdiag)))[1])
    diag = [a * factor for a in H.diag]
    offdiag = [b * factor for b in H.offdiag]
    coupling_sq = [b * b for b in offdiag]
    pivmin = sys.float_info.min * max([1.0, *coupling_sq])
    return _Scaled(diag, offdiag, coupling_sq, pivmin, factor, *_gershgorin(diag, offdiag))


def _pivots(s: _Scaled, shifts: np.ndarray) -> np.ndarray:
    """The N x M table of pivots q_k = (a_k - x) - b_{k-1}^2 / q_{k-1} of
    H - xI = L D L^T, row k for site k, one column per (scaled) shift x.
    Read bottom-up, the table of `_Scaled.mirrored` holds minus the levels
    x - a_k - b_k^2 / (x - a_{k+1} - ...) of the J-fraction
    1 / (x - a_0 - b_0^2 / (x - a_1 - ...)) at every shift; this table,
    likewise, those of the J-fraction of the mirrored chain.

    A pivot smaller in magnitude than pivmin becomes -pivmin before the
    next row reads it (the LAPACK dstebz guard), so b^2 / q never exceeds
    1 / tiny and an exact eigenvalue hit counts as lying below the shift.
    The guard acts only on a hit, so the table is first run bare, two
    numpy calls a row, and then the guarded recurrence runs again on the
    columns that hold an entry in (-pivmin, pivmin), the only entries the
    guard changes; a hit may have left inf or NaN further down its column.
    When every column holds one, the guarded run overwrites the table, so
    no second table is held.
    Columns are independent, and a column without a hit goes through the
    same floating-point operations either way, so the table is bit for bit
    that of the guarded recurrence.
    """
    with np.errstate(all="ignore"):  # a hit column may divide by 0; it is redone below
        table = _recurrence(s, shifts, guard=False)

    def hits(rows: np.ndarray) -> np.ndarray:
        return ((rows < s.pivmin) & (rows > -s.pivmin)).any(axis=0)

    # the check walks row blocks of about 2^18 pivots, so its masks stay small
    step = max(1, 2**18 // max(1, shifts.size))
    redo = hits(table[:step])
    for k in range(step, len(table), step):
        redo |= hits(table[k : k + step])
    hit = np.count_nonzero(redo)
    if hit == redo.size:  # no second table: the guarded pass overwrites the bare one
        _recurrence(s, shifts, guard=True, out=table)
    elif hit:
        table[:, redo] = _recurrence(s, shifts[redo], guard=True)
    return table


def _recurrence(s: _Scaled, shifts: np.ndarray, guard: bool, out: np.ndarray | None = None) -> np.ndarray:
    """The pivot table of `_pivots`, with the dstebz guard on every row
    (guard) or with none, written to ``out`` when given."""
    table = np.subtract.outer(s.diag, shifts, out=out)  # a_k - x
    for k, row in enumerate(table):
        if k:
            row -= s.coupling_sq[k - 1] / table[k - 1]
        if guard:
            np.minimum(row, -s.pivmin, out=row, where=row < s.pivmin)
    return table


def _count_less(s: _Scaled, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift, scaled as s, an array of any
    shape: by Sylvester's law of inertia, the number of negative pivots of
    H - xI."""
    return _in_blocks(len(s.diag), lambda x: (_pivots(s, x) < 0).sum(axis=0), np.asarray(shifts, dtype=float))


def _in_blocks(rows: int, count, *columns: np.ndarray) -> np.ndarray:
    """count(*columns), an array in the shape of the first column array,
    for a pivot table of `rows` rows per column; past about 2^22 pivots the
    arrays, broadcast to that shape, are raveled and counted in blocks."""
    shape = columns[0].shape
    parts = -(-columns[0].size * rows // 2**22)
    if parts <= 1:  # a 0-d shift would make the rows of the table scalars, not views
        return count(*map(np.atleast_1d, columns)).reshape(shape)
    split = (np.array_split(np.broadcast_to(c, shape).ravel(), parts) for c in columns)
    return np.concatenate([count(*block) for block in zip(*split)]).reshape(shape)


class _Fold(NamedTuple):
    """A persymmetric H of n >= 2 sites folded at its mirror, scaled as H is.

    Its eigenvectors are symmetric or antisymmetric, v = (u, +-Ju) / sqrt(2),
    and u is an eigenvector of the symmetric or antisymmetric half chain
    (Cantoni & Butler 1976).  For n = 2m both halves are the leading m x m
    block of H, with a_{m-1} + b_{m-1} (S) or a_{m-1} - b_{m-1} (A) on its
    last site.  For n = 2m + 1, S is the leading (m+1) x (m+1) block with
    b_{m-1} replaced by sqrt(2) b_{m-1} (the middle entry of v is that of u,
    unscaled), and A is the leading m x m block.  Both halves share every
    pivot row but the last row of S, the fold row; `ends` holds the
    diagonal entry of the fold row in S and in A, +inf (a row that counts
    nothing) for odd n, where A ends before it.
    """

    symmetric: _Scaled
    antisymmetric: _Scaled
    shared: _Scaled
    ends: tuple[float, float]


def _fold(s: _Scaled) -> _Fold:
    """The fold of the scaled form s of a persymmetric H of two or more
    sites.  The halves keep the pivot guard of H, under which 2 b^2 / pivmin
    still lies below the largest double."""
    n, m = len(s.diag), len(s.diag) // 2

    def half(diag, offdiag, coupling_sq) -> _Scaled:
        return _Scaled(diag, offdiag, coupling_sq, s.pivmin, s.factor, *_gershgorin(diag, offdiag))

    offdiag, coupling_sq = s.offdiag[: m - 1], s.coupling_sq[: m - 1]
    middle = s.offdiag[m - 1]  # b_{m-1}
    if n % 2:
        S = half(s.diag[: m + 1], [*offdiag, math.sqrt(2) * middle], [*coupling_sq, 2 * s.coupling_sq[m - 1]])
        A = half(s.diag[:m], offdiag, coupling_sq)
        ends = (S.diag[-1], math.inf)
    else:
        ends = (s.diag[m - 1] + middle, s.diag[m - 1] - middle)
        S, A = (half([*s.diag[: m - 1], end], offdiag, coupling_sq) for end in ends)
    # only `_pivots` reads the shared rows, so the Gershgorin ends of S may stay
    shared = S._replace(diag=S.diag[:-1], offdiag=S.offdiag[:-1], coupling_sq=S.coupling_sq[:-1])
    return _Fold(S, A, shared, ends)


def _unfold(diag, offdiag, n: int, middle: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and off-diagonal of the persymmetric chain of n >= 2
    sites whose symmetric half S (`_Fold`) has the given entries, from
    site 0 to the mirror: the inverse of `_fold`.  For even n, middle is
    b_{m-1}, which the last site of S carries on its diagonal beyond
    a_{m-1}; for odd n it is ignored, and the last coupling of S is
    sqrt(2) b_{m-1}."""
    diag, offdiag = np.array(diag, dtype=float), np.array(offdiag, dtype=float)
    if n % 2:
        offdiag[-1] /= math.sqrt(2)
        return np.concatenate((diag, diag[-2::-1])), np.concatenate((offdiag, offdiag[::-1]))
    diag[-1] -= middle
    return np.concatenate((diag, diag[::-1])), np.concatenate((offdiag, [middle], offdiag[::-1]))


def _kinds(n: int) -> tuple[slice, slice]:
    """The positions of the symmetric and of the antisymmetric eigenvectors
    among the n ascending eigenvalues of a persymmetric chain: the kinds
    alternate, and the top one is symmetric."""
    return slice((n - 1) % 2, n, 2), slice(n % 2, n, 2)


def _count_folded(f: _Fold, shifts, symmetric) -> np.ndarray:
    """Eigenvalues of S (where symmetric holds) or of A below each shift,
    scaled as the fold: the negative pivots of one table of the shared
    rows, for both halves at once, plus that of the fold row of each.
    symmetric broadcasts to the shape of shifts."""

    def count(x, sym):
        table = _pivots(f.shared, x)
        fold = np.where(sym, *f.ends) - x
        if len(table):  # the b^2 into the fold row is that of S, for A too when it has the row
            fold -= f.symmetric.coupling_sq[-1] / table[-1]
        return (table < 0).sum(axis=0) + (fold < f.shared.pivmin)  # the guard of `_pivots`

    return _in_blocks(len(f.symmetric.diag), count, np.asarray(shifts, dtype=float), symmetric)


def _to_keys(x) -> np.ndarray:
    """Integer keys that order doubles as their values do (-0.0 and 0.0
    alike): consecutive doubles have consecutive keys."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.where(bits < 0, -(bits & np.int64(2**63 - 1)), bits)


def _from_keys(keys: np.ndarray) -> np.ndarray:
    return np.copysign(np.abs(keys).view(np.float64), keys)


def eigenvalues(H: JacobiMatrix, tol: float = 1e-12) -> Spectrum:
    """All eigenvalues by Sturm-count multisection inside the Gershgorin
    bracket, on the chain as `_prepare` hands it over: an exact mirror of
    two or more sites is counted on its two half chains.

    The N brackets shrink together.  Each pass takes one pivot count at
    2^b - 1 evenly spaced interior points of every bracket, and each
    bracket becomes the part between the two neighbouring points where the
    count passes its index (LAPACK dlaebz).  b is fixed by N: the largest
    b <= 6 with N (2^b - 1) <= 1024 shifts per pass, down to b = 1
    (bisection) from N = 342 on.  The points are spaced evenly over the
    doubles of the bracket, not over its width, and each root is narrowed
    down to two adjacent doubles.  As the rounded count is monotone in the
    shift, that final bracket is unique, so the result does not depend on
    b and is bit-identical to bisection over the same count, whole or
    folded, in the scaled units of the chain; it is the spectrum that
    `pst.verify_pst` certifies.  The returned values are accurate
    to a few ulps (near 0, to the pivot guard pivmin ~ 1e-308 ||H||_inf;
    an eigenvalue within the guard is returned as +0.0) regardless of
    ``tol``.  ``tol`` is relative to H, as that of `pst.verify_pst` is:
    the resulting Spectrum certifies the separation tol ||H||_inf (tol
    for the zero matrix), at least the smallest double, 2^-1074, where
    that product underflows.  So within the normal doubles
    eigenvalues(2^k H, tol) succeeds or raises as eigenvalues(H, tol)
    does.  Raises ToleranceTooLoose, naming tol and that separation, when
    the separation (an overflowing one too) reaches the best possible
    eigenvalue gap or any computed gap fails it, and OutOfRange for an
    eigenvalue past the largest double that no finite Gershgorin end of H
    bounds.
    """
    return _spectrum(_prepare(H), tol)


def _prepare(H: JacobiMatrix) -> tuple[_Scaled, _Fold | None]:
    """The scaled form of H, and its fold when H is an exact mirror of two
    or more sites; any other chain, one mirrored only within a tolerance
    too, is solved whole.  Each public entry point prepares its chain
    once and hands the pair to `_multisection`, `_spectrum` and
    `_eigenbasis`."""
    s = _scaled(H)
    return s, _fold(s) if H.size > 1 and is_persymmetric(H, 0.0) else None


def _counter(prepared: tuple[_Scaled, _Fold | None]) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The bracket counter of a chain from `_prepare`: index, and count,
    which maps an N x K array of shifts scaled as the chain (row k those
    of bracket k) to the counts that bracket reads.  Eigenvalue k lies in
    [x, y] where count(x)[k] <= index[k] < count(y)[k], an exact hit
    counting as below.  On a whole chain index[k] is k.  On a fold the
    kinds alternate and the top eigenvector is symmetric (`_kinds`), so
    eigenvalue k of H is eigenvalue k // 2 of its half, and its bracket
    counts in that half alone (`_count_folded`).
    """
    s, fold = prepared
    index = np.arange(len(s.diag))
    if fold is None:
        return index, lambda x: _count_less(s, x)
    symmetric = np.zeros((index.size, 1), dtype=bool)
    symmetric[_kinds(index.size)[0]] = True
    return index // 2, lambda x: _count_folded(fold, x, symmetric)


def _multisection(prepared: tuple[_Scaled, _Fold | None]) -> np.ndarray:
    """The ascending eigenvalues of a chain from `_prepare`, scaled as its
    `_Scaled` form, by the multisection of `eigenvalues`; an eigenvalue
    within the pivot guard pivmin is +0.0.

    Bracket k holds eigenvalue k, and narrows on the counter of the
    chain (`_counter`), whole or folded; on a fold the results agree with
    those of the whole chain to a few ulps of ||H||_inf, as the halves
    round differently.
    """
    s, _ = prepared
    n = len(s.diag)
    if n == 1:
        return np.array(s.diag)
    index, count = _counter(prepared)
    pad = 16 * sys.float_info.epsilon * s.norm
    # Split the keys of the bracket ends, not their values: the bracket
    # holds fewer than 2^64 doubles, so every root is done within 64 / b
    # passes, where splitting the width would walk ~1000 bisection steps
    # through the subnormals towards an eigenvalue 0 that a bracket end
    # hits exactly.  A bracket across 0 holds more than 2^63 doubles, so
    # key widths and offsets are unsigned.
    # invariant: count at lower[k] <= index[k] < count at upper[k]
    # (NumPy 1.x turns uint64 mixed with int64 into float64: no mixing.)
    b = max(1, min(6, (1024 // n + 1).bit_length() - 1))
    shift, low_bits = np.uint64(b), np.uint64(2**b - 1)
    j = np.arange(1, 2**b, dtype=np.uint64)
    lower = np.full(n, _to_keys(s.lo - pad))  # scaled, so the ends are finite
    upper = np.full(n, _to_keys(s.hi + pad))
    rows = np.arange(n)
    upper_above = np.ones((n, 1), dtype=bool)  # the upper end lies above its index
    while True:
        width = upper.view(np.uint64) - lower.view(np.uint64)
        if (width <= 1).all():
            break
        # floor(width * j / 2^b), without overflow
        offsets = (width >> shift)[:, None] * j + (((width & low_bits)[:, None] * j) >> shift)
        keys = (lower.view(np.uint64)[:, None] + offsets).view(np.int64)
        above = count(_from_keys(keys)) > index[:, None]
        flip = np.hstack((above, upper_above)).argmax(axis=1)  # first point above its index
        ends = np.column_stack((lower, keys, upper))
        lower, upper = ends[rows, flip], ends[rows, flip + 1]
    # 0.5 * (lower + upper) of two adjacent doubles rounds to the end with the
    # even key (ties to even); picking it directly cannot overflow
    found = _from_keys(np.where(lower & 1, upper, lower))
    found[np.abs(found) <= s.pivmin] = 0.0  # an eigenvalue 0 lands on -pivmin
    return found


def _spectrum(prepared: tuple[_Scaled, _Fold | None], tol: float = 1e-12) -> Spectrum:
    """The Spectrum of `eigenvalues` on a chain from `_prepare`: the tol
    checks, then `_multisection` brought back to the units of H."""
    s, _ = prepared
    n = len(s.diag)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    # tol ||H||_inf (||H||_inf = 1 for the zero matrix), at least the smallest double
    separation = max(tol * (s.norm or s.factor) / s.factor, math.ulp(0.0))
    best_gap = (s.hi - s.lo) / (n - 1) / s.factor if n > 1 else math.inf
    if separation >= best_gap:  # an overflowing separation too
        raise ToleranceTooLoose(
            f"tol {tol} * ||H||_inf = {separation} is not below the best possible gap {best_gap} "
            f"of {n} eigenvalues inside the Gershgorin interval"
        )
    # an eigenvalue past the largest double is that double where the
    # Gershgorin interval of H ends at a finite double on its side
    with np.errstate(over="ignore"):
        found = _multisection(prepared) / s.factor
        end_finite = np.isfinite(np.where(found < 0, s.lo, s.hi) / s.factor)
    np.clip(found, -sys.float_info.max, sys.float_info.max, out=found, where=end_finite)
    if np.isinf(found).any():
        raise OutOfRange(f"eigenvalue {np.isinf(found).argmax()} lies past the largest double")
    try:
        return Spectrum(found, separation)
    except DegenerateSpectrum as exc:
        raise ToleranceTooLoose(f"computed {exc} = tol {tol} * ||H||_inf") from None


def eigenvectors(H: JacobiMatrix, lams: Iterable[float]) -> np.ndarray:
    """Unit eigenvectors of H as columns, one per eigenvalue in lams (an
    N x 0 array for none), by twisted factorization.

    For each lam the forward pivots D+ and backward pivots D- of H - lam I
    give gamma_k = D+_k + D-_k - (a_k - lam), the reciprocal of the k-th
    diagonal entry of (H - lam I)^{-1}; at the twist r = argmin |gamma_k|
    the solution of (H - lam I) z = gamma_r e_r is the eigenvector, found
    outward from z_r = 1 in O(N).  The sign makes the first component
    positive.  Every residual ||Hv - lam v|| must come out within
    1e-8 * ||H||_inf, otherwise NotAnEigenvalue is raised, before any
    arithmetic for a lam that far outside the Gershgorin interval, where no
    unit vector can.  A NaN or infinite lam is a ValueError.
    """
    lams = np.asarray(tuple(lams), dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError("eigenvectors needs finite eigenvalues")
    s = _scaled(H)  # 1e-8 * ||H||_inf is 1e-8 * s.norm, scaled
    outside = (lams < (s.lo - 1e-8 * s.norm) / s.factor) | (lams > (s.hi + 1e-8 * s.norm) / s.factor)
    if outside.any():
        raise NotAnEigenvalue(
            f"{float(lams[outside][0])!r} lies more than 1e-8 * ||H||_inf outside the Gershgorin interval"
        )
    return _eigenvectors(s, lams * s.factor)


def _eigenvectors(s: _Scaled, lams: np.ndarray) -> np.ndarray:
    """`eigenvectors` of the matrix of the scaled form s at the lams, scaled
    as s, inside its Gershgorin interval widened by 1e-8 ||H||_inf."""
    bound = 1e-8 * s.norm  # 1e-8 * ||H||_inf, scaled
    n = len(s.diag)
    if not lams.size:
        return np.zeros((n, 0))
    forward = _pivots(s, lams)
    backward = _pivots(s.mirrored(), lams)[::-1]
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
    if not worst <= bound:
        raise NotAnEigenvalue(f"residual {worst / s.norm:.3e} * ||H||_inf exceeds 1e-8 * ||H||_inf")
    return vectors


def _eigenbasis(prepared: tuple[_Scaled, _Fold | None], lams) -> np.ndarray:
    """`eigenvectors` of a chain from `_prepare` at all its eigenvalues
    lams, ascending and scaled as the chain (`_multisection`).  On a fold
    they are those of its half chains S and A (`_Fold`), each with its own
    residual check, unfolded to (u, +-Ju) / sqrt(2).

    Raises ToleranceTooLoose when two eigenvalues whose vectors are not
    orthogonal by construction lie within 1e-12 ||H||_inf, the default
    separation of `eigenvalues`: on a whole chain any two, on a fold two
    of one kind, as a symmetric and an antisymmetric vector are orthogonal
    however close their eigenvalues lie.
    """
    s, fold = prepared
    n, m = len(s.diag), len(s.diag) // 2
    lams = np.asarray(lams, dtype=float)
    kinds = (slice(None),) if fold is None else _kinds(n)
    if any((np.diff(lams[kind]) <= 1e-12 * s.norm).any() for kind in kinds):
        raise ToleranceTooLoose(
            f"eigenvalues{'' if fold is None else ' of one kind'} lie within 1e-12 * ||H||_inf of each other"
        )
    if fold is None:
        return _eigenvectors(s, lams)
    symmetric, antisymmetric = kinds
    u = _eigenvectors(fold.symmetric, lams[symmetric])
    w = _eigenvectors(fold.antisymmetric, lams[antisymmetric])
    vectors = np.zeros((n, lams.size))
    vectors[:m, symmetric] = u[:m] / math.sqrt(2)
    vectors[n - m :, symmetric] = u[m - 1 :: -1] / math.sqrt(2)
    vectors[:m, antisymmetric] = w / math.sqrt(2)
    vectors[n - m :, antisymmetric] = w[::-1] / -math.sqrt(2)
    if n % 2:
        vectors[m, symmetric] = u[m]
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
