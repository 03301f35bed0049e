"""Perfect quantum state transfer on mirror-symmetric Jacobi chains.

A chain with Hamiltonian H realizes perfect transfer when
e^{i phi} e^{i T H} e_0 = e_N for some time T > 0 and phase phi.
Equivalently the matrix is persymmetric and every phase T lambda_k + phi
lands on (N + k) pi modulo 2 pi, which pins T through the eigenvalue
gaps: T Delta_k must be an odd multiple of pi for every gap
Delta_k = lambda_{k+1} - lambda_k.

`verify_pst` decides the gap condition by rational reconstruction of the
ratios Delta_k / Delta_0 with continued-fraction convergents (denominator
bound 10^6), reduces them to the least common odd multiple scaling, and
returns the minimal admissible T together with phi normalized into
[0, 2 pi).  The spectrum is recomputed from H, and the certificate is
checked against the phase condition before it is returned.

`design_persymmetric` inverts the problem: given a prescribed spectrum it
forms the spectral weights w_k^2 proportional to
1 / prod_{j != k} |lambda_k - lambda_j| (summed as logarithms, so the
product cannot overflow, and normalized to sum 1) and runs a
fully reorthogonalized Lanczos pass on the diagonal eigenvalue matrix
started from the weight vector, reading the chain off the recurrence
coefficients.  The weight formula is not taken on faith: the construction
validates its own contract before returning, persymmetry entry by entry
and the spectrum by a two-count certificate, one pivot count of the
designed chain at every lambda_k - delta and lambda_k + delta, with no
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    IncommensurableSpectrum,
    InternalCheckFailed,
    NoOddScaling,
    NotPersymmetric,
    OutOfRange,
)
from .jacobi import (
    JacobiMatrix,
    Spectrum,
    _count_less,
    _scaled,
    eigenvalues,
    eigenvectors,
    gershgorin_interval,
    is_persymmetric,
)
from .numeric_cf import convergents, expand_euclid

__all__ = [
    "PstCertificate",
    "AmplitudeTrace",
    "verify_pst",
    "evolve",
    "fidelity",
    "design_persymmetric",
    "check_pst1_spectrum",
    "RATIO_DENOMINATOR_BOUND",
]

TWO_PI = 2.0 * math.pi

RATIO_DENOMINATOR_BOUND = 10**6


@dataclass(frozen=True)
class PstCertificate:
    """Transfer time T, global phase phi in [0, 2 pi), and the eigendata."""

    T: float
    phi: float
    spectrum: Spectrum

    def to_json_obj(self) -> dict:
        return {"T": self.T, "phi": self.phi, "eigenvalues": list(self.spectrum.eigenvalues)}


@dataclass(frozen=True, eq=False)
class AmplitudeTrace:
    """Components of e^{itH} e_0 sampled along a time grid.

    Unitarity is enforced at construction: every amplitude vector must
    have unit Euclidean norm within 1e-10.
    """

    times: tuple[float, ...]
    amplitudes: np.ndarray

    def __init__(self, times: Iterable[float], amplitudes: np.ndarray):
        times = tuple(float(t) for t in times)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape[0] != len(times):
            raise ValueError("one amplitude vector per time sample required")
        norms = np.linalg.norm(amplitudes, axis=1)
        worst = float(np.abs(norms - 1.0).max()) if len(times) else 0.0
        if not worst <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"unitarity violated: norm deviates by {worst:.3e}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amplitudes)

    def to_csv(self, stream: IO[str]) -> None:
        """Rows `t,re_0,im_0,...,re_N,im_N,fidelity` with fidelity = |last|^2."""
        n = self.amplitudes.shape[1]
        header = "t," + ",".join(f"re_{i},im_{i}" for i in range(n)) + ",fidelity"
        stream.write(header + "\n")
        for t, row in zip(self.times, self.amplitudes):
            cells = [repr(float(t))]
            for z in row:
                cells.append(repr(float(z.real)))
                cells.append(repr(float(z.imag)))
            cells.append(repr(float(abs(row[-1]) ** 2)))
            stream.write(",".join(cells) + "\n")


def _eigensystem(H: JacobiMatrix, tol: float | None = None) -> tuple[Spectrum, np.ndarray]:
    spectrum = eigenvalues(H, tol)
    return spectrum, eigenvectors(H, spectrum.eigenvalues)


def evolve(H: JacobiMatrix, times: Sequence[float]) -> AmplitudeTrace:
    """e^{itH} e_0 for each t, via the spectral decomposition of H.

    Raises ValueError for a NaN or infinite time, and OutOfRange when
    max |t| * ||H|| exceeds 2^53, with ||H|| the Gershgorin bound on every
    |lambda|: beyond it neighbouring doubles lie 2 or more apart, so the
    rounding of t lambda alone can move the phase of e^{it lambda} by a
    radian.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(t) for t in times):
        raise ValueError("evolve needs finite times")
    lo, hi = gershgorin_interval(H)
    reach = max(map(abs, times), default=0.0) * max(abs(lo), abs(hi))
    if reach > 2.0**53:
        raise OutOfRange(f"max |t| * ||H|| = {reach:.3e} exceeds 2^53: phases lost to rounding")
    spectrum, basis = _eigensystem(H)
    lams = np.asarray(spectrum.eigenvalues)
    first_components = basis[0, :]
    amplitudes = np.empty((len(times), H.size), dtype=complex)
    for i, t in enumerate(times):
        amplitudes[i] = basis @ (np.exp(1j * t * lams) * first_components)
    try:
        return AmplitudeTrace(times, amplitudes)
    except ValueError as exc:  # eigenvectors of close eigenvalue pairs are not reorthogonalized
        raise InternalCheckFailed(f"evolve: {exc}") from exc


def fidelity(H: JacobiMatrix, t: float) -> float:
    """Probability |<e_N| e^{itH} e_0>|^2 of finding the excitation at the far end."""
    amplitude = evolve(H, (t,)).amplitudes[0]
    return float(abs(amplitude[-1]) ** 2)


def check_pst1_spectrum(spectrum: Spectrum, T: float, phi: float, tolphase: float) -> bool:
    """True iff every phase T lambda_k + phi is within tolphase of (N + k) pi
    modulo 2 pi."""
    top = len(spectrum.eigenvalues) - 1
    for k, lam in enumerate(spectrum.eigenvalues):
        drift = math.remainder(T * lam + phi - (top + k) * math.pi, TWO_PI)
        if not abs(drift) <= tolphase:  # a NaN drift or tolphase certifies nothing
            return False
    return True


def _ratio_to_fraction(ratio: float, max_denominator: int, accuracy: float) -> Fraction:
    """Best rational n/d with d <= max_denominator within accuracy of ratio.

    Walks the continued-fraction convergents of the exact binary value of
    the float; raises IncommensurableSpectrum when no convergent inside
    the denominator bound is accurate enough.
    """
    if ratio <= 0:
        raise IncommensurableSpectrum(f"gap ratio {ratio} must be positive")
    exact = Fraction(ratio)
    whole = math.floor(ratio)
    fractional = exact - whole
    candidates = [Fraction(whole)]
    if fractional:
        cf = expand_euclid(fractional.numerator, fractional.denominator, "canonical")
        for pair in convergents(cf):
            if pair.p > max_denominator:
                break  # denominators only grow from here
            candidates.append(whole + Fraction(pair.q, pair.p))
    bound = Fraction(accuracy)
    for candidate in candidates:
        if candidate > 0 and abs(exact - candidate) <= bound:
            return candidate
    raise IncommensurableSpectrum(
        f"no rational approximation of gap ratio {ratio} with denominator "
        f"<= {max_denominator} within {accuracy}"
    )


def verify_pst(H: JacobiMatrix, tol: float = 1e-12) -> PstCertificate:
    """Decide perfect state transfer for H and return the certificate (T, phi).

    Checks mirror symmetry at tolerance tol scaled by the Gershgorin
    radius, reconstructs the gap ratios as rationals at accuracy tol,
    reduces to the least common odd scaling (T Delta_k must be odd
    multiples of pi), and fixes phi from the lowest eigenvalue.  For a
    1x1 chain any T works; T = pi is the convention here.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    lo, hi = gershgorin_interval(H)
    scale = max(1.0, abs(lo), abs(hi))
    if not is_persymmetric(H, tol * scale):
        raise NotPersymmetric(f"matrix is not mirror symmetric within {tol * scale:.3e}")
    spectrum = eigenvalues(H)
    lams = spectrum.eigenvalues
    top = len(lams) - 1
    if top == 0:
        T = math.pi
    else:
        gaps = [lams[k + 1] - lams[k] for k in range(top)]
        ratios = [gap / gaps[0] for gap in gaps]
        fractions = [_ratio_to_fraction(r, RATIO_DENOMINATOR_BOUND, tol) for r in ratios]
        common = math.lcm(*(f.denominator for f in fractions))
        odd_multiples = [(common // f.denominator) * f.numerator for f in fractions]
        if common % 2 == 0 or any(m % 2 == 0 for m in odd_multiples):
            raise NoOddScaling(
                f"gaps are commensurable with pi multiples {odd_multiples}, "
                "which cannot all be odd under any common rescaling"
            )
        T = math.pi * sum(odd_multiples) / (lams[-1] - lams[0])
    phi = ((top % 2) * math.pi - T * lams[0]) % TWO_PI
    spectral_radius = max(abs(lams[0]), abs(lams[-1]))
    tolphase = 1e-8 * (1.0 + abs(T) * spectral_radius)
    if not check_pst1_spectrum(spectrum, T, phi, tolphase):
        raise IncommensurableSpectrum(
            "reconstructed transfer time fails the phase alignment check; "
            "the spectrum is not commensurable at the requested accuracy"
        )
    return PstCertificate(float(T), float(phi), spectrum)


def design_persymmetric(spectrum: Spectrum) -> JacobiMatrix:
    """Persymmetric Jacobi matrix with the prescribed eigenvalues.

    Spectral weights w_k^2 proportional to 1 / prod_{j != k}
    |lambda_k - lambda_j| define the discrete measure of the mirror
    symmetric chain; a fully reorthogonalized Lanczos pass on
    diag(lambda) started from the weight vector reads off the recurrence
    coefficients.  The result is validated against the contract
    (persymmetry within 1e-10, eigenvalues within delta = 1e-8, both
    scaled by max(1, max |lambda|)); InternalCheckFailed names the first
    index that fails.

    The eigenvalues are certified, not recomputed: one Sturm count of the
    designed chain at the 2N shifts lambda_k -+ delta.  count(lambda_k -
    delta) <= k says that at most k eigenvalues lie below lambda_k - delta,
    and k < count(lambda_k + delta) that at least k + 1 lie below
    lambda_k + delta, so the k-th eigenvalue lies in [lambda_k - delta,
    lambda_k + delta] (Sylvester's law of inertia; an exact hit counts as
    below).  No gap condition is needed.
    """
    lams = np.asarray(spectrum.eigenvalues, dtype=float)
    n = lams.size
    if n == 1:
        return JacobiMatrix((float(lams[0]),))
    scale = max(1.0, float(np.abs(lams).max()))
    if float(np.diff(lams).min()) <= 1e-14 * scale:
        raise DegenerateSpectrum("eigenvalues too close to resolve the weight formula")

    # log-space: the products overflow from N ~ 170 on (equally spaced spectrum)
    log_weights = np.array([-np.log(np.abs(lams[k] - np.delete(lams, k))).sum() for k in range(n)])
    weights_sq = np.exp(log_weights - log_weights.max())
    weights_sq /= weights_sq.sum()
    start = np.sqrt(weights_sq)

    basis = np.zeros((n, n))
    basis[:, 0] = start
    diag = np.empty(n)
    off = np.empty(n - 1)
    vector = start
    for j in range(n):
        work = lams * vector
        diag[j] = float(vector @ work)
        work = work - diag[j] * vector
        if j > 0:
            work = work - off[j - 1] * basis[:, j - 1]
        for _ in range(2):  # full reorthogonalization, applied twice
            work = work - basis[:, : j + 1] @ (basis[:, : j + 1].T @ work)
        if j == n - 1:
            break
        norm = float(np.linalg.norm(work))
        if norm <= 1e-13 * scale:
            raise DegenerateSpectrum("discrete measure collapsed during orthogonalization")
        off[j] = norm
        vector = work / norm
        basis[:, j + 1] = vector

    designed = JacobiMatrix(tuple(map(float, diag)), tuple(map(float, off)))
    if not is_persymmetric(designed, 1e-10 * scale):
        raise InternalCheckFailed("designed matrix failed its persymmetry contract")
    delta = 1e-8 * scale
    below, above = _count_less(_scaled(designed), (lams - delta, lams + delta))
    index = np.arange(n)
    missed = np.flatnonzero((below > index) | (above <= index))
    if missed.size:
        k = int(missed[0])
        raise InternalCheckFailed(
            f"designed matrix failed its spectrum contract at eigenvalue {k}: "
            f"{below[k]} eigenvalues lie below {lams[k]:.17g} - {delta:.3e} and {above[k]} "
            f"below {lams[k]:.17g} + {delta:.3e}, where at most {k} and more than {k} are due"
        )
    return designed
