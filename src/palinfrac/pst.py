"""Perfect quantum state transfer on mirror-symmetric Jacobi chains.

A chain with Hamiltonian H realizes perfect transfer when
e^{i phi} e^{i T H} e_0 = e_N for some time T > 0 and phase phi.
Equivalently the matrix is persymmetric and every phase T lambda_k + phi
lands on (N + k) pi modulo 2 pi, which pins T through the eigenvalue
gaps: T Delta_k must be an odd multiple of pi for every gap
Delta_k = lambda_{k+1} - lambda_k.

`verify_pst` decides the gap condition by rational reconstruction of the
ratios Delta_k / Delta_0 with continued-fraction convergents, each at the
accuracy it carries when every gap may be off by tol * ||H||_inf and with
denominators bounded by that accuracy, reduces them to the least common
odd multiple scaling, and returns the minimal admissible T together with
phi normalized into [0, 2 pi).  The spectrum is recomputed from H, and the
certificate is checked against the phase condition before it is returned.
All of it runs on one budget, tau = tol * ||H||_inf, the tolerance of the
certificate's Spectrum: the mirror test, the separation, the gap ratios,
and the phase check, whose window is 4 |T| tau; a window of pi or more
cannot tell one phase from another, so it certifies nothing.

`verify_pst` and `evolve` prepare each chain once (`jacobi._prepare`)
and take it as `jacobi` hands it over; they do not branch on its shape,
and they read the one spectrum `jacobi` solves for it, that of
`eigenvalues`.
`jacobi` folds a chain that is mirrored exactly (`is_persymmetric(H, 0.0)`,
two or more sites): its eigenvectors are symmetric or antisymmetric, and
each kind is that of a half chain, S or A, of about N / 2 sites (Cantoni
& Butler 1976; `jacobi._Fold`).  The eigenvalues of both halves are then
counted in one pivot table of half the rows, and the eigenvectors of the
halves are unfolded, so a symmetric and an antisymmetric vector are
orthogonal however close their eigenvalues lie.  Any other chain, one
mirrored only within a tolerance too, is solved whole.

`design_persymmetric` inverts the problem on the half: given a prescribed
spectrum it splits it into the eigenvalues of S and of A (`jacobi._kinds`:
the top one, and every second one below it, are those of S), forms the
weights of S at its mirror-end site, w_j^2 proportional to
|P_A(mu_j)| / |P_S'(mu_j)| over the eigenvalues mu_j of S (summed as
logarithms over the differences mu_j - nu_k and mu_j - mu_k, so the
products cannot overflow, and normalized to sum 1), and runs Lanczos on
the diagonal matrix of the mu_j started from the weight vector, each step
one projection of mu q_j on the complement of q_0..q_j, applied twice.
The recurrence coefficients are S read from the mirror outwards; reversed
and unfolded by `jacobi._unfold`, the inverse of the fold, they give a
chain mirrored exactly.  The
construction is not taken on faith: it validates its own contract before
returning, persymmetry entry by entry and the spectrum of the whole chain
by a two-count certificate, one pivot count at every lambda_k - delta and
lambda_k + delta, with no bisection.  The construction runs on the
spectrum scaled by the power of 2 that brings max |lambda| into [1/2, 1),
and the count on the chain scaled as `jacobi` scales it, so neither can
overflow, and every threshold is relative to the spectrum at any scale.
Likewise every default tolerance of `verify_pst` and `evolve` is relative
to ||H||_inf, with no floor at 1.
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
    ToleranceTooLoose,
)
from .jacobi import (
    JacobiMatrix,
    Spectrum,
    _count_less,
    _eigenbasis,
    _kinds,
    _multisection,
    _prepare,
    _scaled,
    _spectrum,
    _unfold,
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
]

TWO_PI = 2.0 * math.pi


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


def evolve(H: JacobiMatrix, times: Sequence[float]) -> AmplitudeTrace:
    """e^{itH} e_0 for each t, via the spectral decomposition of H.

    The eigenvalues are the multisection of the prepared chain
    (`jacobi._multisection`), the spectrum `eigenvalues` returns, taken
    in the scaled units of the chain: no Spectrum is formed, and the phases
    are (t / factor) lambda, with lambda scaled by the power of 2 factor.
    So a chain whose spectrum lies in the subnormals or past the largest
    double evolves like 2^k H, and neither rounding nor the separation of
    a Spectrum stands between the eigenvalues and the eigenbasis.

    Raises ValueError for a NaN or infinite time, and OutOfRange when
    max |t| * ||H|| exceeds 2^53, with ||H|| the Gershgorin bound on every
    |lambda|: beyond it neighbouring doubles lie 2 or more apart, so the
    rounding of t lambda alone can move the phase of e^{it lambda} by a
    radian.  One separation rule holds: ToleranceTooLoose is raised when
    two eigenvalues whose eigenvectors are not orthogonal by construction
    lie within 1e-12 * ||H||_inf of each other (`jacobi._eigenbasis`).
    On a chain solved whole that is any two; on an exact mirror, which
    `jacobi` folds, two of one kind (`jacobi._kinds`), as a symmetric and
    an antisymmetric vector are orthogonal however close their
    eigenvalues lie.  So evolve(2^k H, t / 2^k) is evolve(H, t) at every
    scale.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(t) for t in times):
        raise ValueError("evolve needs finite times")
    s, _ = prepared = _prepare(H)
    reach = max(map(abs, times), default=0.0) / s.factor * s.norm
    if reach > 2.0**53:
        raise OutOfRange(f"max |t| * ||H|| = {reach:.3e} exceeds 2^53: phases lost to rounding")
    lams = _multisection(prepared)  # scaled as the chain, which (t / factor) undoes
    basis = _eigenbasis(prepared, lams)
    amplitudes = (np.exp(1j * np.multiply.outer([t / s.factor for t in times], lams)) * basis[0]) @ basis.T
    try:
        return AmplitudeTrace(times, amplitudes)
    except ValueError as exc:  # eigenvectors of close eigenvalue pairs of a chain that does not fold
        raise InternalCheckFailed(f"evolve: {exc}") from exc


def fidelity(H: JacobiMatrix, t: float) -> float:
    """Probability |<e_N| e^{itH} e_0>|^2 of finding the excitation at the far end."""
    amplitude = evolve(H, (t,)).amplitudes[0]
    return float(abs(amplitude[-1]) ** 2)


def check_pst1_spectrum(spectrum: Spectrum, T: float, phi: float, tolphase: float) -> bool:
    """True iff every phase T lambda_k + phi is within tolphase of (N + k) pi
    modulo 2 pi; False for a NaN or infinite phase, and for a tolphase of
    pi or more (or NaN), as every phase lies within pi of (N + k) pi."""
    top = len(spectrum.eigenvalues) - 1
    for k, lam in enumerate(spectrum.eigenvalues):
        phase = T * lam + phi - (top + k) * math.pi
        # an infinite or NaN phase, or a NaN window or one of pi or more, certifies nothing
        if not (math.isfinite(phase) and abs(math.remainder(phase, TWO_PI)) <= tolphase < math.pi):
            return False
    return True


def _ratio_to_fraction(ratio: float, max_denominator: int, accuracy: float) -> Fraction:
    """Best rational n/d with d <= max_denominator within accuracy of ratio.

    Walks the continued-fraction convergents of the exact binary value of
    the float, its integer part first; raises IncommensurableSpectrum when
    no convergent inside the denominator bound is accurate enough.  Each
    candidate c/d is tested in integers, |num d - c den| acc_d <= acc_n den d
    with ratio = num/den and accuracy = acc_n/acc_d exactly.
    """
    if ratio <= 0:
        raise IncommensurableSpectrum(f"gap ratio {ratio} must be positive")
    num, den = ratio.as_integer_ratio()
    acc_num, acc_den = accuracy.as_integer_ratio()
    whole, rest = divmod(num, den)
    candidates = [(whole, 1)]
    if rest:
        for pair in convergents(expand_euclid(rest, den, "canonical")):
            if pair.p > max_denominator:
                break  # denominators only grow from here
            candidates.append((whole * pair.p + pair.q, pair.p))
    for c, d in candidates:
        if c > 0 and abs(num * d - c * den) * acc_den <= acc_num * den * d:
            return Fraction(c, d)
    raise IncommensurableSpectrum(
        f"no rational approximation of gap ratio {ratio} with denominator "
        f"<= {max_denominator} within {accuracy}"
    )


def verify_pst(H: JacobiMatrix, tol: float = 1e-12) -> PstCertificate:
    """Decide perfect state transfer for H and return the certificate (T, phi).

    Every test reads tol one way, as tau = tol * ||H||_inf.  It checks
    mirror symmetry within tau, solves the spectrum at the separation tau,
    equal bit for bit to eigenvalues(H, tol) and its tolerance,
    reconstructs each gap ratio r_k = Delta_k / Delta_0 as a rational c/d,
    reduces to the least common odd scaling (T Delta_k must be odd
    multiples of pi), and fixes phi from the lowest eigenvalue.  c/d must
    lie within a_k = min(1, tau * (1 + r_k) / Delta_0) of r_k, the error
    of r_k when Delta_k and Delta_0 are each off by tau, and
    d <= a_k^(-1/2), as every real lies within 1/d^2 of a convergent c/d,
    so a larger d could match by chance.
    The phases T lambda_k + phi must then lie within 4 T tau of
    (N + k) pi modulo 2 pi (`check_pst1_spectrum`).  Why 4: let each
    lambda_k lie within tau of a spectrum that transfers at T* with the
    same odd multiples M_k, so T* (lambda*_k - lambda*_0) = M_k pi.  Then
    T (lambda_k - lambda_0) - M_k pi takes 2 T tau from lambda_k - lambda_0,
    and at most 2 T tau more from T itself, which is read off the measured
    span; so a spectrum within tau of a transfer always passes.  Where
    4 T tau reaches pi the check can tell no phase from another, and
    IncommensurableSpectrum is raised.
    The gaps are taken in the scaled units of the chain, exact where
    those of H would round in the subnormals.  Every tolerance is relative
    to H, so 2^k H gives T / 2^k and the same phi; OutOfRange is raised
    where T lies past the largest double, before the phase check.  For a
    1x1 chain any T works; T = pi is the convention here.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    s, _ = prepared = _prepare(H)
    sym_tol = tol * s.norm / s.factor  # tol * ||H||_inf
    if not is_persymmetric(H, sym_tol):
        raise NotPersymmetric(f"matrix is not mirror symmetric within {sym_tol:.3e}")
    spectrum = _spectrum(prepared, tol)
    lams = spectrum.eigenvalues
    top = len(lams) - 1
    if top == 0:
        T = math.pi
    else:
        scaled = [lam * s.factor for lam in lams]  # exact; their gaps cannot overflow
        gaps = [scaled[k + 1] - scaled[k] for k in range(top)]
        ratios = [gap / gaps[0] for gap in gaps]
        accuracies = [min(1.0, tol * s.norm * (1 + r) / gaps[0]) for r in ratios]
        fractions = [_ratio_to_fraction(r, int(a**-0.5), a) for r, a in zip(ratios, accuracies)]
        common = math.lcm(*(f.denominator for f in fractions))
        odd_multiples = [(common // f.denominator) * f.numerator for f in fractions]
        if any(m % 2 == 0 for m in odd_multiples):  # odd_multiples[0] is common
            raise NoOddScaling(
                f"gaps are commensurable with pi multiples {odd_multiples}, "
                "which cannot all be odd under any common rescaling"
            )
        T = math.pi * sum(odd_multiples) / (scaled[-1] - scaled[0]) * s.factor
        if not math.isfinite(T):  # the gaps are commensurable, but no double holds T
            raise OutOfRange(f"T = {sum(odd_multiples)} pi / (lambda_N - lambda_0) lies past the largest double")
    phi = ((top % 2) * math.pi - T * lams[0]) % TWO_PI
    if not check_pst1_spectrum(spectrum, T, phi, 4 * T * spectrum.tolerance):
        raise IncommensurableSpectrum(
            "reconstructed transfer time fails the phase alignment check; "
            "the spectrum is not commensurable at the requested accuracy"
        )
    return PstCertificate(float(T), float(phi), spectrum)


def design_persymmetric(spectrum: Spectrum) -> JacobiMatrix:
    """Persymmetric Jacobi matrix with the prescribed eigenvalues.

    The chain is designed on its symmetric half S (`jacobi._Fold`), whose
    eigenvalues are lambda_top, lambda_top-2, ...; the others are those of
    the antisymmetric half A (Hochstadt 1974; Hald 1976).  Spectral weights
    w_j^2 proportional to |P_A(lambda_j)| / |P_S'(lambda_j)| over the
    eigenvalues lambda_j of S define the discrete measure of S at its
    mirror-end site, and a Lanczos pass on the diagonal matrix of those
    eigenvalues started from the weight vector reads S off the recurrence
    coefficients, from the mirror outwards.  Each step takes
    w = mu * q_j, alpha_j = q_j . w, projects w on the complement of
    q_0..q_j twice (twice is enough: Daniel, Gragg, Kaufman & Stewart
    1976), which also removes the three-term part, and sets beta_j = ||w||.
    Reversed, S unfolds into the chain (`jacobi._unfold`), mirrored
    exactly: for even N the middle coupling is b = (trace S - trace A) / 2,
    which the two sites it joins lose from their diagonal; for odd N the
    last coupling of S is sqrt(2) times that of the chain.  The weights of
    the half span a few nats, where those of the whole chain at its end
    site span hundreds and underflow from N ~ 1000 on.  All of it runs on
    mu = lambda / 2^e, 2^e the power of 2 that brings max |lambda| into
    [1/2, 1), and the chain is multiplied by 2^e at the end, so a spectrum
    spread near the largest double cannot overflow and the design of
    2^k lambda is 2^k times that of lambda.  The result is validated
    against the contract (persymmetry within 1e-10, eigenvalues within
    delta = 1e-8, both times max |lambda|); InternalCheckFailed names the
    first index that fails.  Entries that fall below the normal doubles
    round, which can move an eigenvalue by up to 1.5 * 2^-1074; where
    delta is below twice 2^-1074 (max |lambda| below about 1e-315) that
    alone can miss the contract, so a miss there is OutOfRange.

    The eigenvalues are certified, not recomputed: one Sturm count of the
    returned chain, in the scaled units `jacobi` counts it in, at the 2N
    shifts lambda_k -+ delta, each times the power of 2 of that scaling,
    which cannot overflow.  count(lambda_k - delta) <= k says that at most
    k eigenvalues lie below lambda_k - delta, and k < count(lambda_k + delta)
    that at least k + 1 lie below lambda_k + delta, so the k-th eigenvalue
    lies in [lambda_k - delta, lambda_k + delta] (Sylvester's law of
    inertia; an exact hit counts as below).  No gap condition is needed.
    """
    lams = np.asarray(spectrum.eigenvalues, dtype=float)
    n = lams.size
    if n == 1:
        return JacobiMatrix((float(lams[0]),))
    scale = float(np.abs(lams).max())  # > 0, as n >= 2
    e = math.frexp(scale)[1]
    mus = np.ldexp(lams, -e)  # in (-1, 1): gaps, weights and Lanczos cannot overflow
    if float(np.diff(mus).min()) <= 1e-14:
        raise DegenerateSpectrum("eigenvalues too close to resolve the weight formula")

    # the eigenvalues of S and of A, and the weights of S at its mirror-end
    # site, w_j^2 ~ |P_A(mu_j)| / |P_S'(mu_j)|, summed as logarithms
    sym, anti = (mus[kind] for kind in _kinds(n))
    log_weights = np.log(np.abs(np.subtract.outer(sym, anti))).sum(axis=1)
    log_weights -= np.log(np.abs(np.subtract.outer(sym, sym)) + np.eye(sym.size)).sum(axis=1)
    weights_sq = np.exp(log_weights - log_weights.max())

    # Lanczos on diag(mu_j) from the weight vector, one projection applied twice
    basis = np.zeros((sym.size, sym.size))
    basis[:, 0] = np.sqrt(weights_sq / weights_sq.sum())
    off = np.empty(sym.size - 1)
    for j in range(sym.size - 1):
        work = sym * basis[:, j]
        for _ in range(2):
            work -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ work)
        off[j] = np.linalg.norm(work)
        if off[j] <= 1e-13:
            raise DegenerateSpectrum("discrete measure collapsed during orthogonalization")
        basis[:, j + 1] = work / off[j]
    diag = np.einsum("ij,i,ij->j", basis, sym, basis)  # alpha_j = q_j . mu q_j

    # S, reversed to run from site 0 to the mirror, unfolds into the chain;
    # for even n, trace S - trace A = 2 b_{m-1}
    diag, off = _unfold(diag[::-1], off[::-1], n, float(sym.sum() - anti.sum()) / 2)
    designed = JacobiMatrix(np.ldexp(diag, e), np.ldexp(off, e))
    if not is_persymmetric(designed, 1e-10 * scale):
        raise InternalCheckFailed("designed matrix failed its persymmetry contract")
    delta = 1e-8 * scale
    # the chain as returned, rounded where it lies below the normal doubles, in jacobi's units
    s = _scaled(designed)
    below, above = _count_less(s, lams * s.factor + np.array([[-delta], [delta]]) * s.factor)
    index = np.arange(n)
    missed = np.flatnonzero((below > index) | (above <= index))
    if missed.size:
        k = int(missed[0])
        # rounding the chain into doubles moves an eigenvalue by up to 1.5 * 2^-1074,
        # more than a delta that small can absorb
        error = InternalCheckFailed if delta >= 2 * math.ulp(0.0) else OutOfRange
        raise error(
            f"designed matrix failed its spectrum contract at eigenvalue {k}: "
            f"{below[k]} eigenvalues lie below {lams[k]:.17g} - {delta:.3e} and {above[k]} "
            f"below {lams[k]:.17g} + {delta:.3e}, where at most {k} and more than {k} are due"
        )
    return designed
