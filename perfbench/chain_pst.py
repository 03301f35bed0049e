"""Workload chain-pst: the float layers `jacobi` and `pst` on chains of N sites.

Chosen because Sturm bisection in `jacobi.eigenvalues` is a scalar Python
loop whose cost grows as N^2; `verify_pst`, `evolve` and the contract check
of `design_persymmetric` run it again, so it sets the time of almost every
op here.  Sizes N = 16, 64, 256 keep N^2 visible while a pass stays near
ten seconds.  The counts put the median in the middle of the N = 16 ops
and the 90th percentile in the middle of the N = 64 ops, each a cluster
well apart from the next, so that neither percentile reads the tail of a
cluster, which moves with every hiccup of the host.  The chains are
shuffled so that every size is spread over the pass.

Inputs, all built from the seed (see SCALES for the counts per size; the
random and mirror-broken chains are at N = 16 and 64 only):

* Krawtchouk chains, b_k = sqrt((k+1)(N-k-1))/2: spectrum k - (N-1)/2,
  T = pi, fidelity 1 (closed form).
* Odd-gap spectra, gaps drawn from {1, 3, 5}, taken through
  `design_persymmetric`: the designed chain must have the prescribed
  spectrum and transfer time pi / gcd(gaps).
* Random persymmetric chains (Krawtchouk couplings and a zero diagonal,
  mirror-symmetrically perturbed by up to 5%): `verify_pst` must reject
  them with a typed error, or return a certificate that a dense
  `numpy.linalg.eigh` evolution confirms.
* Mirror-broken chains (one end coupling of a random chain scaled by
  1.01): `verify_pst` must raise NotPersymmetric.

Every oracle is numpy's dense eigensolver or a closed form; none reuses
the Sturm code it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from palinfrac import jacobi, pst
from harness import calibration_loop, expect_error, expect_value, mirror

# (N, Krawtchouk, odd-gap, random, mirror-broken) chains per pass
SCALES = {
    "full": ((16, 1, 14, 12, 7), (64, 1, 2, 2, 1), (256, 1, 1, 0, 0)),
    "tiny": ((8, 1, 1, 1, 1), (16, 1, 1, 1, 1)),
}
IMPORTS = "palinfrac"
reference = calibration_loop  # this workload's reference work
REFERENCE_EVERY_S = 0.25
GRID_POINTS = 8
REJECTIONS = ("IncommensurableSpectrum", "NoOddScaling")


@dataclass(frozen=True)
class Chain:
    kind: str
    size: int
    matrix: jacobi.JacobiMatrix | None  # None for a chain still to be designed
    spectrum: tuple[float, ...] | None  # closed-form spectrum, when known
    T: float | None  # closed-form transfer time, when known


def krawtchouk_couplings(n: int) -> list[float]:
    return [math.sqrt((k + 1) * (n - k - 1)) / 2 for k in range(n - 1)]


def build_inputs(seed: int, scale: str = "full") -> list[Chain]:
    rng = random.Random(f"chain-pst:{seed}")
    chains = []
    for n, krawtchouk, odd_gap, rand, broken in SCALES[scale]:
        for _ in range(krawtchouk):
            matrix = jacobi.JacobiMatrix([0.0] * n, krawtchouk_couplings(n))
            chains.append(Chain("krawtchouk", n, matrix, tuple(k - (n - 1) / 2 for k in range(n)), math.pi))
        for _ in range(odd_gap):
            gaps = [rng.choice((1, 3, 5)) for _ in range(n - 1)]
            levels = np.concatenate(([0.0], np.cumsum(gaps, dtype=float)))
            levels -= levels[-1] / 2  # half-integers: exact in floating point
            chains.append(Chain("odd-gap", n, None, tuple(levels), math.pi / math.gcd(*gaps)))
        for index in range(rand + broken):
            diag = mirror([0.05 * rng.uniform(-1, 1) for _ in range((n + 1) // 2)], n)
            stretch = mirror([1 + 0.05 * rng.uniform(-1, 1) for _ in range(n // 2)], n - 1)
            off = [b * s for b, s in zip(krawtchouk_couplings(n), stretch)]
            kind = "random"
            if index >= rand:
                kind = "mirror-broken"
                off[0] *= 1.01
            chains.append(Chain(kind, n, jacobi.JacobiMatrix(diag, off), None, None))
    rng.shuffle(chains)  # spread each size over the pass, so host-speed drift hits all alike
    return chains


# -- oracles -------------------------------------------------------------------


def _dense_amplitudes(matrix: jacobi.JacobiMatrix, times) -> np.ndarray:
    """Rows e^{itH} e_0 from numpy's dense eigensolver."""
    w, v = np.linalg.eigh(matrix.dense())
    phases = np.exp(1j * np.outer(np.asarray(times, dtype=float), w))
    return (phases * v[0, :]) @ v.T


def _scale(values) -> float:
    return max(1.0, float(np.abs(np.asarray(values)).max()))


def _spectrum_check(run, expected):
    expected = np.asarray(expected, dtype=float)

    def check(spectrum):
        got = np.asarray(spectrum.eigenvalues)
        if got.shape != expected.shape:
            return f"{got.size} eigenvalues, expected {expected.size}"
        err = float(np.abs(got - expected).max())
        run.note_max("jacobi.eigenvalues.max_err", err)
        if err > 1e-9 * _scale(expected):
            return f"eigenvalue off by {err:.3e}"
        run.note_add("jacobi.eigenvalues.eigs", got.size)
        return None

    return check


def _certificate_check(matrix, T_expected):
    def check(cert):
        if T_expected is not None and abs(cert.T - T_expected) > 1e-8 * T_expected:
            return f"T = {cert.T!r}, expected {T_expected!r}"
        # e^{i phi} e^{i T H} e_0 = e_N, so the far-end amplitude is e^{-i phi}
        far = _dense_amplitudes(matrix, [cert.T])[0, -1]
        miss = abs(far - np.exp(-1j * cert.phi))
        if miss > 1e-6:
            return f"dense evolution misses the certificate by {miss:.3e}"
        return None

    return check


def _trace_check(matrix, times):
    def check(trace):
        dense = _dense_amplitudes(matrix, times)
        err = float(np.abs(np.asarray(trace.amplitudes) - dense).max())
        if err > 1e-7:
            return f"amplitudes off the dense evolution by {err:.3e}"
        fidelity = abs(trace.amplitudes[-1][-1]) ** 2
        if fidelity < 1 - 1e-7:
            return f"fidelity {fidelity!r} at T"
        return None

    return check


def _design_check(spectrum):
    def check(matrix):
        n = matrix.size
        scale = _scale(spectrum)
        mirror = max(
            max(abs(matrix.diag[k] - matrix.diag[n - 1 - k]) for k in range(n)),
            max((abs(matrix.offdiag[k] - matrix.offdiag[n - 2 - k]) for k in range(n - 1)), default=0.0),
        )
        if mirror > 1e-10 * scale:
            return f"designed chain is not mirror symmetric ({mirror:.3e})"
        err = float(np.abs(np.linalg.eigvalsh(matrix.dense()) - np.asarray(spectrum)).max())
        if err > 1e-8 * scale:
            return f"designed chain misses its spectrum by {err:.3e}"
        return None

    return check


def _rejection_check(matrix):
    """A random chain: a typed rejection, or a certificate dense evolution confirms."""
    confirm = _certificate_check(matrix, None)

    def oracle(cert, error):
        if error is not None:
            return expect_error(*REJECTIONS)(None, error)
        return confirm(cert)

    return oracle


# -- the pass ------------------------------------------------------------------


def run_chain(run, chain: Chain) -> None:
    size = f"N{chain.size}"
    matrix, ready = chain.matrix, True
    with run.task(chain.kind):
        if chain.kind == "odd-gap":
            spectrum = jacobi.Spectrum(chain.spectrum, 1e-12)
            ready, matrix = run.op(
                "pst.design_persymmetric", size,
                lambda: pst.design_persymmetric(spectrum), expect_value(_design_check(chain.spectrum)),
            )
        expected = chain.spectrum
        if expected is None and matrix is not None:
            expected = np.linalg.eigvalsh(matrix.dense())
        run.op("jacobi.eigenvalues", size, lambda: jacobi.eigenvalues(matrix),
               expect_value(_spectrum_check(run, expected)), ready)
        if chain.kind == "mirror-broken":
            run.op("pst.verify_pst", size, lambda: pst.verify_pst(matrix), expect_error("NotPersymmetric"))
            return
        if chain.kind == "random":
            run.op("pst.verify_pst", size, lambda: pst.verify_pst(matrix), _rejection_check(matrix))
            return
        run.op("pst.verify_pst", size, lambda: pst.verify_pst(matrix),
               expect_value(_certificate_check(matrix, chain.T)), ready)
        times = [chain.T * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
        run.op("pst.evolve", size, lambda: pst.evolve(matrix, times),
               expect_value(_trace_check(matrix, times)), ready)


def run_pass(run, chains: list[Chain]) -> None:
    for chain in chains:
        run_chain(run, chain)
