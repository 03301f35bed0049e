import contextlib
import io
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import palinfrac.jacobi as jacobi_module
import palinfrac.pst as pst_module
from genutil import krawtchouk, perturb_asymmetric, random_jacobi, random_mirror, random_persymmetric, wilkinson
from palinfrac.errors import (
    DegenerateSpectrum,
    PalinfracError,
    IncommensurableSpectrum,
    InternalCheckFailed,
    NoOddScaling,
    NotAnEigenvalue,
    NotPersymmetric,
    OutOfRange,
    ToleranceTooLoose,
)
from palinfrac.jacobi import (
    JacobiMatrix,
    Spectrum,
    _unfold,
    eigenvalues,
    eigenvectors,
    is_persymmetric,
    normalized_poly_sequence,
)
from palinfrac.numeric_cf import convergents, expand_euclid
from palinfrac.pst import (
    AmplitudeTrace,
    _ratio_to_fraction,
    check_pst1_spectrum,
    design_persymmetric,
    evolve,
    fidelity,
    verify_pst,
)


def expm_amplitudes(H: JacobiMatrix, t: float) -> np.ndarray:
    """Independent oracle: dense matrix exponential applied to e_0."""
    unitary = scipy.linalg.expm(1j * t * H.dense())
    return unitary[:, 0]


class TestVerify:
    def test_worked_example(self, chain3):
        cert = verify_pst(chain3)
        assert cert.T == pytest.approx(math.pi, abs=1e-10)
        assert cert.phi == pytest.approx(math.pi, abs=1e-10)
        assert cert.spectrum.eigenvalues == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)

    def test_two_site_half_coupling(self):
        cert = verify_pst(JacobiMatrix((0.0, 0.0), (0.5,)))
        assert cert.T == pytest.approx(math.pi, abs=1e-10)
        assert cert.phi == pytest.approx(1.5 * math.pi, abs=1e-10)
        # both phase equations hold: e^{i(T l_k + phi)} = (-1)^(1+k)
        assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 1e-8)

    def test_single_site_convention(self):
        cert = verify_pst(JacobiMatrix((0.7,), ()))
        assert cert.T == math.pi
        assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 1e-8)

    def test_nan_certifies_nothing(self, chain3):
        cert = verify_pst(chain3)
        assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 1e-8)
        assert not check_pst1_spectrum(cert.spectrum, math.nan, cert.phi, 1e-8)
        assert not check_pst1_spectrum(cert.spectrum, cert.T, math.nan, 1e-8)
        assert not check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, math.nan)

    @pytest.mark.parametrize("T, phi", [(math.inf, 0.0), (-math.inf, 0.0), (1.0, math.inf), (1.7e308, 1.7e308)])
    def test_infinite_phase_certifies_nothing(self, chain3, T, phi):
        # math.remainder of an infinite phase raised "math domain error";
        # the last pair overflows T * lambda + phi to inf at lambda = 1
        cert = verify_pst(chain3)
        assert not check_pst1_spectrum(cert.spectrum, T, phi, 1e-8)
        assert not check_pst1_spectrum(cert.spectrum, T, phi, math.inf)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_tolerance(self, chain3, tol):
        with pytest.raises(ValueError):
            verify_pst(chain3, tol)

    def test_not_persymmetric(self):
        with pytest.raises(NotPersymmetric):
            verify_pst(JacobiMatrix((0.0, 1.0, 2.0), (1.0, 1.0)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm(self):
        # ||H||_inf = 3e308 overflowed to a symmetry tolerance of inf, so the
        # asymmetric chain passed; the spread 2e308 of the symmetric one made
        # its gap ratio NaN
        with pytest.raises(NotPersymmetric):
            verify_pst(JacobiMatrix((1e308, -1e308), (1e308,)))
        h = JacobiMatrix((0.0, 0.0), (1e308,))
        cert = verify_pst(h)
        assert cert.spectrum.eigenvalues == (-1e308, 1e308)
        assert cert.T == pytest.approx(math.pi / 2 * 1e-308, rel=1e-12)
        assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 1e-8)
        assert fidelity(h, cert.T) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [eigenvalues, verify_pst])
    def test_eigenvalue_past_the_largest_double_is_out_of_range(self, call):
        # the lowest eigenvalue is -2e308: its bracket ended at -inf, which was
        # returned and then rejected by Spectrum with an untyped ValueError
        with pytest.raises(OutOfRange, match="eigenvalue 0 lies past the largest double"):
            call(JacobiMatrix((-1e308, -1e308), (1e308,)))

    @pytest.mark.filterwarnings("error")
    def test_evolve_past_the_largest_double_runs_in_scaled_units(self):
        # evolve never brings the eigenvalues back to the units of H: its
        # phases are (t / factor) times those of the scaled chain, so the
        # eigenvalue -2e308 is no error there
        h = JacobiMatrix((-1e308, -1e308), (1e308,))
        assert np.abs(evolve(h, (0.0,)).amplitudes[0] - [1.0, 0.0]).max() <= 1e-15
        factor = jacobi_module._scaled(h).factor
        w, v = np.linalg.eigh(h.dense() * factor)
        dense = v @ (np.exp(1j * (1e-300 / factor) * w) * v[0])
        assert np.abs(evolve(h, (1e-300,)).amplitudes[0] - dense).max() <= 1e-6

    def test_even_gap_multiple_has_no_odd_scaling(self):
        # spectrum {-1, 0, 2}: gaps 1 and 2, so T would need an even pi multiple
        with pytest.raises(NoOddScaling):
            verify_pst(JacobiMatrix((0.0, 1.0, 0.0), (1.0, 1.0)))

    def test_incommensurable_gaps(self):
        # spectrum {(1 - sqrt(33))/4, 0, (1 + sqrt(33))/4}: irrational gap ratio
        h = JacobiMatrix((0.0, 0.5, 0.0), (1.0, 1.0))
        with pytest.raises(IncommensurableSpectrum):
            verify_pst(h, 1e-14)
        with pytest.raises((IncommensurableSpectrum, NoOddScaling)):
            verify_pst(h)

    def test_certificate_time_is_minimal(self):
        # spectrum {-3/2, -1/2, 1/2, 3/2}: uniform unit gaps, so T = pi
        spectrum = Spectrum((-1.5, -0.5, 0.5, 1.5), 1e-9)
        h = design_persymmetric(spectrum)
        cert = verify_pst(h)
        assert cert.T == pytest.approx(math.pi, rel=1e-12)


def odd_gap_design(n: int) -> JacobiMatrix:
    rng = random.Random(n)
    gaps = [rng.choice((1, 3, 5)) for _ in range(n - 1)]
    return design_persymmetric(Spectrum(np.cumsum([0.0, *gaps]) - sum(gaps) / 2, 1e-9))


SPECTRUM_CHAINS = [
    *(pytest.param(krawtchouk, n, id=f"krawtchouk-{n}") for n in range(2, 66)),
    *(pytest.param(odd_gap_design, n, id=f"odd-gap-{n}") for n in (2, 3, 16, 17, 64, 65, 256)),
    *(pytest.param(wilkinson, n, id=f"wilkinson-{n}") for n in (15, 16, 21, 23)),
]


class TestFoldedPath:
    @staticmethod
    def sentinel(*args):
        raise AssertionError("took the folded path")

    @pytest.mark.parametrize("chain, n", SPECTRUM_CHAINS)
    def test_eigenvalues_are_the_spectrum_verify_pst_reads(self, chain, n, monkeypatch):
        # one multisection of the prepared chain, folded on an exact mirror,
        # serves both: the spectrum verify_pst solves is that of eigenvalues,
        # bit for bit, whatever verify_pst then decides on it
        h = chain(n)
        try:
            expected = np.asarray(eigenvalues(h).eigenvalues)
        except ToleranceTooLoose as exc:  # W21, W23: both name the same computed pair
            with pytest.raises(ToleranceTooLoose, match=re.escape(str(exc))):
                verify_pst(h)
            return
        read = []
        spectrum = pst_module._spectrum
        monkeypatch.setattr(pst_module, "_spectrum", lambda *args: read.append(spectrum(*args)) or read[-1])
        with contextlib.suppress(IncommensurableSpectrum):  # W15, W16 transfer no state
            verify_pst(h)
        assert np.asarray(read[0].eigenvalues).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_exact_mirror_folds(self, n, monkeypatch):
        # `jacobi._prepare` folds the chain, and its spectrum is counted on the halves
        h = random_mirror(random.Random(n), n)
        monkeypatch.setattr(jacobi_module, "_count_folded", self.sentinel)
        with pytest.raises(AssertionError, match="folded path"):
            verify_pst(h)
        with pytest.raises(AssertionError, match="folded path"):
            evolve(h, (1.0,))

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
    def test_chain_mirrored_within_tol_takes_the_full_path(self, n, monkeypatch):
        monkeypatch.setattr(jacobi_module, "_fold", self.sentinel)
        monkeypatch.setattr(jacobi_module, "_count_folded", self.sentinel)
        h = krawtchouk(n)  # a single site has no halves
        if n > 1:  # one end site moved by 1e-15: mirrored within tol, not exactly
            h = JacobiMatrix([1e-15, *h.diag[1:]], h.offdiag)
            assert not is_persymmetric(h, 0.0)
        assert verify_pst(h).T == pytest.approx(math.pi, abs=1e-10)
        assert fidelity(h, math.pi) >= 1.0 - 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
    def test_each_chain_is_prepared_once(self, n, monkeypatch):
        # each entry point prepares its chain once: one scaling, and one fold of an exact mirror
        calls = {"scaled": 0, "fold": 0}
        scaled, fold = jacobi_module._scaled, jacobi_module._fold

        def counting_scaled(h):
            calls["scaled"] += 1
            return scaled(h)

        def counting_fold(s):
            calls["fold"] += 1
            return fold(s)

        for module in (jacobi_module, pst_module):
            monkeypatch.setattr(module, "_scaled", counting_scaled)
        monkeypatch.setattr(jacobi_module, "_fold", counting_fold)
        h = krawtchouk(n)
        verify_pst(h)
        assert calls == {"scaled": 1, "fold": int(n > 1)}
        calls.update(scaled=0, fold=0)
        evolve(h, (0.0, 1.0))
        assert calls == {"scaled": 1, "fold": int(n > 1)}


class TestEvolve:
    def test_time_zero_is_identity(self):
        rng = random.Random(3)
        h = random_jacobi(rng, 6)
        amp = evolve(h, (0.0,)).amplitudes[0]
        expected = np.zeros(6, dtype=complex)
        expected[0] = 1.0
        assert np.abs(amp - expected).max() <= 1e-12

    def test_worked_example_full_transfer(self, chain3):
        amp = evolve(chain3, (math.pi,)).amplitudes[0]
        assert np.abs(amp - np.array([0.0, 0.0, -1.0])).max() <= 1e-10

    def test_worked_example_half_time(self, chain3):
        amp = evolve(chain3, (math.pi / 2,)).amplitudes[0]
        assert np.abs(amp) == pytest.approx([0.5, math.sqrt(0.5), 0.5], abs=1e-12)
        assert np.abs(amp - expm_amplitudes(chain3, math.pi / 2)).max() <= 1e-10

    def test_matches_matrix_exponential(self):
        rng = random.Random(5)
        for _ in range(8):
            h = random_jacobi(rng, rng.randint(2, 10))
            t = rng.uniform(-4.0, 4.0)
            amp = evolve(h, (t,)).amplitudes[0]
            assert np.abs(amp - expm_amplitudes(h, t)).max() <= 1e-9

    def test_unitarity_on_random_chains(self):
        rng = random.Random(7)
        for _ in range(10):
            h = random_jacobi(rng, rng.randint(2, 12))
            times = [rng.uniform(-10.0, 10.0) for _ in range(5)]
            trace = evolve(h, times)
            norms = np.linalg.norm(trace.amplitudes, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("n", [15, 16, 21, 23])
    def test_close_eigenvalue_pairs_give_unitary_trace(self, n):
        # W15 and W16 are mirrored: each close top pair is one symmetric and one
        # antisymmetric eigenvector, orthogonal by construction on the folded path.
        # The top pairs of W21 and W23 lie 7.5e-14 and a few ulps apart, below
        # the default separation of 1.1e-11, which holds within each kind only
        h = wilkinson(n)
        for t in (1.0, 10.0):
            trace = evolve(h, (t,))
            assert abs(np.linalg.norm(trace.amplitudes[0]) - 1.0) <= 1e-10
            assert np.abs(trace.amplitudes[0] - expm_amplitudes(h, t)).max() <= 1e-9
            assert 0.0 <= fidelity(h, t) <= 1.0

    def test_close_pairs_stay_typed_off_the_exact_mirror(self):
        # W31's top pair is equal in doubles, so no Spectrum can hold it, but
        # it is one vector of each kind: evolve reads the multisection itself
        # and asks no separation of it.  W21 with a_0 moved by 1e-12 does not
        # fold and keeps the default separation
        w31 = wilkinson(31)
        with pytest.raises(ToleranceTooLoose):
            eigenvalues(w31)
        for t in (1.0, 10.0):
            assert np.abs(evolve(w31, (t,)).amplitudes[0] - expm_amplitudes(w31, t)).max() <= 1e-9
        h = wilkinson(21)
        with pytest.raises(ToleranceTooLoose):
            evolve(JacobiMatrix([h.diag[0] + 1e-12, *h.diag[1:]], h.offdiag), (1.0,))

    def test_close_pair_of_one_kind_is_too_loose(self):
        # the 42-site exact mirror whose symmetric half is W21: the top pair of
        # that half lies 7.5e-14 apart, below the separation 1.1e-11, and both
        # of its vectors are symmetric, not orthogonal by construction
        # (without the check: "unitarity violated")
        h = JacobiMatrix(*_unfold(wilkinson(21).diag, wilkinson(21).offdiag, 42, 1.0))
        assert is_persymmetric(h, 0.0)
        assert np.diff(np.linalg.eigvalsh(wilkinson(21).dense()))[-1] <= 1e-13
        with pytest.raises(ToleranceTooLoose, match="of one kind"):
            evolve(h, (1.0,))

    def test_trace_validates_unitarity(self):
        with pytest.raises(ValueError):
            AmplitudeTrace((0.0,), np.array([[0.5 + 0j, 0.0]]))
        with pytest.raises(ValueError):
            AmplitudeTrace((0.0,), np.array([[math.nan + 0j, 0.0]]))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_rejected(self, chain3, t):
        with pytest.raises(ValueError):
            evolve(chain3, (0.0, t))
        with pytest.raises(ValueError):
            fidelity(chain3, t)

    @pytest.mark.parametrize("t", [1e300, 1e308, -1e308])
    def test_time_beyond_phase_resolution_is_out_of_range(self, t):
        # two sites, coupling 2: t = 1e300 gave fidelity 0.886, t = 1e308 a false
        # unitarity failure after an overflow
        h = JacobiMatrix((0.0, 0.0), (2.0,))
        with pytest.raises(OutOfRange):
            fidelity(h, t)
        with pytest.raises(OutOfRange):
            evolve(h, (0.0, t))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "h, transfer",
        [
            # |<e_1|e^{itH}|e_0>|^2 = (b / w)^2 sin^2(w t), w = sqrt(a^2 + b^2)
            (JacobiMatrix((1e308, -1e308), (1e308,)), 0.5 * math.sin(math.sqrt(2)) ** 2),
            (JacobiMatrix((0.0, 0.0), (1e308,)), math.sin(1.0) ** 2),
        ],
    )
    def test_overflowing_norm(self, h, transfer):
        # ||H||_inf overflows, t ||H|| does not
        trace = evolve(h, (0.0, 1e-308))
        assert trace.amplitudes[0] == pytest.approx([1.0, 0.0])
        assert abs(trace.amplitudes[1, 1]) ** 2 == pytest.approx(transfer, rel=1e-12)
        assert fidelity(h, 1e-308) == pytest.approx(transfer, rel=1e-12)
        with pytest.raises(OutOfRange):
            fidelity(h, 1.0)

    def test_phase_resolution_bound(self):
        # ||H|| = 1: max |t| ||H|| = 2^53 is the last time accepted
        h = JacobiMatrix((0.0, 0.0), (1.0,))
        assert 0.0 <= fidelity(h, 2.0**53) <= 1.0
        with pytest.raises(OutOfRange):
            fidelity(h, math.nextafter(2.0**53, math.inf))

    def test_csv_shape(self, chain3):
        trace = evolve(chain3, (0.0, 1.0))
        buffer = io.StringIO()
        trace.to_csv(buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1,re_2,im_2,fidelity"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 8 for line in lines[1:])


class TestFidelity:
    def test_worked_example(self, chain3):
        assert fidelity(chain3, math.pi) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(chain3, 0.0) <= 1e-20
        assert fidelity(chain3, math.pi / 3) == pytest.approx(0.0625, abs=1e-12)


class TestDesign:
    def test_worked_example(self, chain3):
        h = design_persymmetric(Spectrum((-1.0, 0.0, 1.0), 1e-9))
        assert np.abs(np.asarray(h.diag) - np.asarray(chain3.diag)).max() <= 1e-10
        assert np.abs(np.asarray(h.offdiag) - np.asarray(chain3.offdiag)).max() <= 1e-10

    def test_single_eigenvalue(self):
        assert design_persymmetric(Spectrum((2.5,), 1e-9)) == JacobiMatrix((2.5,), ())

    def test_two_site(self):
        h = design_persymmetric(Spectrum((-0.5, 0.5), 1e-9))
        assert np.abs(np.asarray(h.diag)).max() <= 1e-12
        assert h.offdiag[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            Spectrum((0.0, 0.0, 1.0), 1e-12)

    def test_design_verify_round_trip(self):
        for size in range(2, 6):
            top = size - 1
            spectrum = Spectrum(tuple(k - top / 2 for k in range(size)), 1e-9)
            h = design_persymmetric(spectrum)
            cert = verify_pst(h)
            assert fidelity(h, cert.T) >= 1.0 - 1e-8

    def test_design_handles_uneven_commensurable_spectra(self):
        # gaps 1 and 3 are both odd, so transfer still exists
        spectrum = Spectrum((-2.0, -1.0, 2.0), 1e-9)
        h = design_persymmetric(spectrum)
        cert = verify_pst(h)
        assert cert.T == pytest.approx(math.pi, rel=1e-12)
        assert fidelity(h, cert.T) >= 1.0 - 1e-8

    def test_eigenvalues_too_close_for_the_weights(self):
        # gaps of 2e-14 are 5e-15 on mu = lambda / 4, at or below 1e-14
        with pytest.raises(DegenerateSpectrum, match="too close"):
            design_persymmetric(Spectrum((-2.0, -2e-14, 0.0, 2e-14, 2.0), 1e-16))

    def test_collapsed_measure(self):
        # S holds -2, 0 and 2; A's eigenvalues +-1e-13 leave the middle one a
        # squared weight of 2.5e-27, and the Lanczos basis collapses
        with pytest.raises(DegenerateSpectrum, match="collapsed"):
            design_persymmetric(Spectrum((-2.0, -1e-13, 0.0, 1e-13, 2.0), 1e-16))


def equally_spaced(n: int) -> Spectrum:
    return Spectrum([k - (n - 1) / 2 for k in range(n)], 1e-9)


DELTA_12 = 1e-8 * 5.5  # the certificate's half-width for equally_spaced(12)
MAX_DOUBLE = sys.float_info.max


class TestDesignCertificate:
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_design_runs_no_bisection(self, n, monkeypatch):
        def no_eigenvalues(*args):
            raise AssertionError("design_persymmetric bisected")

        # every multisection, whole or folded, runs in `jacobi._spectrum`
        monkeypatch.setattr(pst_module, "_spectrum", no_eigenvalues)
        monkeypatch.setattr(jacobi_module, "_spectrum", no_eigenvalues)
        h = design_persymmetric(equally_spaced(n))
        assert np.abs(np.asarray(h.offdiag) - krawtchouk(n).offdiag).max() <= 1e-9

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_odd_gap_designs_match_dense_solver(self, n):
        rng = random.Random(n)
        gaps = [rng.choice((1, 3, 5)) for _ in range(n - 1)]
        lams = np.cumsum([0.0, *gaps]) - sum(gaps) / 2
        h = design_persymmetric(Spectrum(lams, 1e-9))
        scale = max(1.0, float(np.abs(lams).max()))
        assert is_persymmetric(h, 0.0)
        assert np.abs(np.linalg.eigvalsh(h.dense()) - lams).max() <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(1105, 1109))
    def test_mirrored_odd_gap_designs_at_1024(self, seed):
        # the end-site weights of the whole chain spanned ~750 nats, so exp
        # underflowed and the Lanczos basis collapsed (DegenerateSpectrum);
        # those of the half at its mirror site span about ten
        n = 1024
        rng = np.random.default_rng(seed)
        half = rng.choice((1, 3, 5), size=n // 2 - 1)
        gaps = [*half, rng.choice((1, 3, 5)), *half[::-1]]
        lams = np.cumsum([0.0, *gaps]) - sum(gaps) / 2
        h = design_persymmetric(Spectrum(lams, 1e-9))
        assert is_persymmetric(h, 0.0)
        assert np.abs(np.linalg.eigvalsh(h.dense()) - lams).max() <= 1e-12 * float(np.abs(lams).max())

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_two_cluster_designs(self, n, seed):
        # the Lanczos vectors of two tight clusters lose orthogonality in
        # one projection; the second brings them back
        rng = np.random.default_rng(seed)
        lams = np.sort(np.concatenate((rng.normal(-1, 1e-3, n // 2), rng.normal(1, 1e-3, n - n // 2))))
        h = design_persymmetric(Spectrum(lams, 1e-12))
        assert is_persymmetric(h, 0.0)
        scale = max(1.0, float(np.abs(lams).max()))
        assert np.abs(np.linalg.eigvalsh(h.dense()) - lams).max() <= 1e-12 * scale

    @pytest.mark.parametrize("k", [0, 5, 11])
    @pytest.mark.parametrize("move", [-3.0, 3.0])
    def test_moved_eigenvalue_is_caught_at_its_index(self, k, move, monkeypatch):
        # shifting both counts of lambda_k by move * delta certifies lambda_k + move * delta instead
        count = pst_module._count_less

        def moved(s, shifts):
            shifts = np.array(shifts)
            shifts[:, k] += move * DELTA_12 * s.factor  # the count takes scaled shifts
            return count(s, shifts)

        monkeypatch.setattr(pst_module, "_count_less", moved)
        with pytest.raises(InternalCheckFailed, match=rf"at eigenvalue {k}:"):
            design_persymmetric(equally_spaced(12))

    def test_eigenvalue_moved_within_delta_passes(self, monkeypatch):
        count = pst_module._count_less
        monkeypatch.setattr(
            pst_module, "_count_less", lambda s, x: count(s, np.asarray(x) + 0.5 * DELTA_12 * s.factor)
        )
        design_persymmetric(equally_spaced(12))

    @pytest.mark.parametrize("row, change", [(0, 1), (1, -1)])
    def test_count_off_by_one_is_caught(self, row, change, monkeypatch):
        count = pst_module._count_less

        def off_by_one(s, shifts):
            counts = count(s, shifts)
            counts[row, 7] += change
            return counts

        monkeypatch.setattr(pst_module, "_count_less", off_by_one)
        with pytest.raises(InternalCheckFailed, match="at eigenvalue 7:"):
            design_persymmetric(equally_spaced(12))

    def test_perturbed_design_is_caught(self, monkeypatch):
        # the chain's diagonal raised by 3 delta keeps it persymmetric and
        # moves every eigenvalue by 3 delta; the first index fails
        scaled = pst_module._scaled

        def perturbed(h):
            return scaled(JacobiMatrix([a + 3 * DELTA_12 for a in h.diag], h.offdiag))

        monkeypatch.setattr(pst_module, "_scaled", perturbed)
        with pytest.raises(InternalCheckFailed, match="at eigenvalue 0:"):
            design_persymmetric(equally_spaced(12))


@pytest.mark.filterwarnings("error")
class TestDesignScale:
    @pytest.mark.parametrize(
        "lams, tol",
        [
            ((-1e308, 1e308), 1e296),  # the gap overflowed
            ((-1e308, 0.0, 1e308), 1e296),  # a false DegenerateSpectrum
            ((-1e307, 0.0, 1e307), 1e295),  # the Lanczos dot product overflowed
            ((-1e300, 0.0, 1e300), 1e288),
        ],
    )
    def test_spectrum_near_the_largest_double(self, lams, tol):
        h = design_persymmetric(Spectrum(lams, tol))
        scale = max(abs(lam) for lam in lams)
        assert is_persymmetric(h, 1e-10 * scale)
        assert np.abs(np.asarray(eigenvalues(h).eigenvalues) - lams).max() <= 1e-8 * scale

    @pytest.mark.parametrize("lams", [(-MAX_DOUBLE, MAX_DOUBLE), (-MAX_DOUBLE, 0.0, MAX_DOUBLE)])
    def test_spectrum_at_the_largest_double(self, lams):
        # the certificate shifts lambda_k -+ delta overflowed; scaled as the
        # chain, each term apart, they cannot.  The end eigenvalue of the
        # designed chain may round past the largest double, so the spectrum
        # is checked on the chain times 1/4 (exact).
        h = design_persymmetric(Spectrum(lams, 1e296))
        assert is_persymmetric(h, 1e-10 * MAX_DOUBLE)
        quarter = JacobiMatrix([a / 4 for a in h.diag], [b / 4 for b in h.offdiag])
        found = np.asarray(eigenvalues(quarter).eigenvalues)
        assert np.abs(found - np.asarray(lams) / 4).max() <= 1e-8 * MAX_DOUBLE / 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lams", [(-MAX_DOUBLE, MAX_DOUBLE), (-MAX_DOUBLE, 0.0, MAX_DOUBLE)])
    def test_design_verify_round_trip_at_the_largest_double(self, lams):
        # the last bracket of the end eigenvalue is (-inf, -max]; its even-key
        # end -inf was rejected as OutOfRange although the Gershgorin interval
        # of the chain ends at a finite double
        h = design_persymmetric(Spectrum(lams, 1e296))
        found = eigenvalues(h).eigenvalues
        assert np.isfinite(found).all()
        assert np.abs(np.asarray(found) - lams).max() <= 4 * sys.float_info.epsilon * MAX_DOUBLE
        cert = verify_pst(h)
        assert cert.spectrum.eigenvalues == found
        # past the largest double it stays a domain error
        with pytest.raises(OutOfRange, match="eigenvalue 0 lies past the largest double"):
            eigenvalues(JacobiMatrix((-1e308, -1e308), (1e308,)))
        with pytest.raises(OutOfRange, match="eigenvalue 1 lies past the largest double"):
            eigenvalues(JacobiMatrix((1e308, 1e308), (1e308,)))

    @pytest.mark.parametrize("seed", range(12))
    def test_power_of_two_equivariance(self, seed):
        # with max |lambda| >= 1 the scale is max |lambda|, and 2^600 scales it exactly
        rng = random.Random(seed)
        spread = 2.0 ** rng.uniform(0, 30)
        inner = [rng.uniform(-spread, spread) for _ in range(rng.randint(1, 40))]
        lams = sorted([rng.choice((-spread, spread)), *inner])
        big = 2.0**600
        h = design_persymmetric(Spectrum(lams, 1e-12))
        h_big = design_persymmetric(Spectrum([big * lam for lam in lams], 1e-12))
        assert h_big.diag == tuple(big * a for a in h.diag)
        assert h_big.offdiag == tuple(big * b for b in h.offdiag)


@pytest.mark.filterwarnings("error")
class TestKrawtchoukScale:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_verify(self, n):
        assert verify_pst(krawtchouk(n)).T == pytest.approx(math.pi, abs=1e-10)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_evolve_transfers_at_pi(self, n):
        trace = evolve(krawtchouk(n), (0.0, math.pi))
        assert abs(trace.amplitudes[0][0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(trace.amplitudes[1][-1]) ** 2 >= 1.0 - 1e-10

    def test_design_verify_round_trip_256(self):
        # the equally spaced spectrum overflowed prod |lambda_k - lambda_j|
        n = 256
        h = design_persymmetric(Spectrum([k - (n - 1) / 2 for k in range(n)], 1e-9))
        assert np.abs(np.asarray(h.offdiag) - krawtchouk(n).offdiag).max() <= 1e-9
        assert verify_pst(h).T == pytest.approx(math.pi, abs=1e-10)



def scaled_by_power_of_two(h: JacobiMatrix, k: int) -> JacobiMatrix:
    """2^k H, rounded where it falls below the normal doubles."""
    return JacobiMatrix(np.ldexp(h.diag, k), np.ldexp(h.offdiag, k))


def krawtchouk_spectrum(n: int, k: int) -> Spectrum:
    """The Krawtchouk spectrum times 2^k (exact), at the finest separation."""
    return Spectrum(np.ldexp(np.arange(n) - (n - 1) / 2, k), math.ulp(0.0))


@pytest.mark.filterwarnings("error")
class TestScaleFree:
    """The float layers are equivariant under H -> 2^k H: their default
    tolerances are relative to the chain or spectrum, with no floor at 1."""

    @pytest.mark.parametrize("k", [-1000, -500, -40, 0, 40, 500, 900, 1020])
    @pytest.mark.parametrize("n", [5, 16, 17])
    def test_power_of_two_equivariance(self, n, k):
        h, h_k = krawtchouk(n), scaled_by_power_of_two(krawtchouk(n), k)
        assert eigenvalues(h_k).eigenvalues == tuple(np.ldexp(eigenvalues(h).eigenvalues, k))
        cert, cert_k = verify_pst(h), verify_pst(h_k)
        assert (cert_k.T, cert_k.phi) == (math.ldexp(cert.T, -k), cert.phi)
        designed = design_persymmetric(krawtchouk_spectrum(n, 0))
        assert design_persymmetric(krawtchouk_spectrum(n, k)) == scaled_by_power_of_two(designed, k)
        times = (0.0, 1.0, math.pi / 2, math.pi)
        trace, trace_k = evolve(h, times), evolve(h_k, np.ldexp(times, -k))
        assert np.abs(trace_k.amplitudes - trace.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("k", [-1040, -1060, -1070])
    @pytest.mark.parametrize("n", [5, 16, 17])
    def test_below_the_normal_doubles_results_meet_their_contract_or_errors_are_typed(self, n, k):
        # 2^k H rounds in the subnormals; 2^1100 brings the stored chain back exactly
        up = 1100
        h = scaled_by_power_of_two(krawtchouk(n), k)
        h_up = scaled_by_power_of_two(h, up)
        # the default separation 1e-12 ||H|| underflows and stops at the smallest double
        spectrum = eigenvalues(h)
        assert spectrum.tolerance == math.ulp(0.0)
        found = spectrum.eigenvalues
        assert np.abs(np.ldexp(found, up) - eigenvalues(h_up).eigenvalues).max() <= 2 * math.ldexp(math.ulp(0.0), up)
        try:
            cert = verify_pst(h)
            assert cert.spectrum.eigenvalues == found
            assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 4 * cert.T * cert.spectrum.tolerance)
        except PalinfracError as exc:
            assert not isinstance(exc, InternalCheckFailed)
        times = (0.0, 1e300, 2.0**1023)
        try:
            amplitudes = evolve(h, times).amplitudes
            assert np.abs(amplitudes - evolve(h_up, np.ldexp(times, -up)).amplitudes).max() <= 1e-8
        except PalinfracError as exc:
            assert not isinstance(exc, InternalCheckFailed)
        spectrum = krawtchouk_spectrum(n, k)
        try:
            designed = design_persymmetric(spectrum)
            assert is_persymmetric(designed, 0.0)
            lams = np.ldexp(spectrum.eigenvalues, up)
            found_up = eigenvalues(scaled_by_power_of_two(designed, up)).eigenvalues
            assert np.abs(np.asarray(found_up) - lams).max() <= 1e-8 * np.abs(lams).max()
        except PalinfracError as exc:
            assert not isinstance(exc, InternalCheckFailed)

    def test_smallest_double_coupling(self):
        # the bracket keys were those of unscaled doubles, which cannot tell
        # +-2^-1074 from 0: ToleranceTooLoose, where the scaled chain resolves them
        assert eigenvalues(JacobiMatrix((0.0, 0.0), (5e-324,))).eigenvalues == (-5e-324, 5e-324)

    @pytest.mark.parametrize("diag", [(0.0, 0.0), (2e-323, 2e-323)])
    def test_subnormal_chain_reaches_a_decision(self, diag):
        # the gaps are taken in the scaled units: halved, 2^-1074 and 2^-1073
        # would fall on one double, and the gap ratio would divide by 0
        try:
            cert = verify_pst(JacobiMatrix(diag, (5e-324,)))
        except PalinfracError as exc:
            assert not isinstance(exc, InternalCheckFailed)
        else:
            assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 1e-8)

    @pytest.mark.parametrize(
        "h, error",
        [
            pytest.param(JacobiMatrix((0.0, 0.0), (5e-324,)), OutOfRange, id="smallest-coupling"),
            pytest.param(JacobiMatrix((2e-323, 2e-323), (5e-324,)), OutOfRange, id="subnormal-pair"),
            pytest.param(scaled_by_power_of_two(krawtchouk(5), -1060), OutOfRange, id="k5x2^-1060"),
            pytest.param(scaled_by_power_of_two(krawtchouk(16), -1050), OutOfRange, id="k16x2^-1050"),
            # its chain, rounded in the subnormals, is incommensurable before T is formed
            pytest.param(scaled_by_power_of_two(krawtchouk(17), -1040), IncommensurableSpectrum, id="k17x2^-1040"),
        ],
    )
    def test_transfer_time_past_the_largest_double_is_out_of_range(self, h, error):
        # the gaps are commensurable, but T is inf: the phase check failed it
        # as IncommensurableSpectrum
        message = r"^T = \d+ pi / .* past the largest double$" if error is OutOfRange else "gap ratio"
        with pytest.raises(error, match=message):
            verify_pst(h)

    def test_subnormal_two_site_chain(self):
        spectrum = eigenvalues(JacobiMatrix((1e-310, 0.0), (1e-310,)))
        golden = (0.5 - math.sqrt(1.25)) * 1e-310, (0.5 + math.sqrt(1.25)) * 1e-310
        assert np.abs(np.asarray(spectrum.eigenvalues) - golden).max() <= 4 * math.ulp(0.0)
        assert spectrum.tolerance == pytest.approx(1e-12 * 2e-310, abs=math.ulp(0.0))  # 1e-12 ||H||_inf

    @pytest.mark.parametrize("k", [-1060, -1070])
    def test_design_contract_below_the_smallest_double_is_out_of_range(self, k):
        # 1e-8 max |lambda| underflows: rounding the chain into doubles alone can miss it
        with pytest.raises(OutOfRange, match="spectrum contract"):
            design_persymmetric(krawtchouk_spectrum(5, k))

    def test_eigenvector_errors_are_relative_to_the_chain(self):
        # both numbers were divided back by the scale factor 2^1023 and printed
        # as 0.000e+00.  `evolve` failed there too, as its eigenvalues were
        # resolved only to 2^-1074; in the scaled units it agrees with the
        # chain scaled up by 2^1100
        h = scaled_by_power_of_two(krawtchouk(5), -1060)
        times = (0.0, 1.0, 1e300, 2.0**1023)
        trace, trace_up = evolve(h, times), evolve(scaled_by_power_of_two(h, 1100), np.ldexp(times, -1100))
        assert np.abs(trace.amplitudes - trace_up.amplitudes).max() <= 1e-12
        norm = r" \* \|\|H\|\|_inf"
        with pytest.raises(NotAnEigenvalue, match=rf"^residual \S+{norm} exceeds 1e-8{norm}$") as residual:
            eigenvectors(h, [math.ldexp(0.5, -1060)])  # inside the Gershgorin interval, off the spectrum
        with pytest.raises(NotAnEigenvalue, match=rf"^1\.0 lies more than 1e-8{norm} outside") as outside:
            eigenvectors(h, [1.0])
        for exc in (residual, outside):
            assert "0.000e+00" not in str(exc.value)

    def test_one_site_zero_matrix_keeps_scale_one(self):
        assert eigenvalues(JacobiMatrix((0.0,))).tolerance == 1e-12


def gap_design(gaps) -> JacobiMatrix:
    """The mirror chain designed on the spectrum with these gaps, centred."""
    lams = np.cumsum([0.0, *gaps])
    return design_persymmetric(Spectrum(lams - lams[-1] / 2, 1e-9))


# first gap 1, last gap up to 999999, all odd: T = pi
WIDE_GAPS = [
    [1, 999999],  # the spectrum (-500000, -499999, 500000)
    [1, 1, 9999],
    [1, 5, 99999],  # (-50002.5, -50001.5, -49996.5, 50002.5)
    [1, 1, 1, 9999],  # (-5001, -5000, -4999, -4998, 5001)
    [1, 5, 3, 999999],
    [1, 1, 1, 1, 999999],
    [1, 5, 3, 1, 5, 99999],
    [1, 1, 1, 1, 1, 1, 99999],
]


@pytest.mark.filterwarnings("error")
class TestRatioAccuracy:
    """The gap-ratio test reads tol as the mirror test does, relative to
    ||H||_inf: a ratio r_k is good to a_k = tol ||H|| (1 + r_k) / Delta_0,
    and its denominator is bounded by a_k^(-1/2)."""

    @pytest.mark.parametrize("gaps", WIDE_GAPS, ids=str)
    def test_wide_odd_gap_spectra_transfer_at_pi(self, gaps):
        # a ratio near 1e6 carries about eps ||H|| / Delta_0 ~ 1e-10 of error,
        # which the absolute accuracy 1e-12 did not cover: IncommensurableSpectrum
        assert verify_pst(gap_design(gaps)).T == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 64])
    def test_a_gap_off_by_1e_9_is_not_transfer(self, n):
        gaps = [1.0] * (n - 1)
        gaps[-1] = 1 + 1e-9
        with pytest.raises(IncommensurableSpectrum):
            verify_pst(gap_design(gaps))

    def test_denominator_bound_follows_the_accuracy(self):
        # gaps 100 : 9999851 allow no odd scaling.  At tol 1e-12 the ratio
        # 99998.51 is good to a = 5.04e-3 only, so d <= 14, and no c/d that
        # small lies within a of it.  Under a fixed bound of 10^6 the
        # convergent 99998 + 25/49 did, and T = 49 pi was certified
        h = gap_design([1, 99998.51])
        with pytest.raises(IncommensurableSpectrum, match=r"denominator <= 14 within 0\.0050"):
            verify_pst(h)
        # at tol 1e-15, a = 5.04e-6 and d <= 445 resolve it as 9999851 / 100
        with pytest.raises(NoOddScaling, match=r"\[100, 9999851\]"):
            verify_pst(h, 1e-15)

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_power_of_two_equivariance_of_a_wide_chain(self, k):
        h = gap_design([1, 5, 3, 999999])
        cert, cert_k = verify_pst(h), verify_pst(scaled_by_power_of_two(h, k))
        assert (cert_k.T, cert_k.phi) == (math.ldexp(cert.T, -k), cert.phi)


class TestPhaseCheck:
    def test_examples(self):
        spectrum = Spectrum((-1.0, 0.0, 1.0), 1e-9)
        assert check_pst1_spectrum(spectrum, math.pi, math.pi, 1e-9)
        assert not check_pst1_spectrum(spectrum, math.pi / 2, 0.0, 1e-9)
        single = Spectrum((0.0,), 1e-9)
        assert check_pst1_spectrum(single, 1.0, 0.0, 1e-12)

    @pytest.mark.parametrize("window", [math.pi, math.inf])
    def test_a_window_of_pi_certifies_nothing(self, chain3, window):
        # every phase lies within pi of (N + k) pi modulo 2 pi
        cert = verify_pst(chain3)
        assert check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, 4 * cert.T * cert.spectrum.tolerance)
        assert not check_pst1_spectrum(cert.spectrum, cert.T, cert.phi, window)


def fraction_design(gaps) -> JacobiMatrix:
    """The mirror chain designed on the spectrum with these exact gaps,
    centred in Fractions and rounded once."""
    lams = [Fraction(0)]
    for gap in gaps:
        lams.append(lams[-1] + gap)
    return design_persymmetric(Spectrum([float(lam - lams[-1] / 2) for lam in lams], 1e-9))


def drift_design(n: int, share: float) -> JacobiMatrix:
    """The n-site design whose first half of the gaps is 1 + delta and the
    rest 1 - delta, delta = share * 1e-12 ||H||_inf of the unit-gap design:
    each gap ratio is within its accuracy, their sum is not."""
    norm = float(np.abs(gap_design([1] * (n - 1)).dense()).sum(axis=1).max())
    delta = share * 1e-12 * norm
    half = (n - 1) // 2
    return gap_design([1 + delta] * half + [1 - delta] * (n - 1 - half))


def dense_fidelity(h: JacobiMatrix, t: float) -> float:
    """|<e_N| e^{itH} e_0>|^2 by numpy's dense eigensolver."""
    w, v = np.linalg.eigh(h.dense())
    return float(abs((np.exp(1j * t * w) * v[0]) @ v[-1]) ** 2)


# gaps 1 : 99991/99989 : 99997/99999 : 99971/99973 are odd multiples of pi / T
# only for T ~ 3.1e15, where a phase error of eps ||H|| grows to radians
GAPS_99991 = [1, Fraction(99991, 99989), Fraction(99997, 99999), Fraction(99971, 99973)]
GAPS_10001 = [1, Fraction(10001, 10003), Fraction(10007, 10009), Fraction(10011, 10013)]


@pytest.mark.filterwarnings("error")
class TestPhaseBudget:
    """The phase check reads the certificate's own tolerance: every phase
    within 4 T tol ||H||_inf, where a fixed 1e-8 (1 + T max |lambda|)
    passed any phase once T max |lambda| exceeded 3e8."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-15])
    def test_a_transfer_time_past_the_resolution_is_not_certified(self, tol):
        # the fixed window, 6.3e7 rad, certified T = 3.1404e15, where dense
        # evolution reaches the far end with fidelity 0.516
        with pytest.raises(IncommensurableSpectrum, match="phase alignment"):
            verify_pst(fraction_design(GAPS_99991), tol)

    def test_a_transfer_time_within_the_resolution_of_tol(self):
        h = fraction_design(GAPS_10001)
        # at tol 1e-12 the budget is 31 rad: the fixed window was 6.3e4 rad
        with pytest.raises(IncommensurableSpectrum, match="phase alignment"):
            verify_pst(h)
        cert = verify_pst(h, 1e-15)
        assert cert.T == pytest.approx(float.fromhex("0x1.6ea4fece5082fp+41"), rel=1e-12)  # 3.1495e12
        assert dense_fidelity(h, cert.T) >= 1 - 1e-5

    def test_a_cumulative_drift_is_not_transfer(self):
        # each gap ratio 1 +- 2 delta is within its accuracy, but the phases
        # drift by 20 delta T: 1.65e-10 against a budget of 1.32e-10
        with pytest.raises(IncommensurableSpectrum, match="phase alignment"):
            verify_pst(drift_design(21, 0.5))
        assert verify_pst(drift_design(21, 0.2)).T == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
    @pytest.mark.parametrize("chain", ["krawtchouk", "odd-gap"])
    def test_the_certificate_spectrum_is_that_of_eigenvalues_at_tol(self, chain, tol):
        h = krawtchouk(16) if chain == "krawtchouk" else gap_design([1, 3, 5, 1, 3, 5, 3, 1, 5])
        assert verify_pst(h, tol).spectrum == eigenvalues(h, tol)


def fraction_reconstruction(ratio: float, max_denominator: int, accuracy: float) -> Fraction:
    """Reference: every convergent of the exact value of ratio, integer
    part first, as a Fraction, and the first one within accuracy."""
    if ratio <= 0:
        raise IncommensurableSpectrum(f"gap ratio {ratio} must be positive")
    exact = Fraction(ratio)
    whole = math.floor(ratio)
    fractional = exact - whole
    candidates = [Fraction(whole)]
    if fractional:
        for pair in convergents(expand_euclid(fractional.numerator, fractional.denominator, "canonical")):
            if pair.p > max_denominator:
                break
            candidates.append(whole + Fraction(pair.q, pair.p))
    for candidate in candidates:
        if candidate > 0 and abs(exact - candidate) <= Fraction(accuracy):
            return candidate
    raise IncommensurableSpectrum(
        f"no rational approximation of gap ratio {ratio} with denominator "
        f"<= {max_denominator} within {accuracy}"
    )


class TestRatioToFraction:
    @staticmethod
    def _ratios() -> list[float]:
        """Gap ratios of designed odd-gap chains, as `verify_pst` forms them,
        and random ones, some within 1e-12 of a small fraction."""
        rng = random.Random(101)
        ratios = [0.0, -1.0, 5e-324, 1e-300, 1.0, 3.0, 1e300, 1 / 3, 2 / 3 + 1e-13]
        for n in (16, 64):
            half_gaps = [rng.choice((1, 3, 5)) for _ in range(n // 2)]
            spacing = half_gaps[:-1] + half_gaps[::-1]
            lams = np.cumsum([0, *spacing]) - sum(spacing) / 2
            half = [0.5 * lam for lam in eigenvalues(design_persymmetric(Spectrum(lams, 1e-9))).eigenvalues]
            gaps = [half[k + 1] - half[k] for k in range(len(half) - 1)]
            ratios += [gap / gaps[0] for gap in gaps]
        ratios += [rng.uniform(0.0, 50.0) for _ in range(300)]
        ratios += [rng.randint(1, 99) / rng.randint(1, 99) + rng.uniform(-1e-12, 1e-12) for _ in range(300)]
        return ratios

    @pytest.mark.parametrize("accuracy", [1e-14, 1e-12, 1e-8, 0.01])
    def test_matches_the_fraction_reconstruction(self, accuracy):
        for ratio in self._ratios():
            for max_denominator in (10, 10**6):
                outcomes = []
                for reconstruct in (_ratio_to_fraction, fraction_reconstruction):
                    try:
                        outcomes.append(reconstruct(ratio, max_denominator, accuracy))
                    except IncommensurableSpectrum as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], ratio
                assert type(outcomes[0]) is type(outcomes[1])

    def test_accuracy_bound_is_inclusive(self):
        # 1/2 lies exactly 2^-10 from the ratio 513/1024
        assert _ratio_to_fraction(0.5 + 2**-10, 10, 2**-10) == Fraction(1, 2)
        with pytest.raises(IncommensurableSpectrum, match="denominator <= 10 within"):
            _ratio_to_fraction(0.5 + 2**-10, 10, 2**-11)


class TestMirrorSymmetryProperty:
    def test_persymmetric_chains_have_unimodular_alternating_end_values(self):
        rng = random.Random(11)
        for _ in range(15):
            h = random_persymmetric(rng, rng.randint(2, 10))
            spec = eigenvalues(h)
            top = h.size - 1
            for k, lam in enumerate(spec.eigenvalues):
                end_value = normalized_poly_sequence(h, lam)[top]
                assert abs(abs(end_value) - 1.0) <= 1e-8
                assert math.copysign(1.0, end_value) == (-1.0) ** (top + k)

    def test_asymmetric_chains_break_the_end_value_law(self):
        rng = random.Random(13)
        for _ in range(15):
            h = perturb_asymmetric(random_persymmetric(rng, rng.randint(3, 10)), rng)
            assert not is_persymmetric(h, 1e-6)
            spec = eigenvalues(h)
            top = h.size - 1
            deviations = [
                abs(abs(normalized_poly_sequence(h, lam)[top]) - 1.0)
                for lam in spec.eigenvalues
            ]
            assert max(deviations) > 1e-4
