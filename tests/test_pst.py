import io
import math
import random

import numpy as np
import pytest
import scipy.linalg

import palinfrac.pst as pst_module
from genutil import krawtchouk, perturb_asymmetric, random_jacobi, random_persymmetric, wilkinson
from palinfrac.errors import (
    DegenerateSpectrum,
    IncommensurableSpectrum,
    InternalCheckFailed,
    NoOddScaling,
    NotPersymmetric,
    OutOfRange,
    PalinfracError,
)
from palinfrac.jacobi import (
    JacobiMatrix,
    Spectrum,
    eigenvalues,
    is_persymmetric,
    normalized_poly_sequence,
)
from palinfrac.pst import (
    AmplitudeTrace,
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_tolerance(self, chain3, tol):
        with pytest.raises(ValueError):
            verify_pst(chain3, tol)

    def test_not_persymmetric(self):
        with pytest.raises(NotPersymmetric):
            verify_pst(JacobiMatrix((0.0, 1.0, 2.0), (1.0, 1.0)))

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

    @pytest.mark.parametrize("n", [15, 16])
    def test_close_eigenvalue_pairs_give_unitary_trace_or_typed_error(self, n):
        # eigenvectors of the close top pairs are orthogonal only to ~eps / gap
        for t in (1.0, 10.0):
            try:
                trace = evolve(wilkinson(n), (t,))
                fidelity(wilkinson(n), t)
            except PalinfracError:
                continue
            assert abs(np.linalg.norm(trace.amplitudes[0]) - 1.0) <= 1e-10

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


def equally_spaced(n: int) -> Spectrum:
    return Spectrum([k - (n - 1) / 2 for k in range(n)], 1e-9)


DELTA_12 = 1e-8 * 5.5  # the certificate's half-width for equally_spaced(12)


class TestDesignCertificate:
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_design_runs_no_bisection(self, n, monkeypatch):
        def no_eigenvalues(*args):
            raise AssertionError("design_persymmetric bisected")

        monkeypatch.setattr(pst_module, "eigenvalues", no_eigenvalues)
        h = design_persymmetric(equally_spaced(n))
        assert np.abs(np.asarray(h.offdiag) - krawtchouk(n).offdiag).max() <= 1e-9

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_odd_gap_designs_match_dense_solver(self, n):
        rng = random.Random(n)
        gaps = [rng.choice((1, 3, 5)) for _ in range(n - 1)]
        lams = np.cumsum([0.0, *gaps]) - sum(gaps) / 2
        h = design_persymmetric(Spectrum(lams, 1e-9))
        scale = max(1.0, float(np.abs(lams).max()))
        assert np.abs(np.linalg.eigvalsh(h.dense()) - lams).max() <= 1e-8 * scale

    @pytest.mark.parametrize("k", [0, 5, 11])
    @pytest.mark.parametrize("move", [-3.0, 3.0])
    def test_moved_eigenvalue_is_caught_at_its_index(self, k, move, monkeypatch):
        # shifting both counts of lambda_k certifies lambda_k + move * delta instead
        count = pst_module._count_less

        def moved(s, shifts):
            shifts = np.array(shifts)
            shifts[:, k] += move * DELTA_12
            return count(s, shifts)

        monkeypatch.setattr(pst_module, "_count_less", moved)
        with pytest.raises(InternalCheckFailed, match=rf"at eigenvalue {k}:"):
            design_persymmetric(equally_spaced(12))

    def test_eigenvalue_moved_within_delta_passes(self, monkeypatch):
        count = pst_module._count_less
        monkeypatch.setattr(pst_module, "_count_less", lambda s, x: count(s, np.asarray(x) + 0.5 * DELTA_12))
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
        # the diagonal raised by 3 delta keeps the chain persymmetric and moves
        # every eigenvalue by 3 delta; the first index fails
        scaled = pst_module._scaled

        def perturbed(h):
            return scaled(JacobiMatrix([a + 3 * DELTA_12 for a in h.diag], h.offdiag))

        monkeypatch.setattr(pst_module, "_scaled", perturbed)
        with pytest.raises(InternalCheckFailed, match="at eigenvalue 0:"):
            design_persymmetric(equally_spaced(12))


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


class TestPhaseCheck:
    def test_examples(self):
        spectrum = Spectrum((-1.0, 0.0, 1.0), 1e-9)
        assert check_pst1_spectrum(spectrum, math.pi, math.pi, 1e-9)
        assert not check_pst1_spectrum(spectrum, math.pi / 2, 0.0, 1e-9)
        single = Spectrum((0.0,), 1e-9)
        assert check_pst1_spectrum(single, 1.0, 0.0, 1e-12)


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
