import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import palinfrac.jacobi as jacobi_module
from genutil import krawtchouk, random_jacobi
from palinfrac.errors import (
    DegenerateSpectrum,
    NotAnEigenvalue,
    SizeTooSmall,
    ToleranceTooLoose,
)
from palinfrac.jacobi import (
    JacobiMatrix,
    Spectrum,
    _count_less,
    _scaled,
    charpoly_check,
    eigenvalues,
    eigenvector,
    eigenvectors,
    from_jfraction,
    gershgorin_interval,
    is_persymmetric,
    normalized_poly_sequence,
    truncate_first,
)
from palinfrac.jfraction import JFraction, chebyshev_jfraction


class TestTypes:
    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            JacobiMatrix((), ())
        with pytest.raises(ValueError):
            JacobiMatrix((0.0, 0.0), ())
        with pytest.raises(ValueError):
            JacobiMatrix((0.0, 0.0), (-1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrix_rejects_non_finite_diag(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JacobiMatrix((0.0, bad), (1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_matrix_rejects_non_finite_offdiag(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JacobiMatrix((0.0, 0.0), (bad,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spectrum_rejects_non_finite_eigenvalues(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum((0.0, bad), 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spectrum_rejects_non_finite_tolerance(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum((0.0, 1.0), bad)

    def test_dense(self):
        m = JacobiMatrix((1.0, 2.0), (3.0,)).dense()
        assert np.allclose(m, [[1.0, 3.0], [3.0, 2.0]])

    def test_matrix_json_round_trip(self):
        h = JacobiMatrix((0.0, 1.0), (0.5,))
        assert JacobiMatrix.from_json_obj(h.to_json_obj()) == h

    def test_spectrum_validation(self):
        with pytest.raises(DegenerateSpectrum):
            Spectrum((0.0, 0.0), 1e-12)
        with pytest.raises(DegenerateSpectrum):
            Spectrum((0.0, 1.0, 0.5), 1e-12)
        with pytest.raises(ValueError):
            Spectrum((0.0,), 0.0)


class TestFromJFraction:
    def test_examples(self, chain3):
        h = from_jfraction(JFraction((0, 0, 0), (Fraction(1, 2), Fraction(1, 2))))
        assert h == chain3
        assert from_jfraction(JFraction((5,), ())) == JacobiMatrix((5.0,), ())
        assert from_jfraction(JFraction((0, 0), (1,))).offdiag == (1.0,)


class TestRecurrence:
    def test_values_at_eigenvalue(self, chain3):
        values = normalized_poly_sequence(chain3, 1.0)
        assert abs(values[-1]) <= 1e-14

    def test_values_at_zero(self, chain3):
        assert normalized_poly_sequence(chain3, 0.0) == pytest.approx(
            [1.0, 0.0, -1.0, 0.0], abs=1e-15
        )

    def test_single_site(self):
        assert normalized_poly_sequence(JacobiMatrix((4.0,), ()), 4.0) == [1.0, 0.0]

    def test_companion_recurrence_of_truncation(self, chain3):
        # values of the second-kind recurrence match the truncated chain
        b0 = chain3.offdiag[0]
        trunc = truncate_first(chain3)
        for x in (-0.7, 0.3, 2.1):
            left = (1.0,) + chain3.offdiag
            right = chain3.offdiag + (1.0,)
            q_prev, q_cur = -1.0, 0.0
            second_kind = []
            for k in range(chain3.size):
                q_prev, q_cur = q_cur, ((x - chain3.diag[k]) * q_cur - left[k] * q_prev) / right[k]
                second_kind.append(q_cur)
            truncated = normalized_poly_sequence(trunc, x)
            for k in range(trunc.size + 1):
                assert second_kind[k] * b0 == pytest.approx(truncated[k], rel=1e-12)


class TestCharpolyCheck:
    def test_worked_points(self, chain3):
        assert charpoly_check(chain3, 2.0) <= 1e-12
        assert charpoly_check(chain3, 1e6) <= 1e-10

    def test_two_site_exact(self):
        h = JacobiMatrix((0.0, 0.0), (1.0,))
        assert normalized_poly_sequence(h, 0.0)[-1] == -1.0
        assert charpoly_check(h, 0.0) == 0.0

    def test_random_matrices_random_points(self):
        rng = random.Random(31)
        for _ in range(20):
            h = random_jacobi(rng, rng.randint(1, 12))
            for _ in range(100):
                x = rng.uniform(-5.0, 5.0)
                assert charpoly_check(h, x) <= 1e-10


    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_rejected(self, chain3, x):
        with pytest.raises(ValueError, match="finite"):
            normalized_poly_sequence(chain3, x)
        with pytest.raises(ValueError, match="finite"):
            charpoly_check(chain3, x)

    def test_minors_do_not_reuse_the_normalized_values(self, chain3, monkeypatch):
        # doubling the normalized values must show up as a disagreement
        honest = normalized_poly_sequence
        monkeypatch.setattr(
            jacobi_module, "normalized_poly_sequence", lambda h, x: [2.0 * v for v in honest(h, x)]
        )
        assert charpoly_check(chain3, 2.0) >= 0.4


class TestTruncation:
    def test_examples(self, chain3):
        t = truncate_first(chain3)
        assert t.diag == (0.0, 0.0)
        assert t.offdiag == (chain3.offdiag[0],)
        assert truncate_first(JacobiMatrix((1.0, 2.0), (1.0,))) == JacobiMatrix((2.0,), ())
        assert truncate_first(JacobiMatrix((1.0, 2.0, 3.0), (1.0, 1.0))) == JacobiMatrix(
            (2.0, 3.0), (1.0,)
        )

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            truncate_first(JacobiMatrix((1.0,), ()))


class TestEigenvalues:
    def test_worked_example(self, chain3):
        spec = eigenvalues(chain3)
        assert spec.eigenvalues == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)

    def test_single_site(self):
        assert eigenvalues(JacobiMatrix((3.5,), ())).eigenvalues == (3.5,)

    def test_two_site(self):
        spec = eigenvalues(JacobiMatrix((0.0, 0.0), (1.0,)))
        assert spec.eigenvalues == pytest.approx((-1.0, 1.0), abs=1e-14)

    def test_tolerance_too_loose(self, chain3):
        with pytest.raises(ToleranceTooLoose):
            eigenvalues(chain3, tol=10.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_tolerance_before_bisection(self, chain3, tol, monkeypatch):
        import palinfrac.jacobi as jacobi_module

        def no_count(h, x):
            raise AssertionError("bisection ran")

        monkeypatch.setattr(jacobi_module, "_count_less", no_count)
        with pytest.raises(ValueError):
            eigenvalues(chain3, tol)

    def test_eigenvalue_zero_is_positive_zero(self, chain3):
        # the bisection lands on -pivmin, the width of the pivot guard
        for h, k in ((chain3, 1), (krawtchouk(65), 32)):
            value = eigenvalues(h).eigenvalues[k]
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_matches_dense_solver(self):
        rng = random.Random(37)
        for _ in range(25):
            h = random_jacobi(rng, rng.randint(2, 12))
            ours = np.asarray(eigenvalues(h).eigenvalues)
            reference = np.linalg.eigvalsh(h.dense())
            assert np.abs(ours - reference).max() <= 1e-10

    def test_sturm_count_totals(self, chain3):
        lo, hi = gershgorin_interval(chain3)
        counts = _count_less(_scaled(chain3), [lo - 1e-9, hi + 1e-9, 0.5, 0.0])
        # the zero pivot at the eigenvalue 0 turns negative: an exact hit counts as below
        assert counts.tolist() == [0, 3, 2, 2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1e-200, 1e200])
    def test_extreme_scales(self, b):
        # b^2 under- or overflows unless the matrix is scaled first
        h = JacobiMatrix((0.0, 0.0, 0.0), (b, b))
        spec = eigenvalues(h, tol=1e-3 * b)
        expected = (-math.sqrt(2) * b, 0.0, math.sqrt(2) * b)
        assert spec.eigenvalues == pytest.approx(expected, rel=1e-14, abs=1e-14 * b)
        v = eigenvector(h, spec.eigenvalues[2])
        assert v == pytest.approx([0.5, math.sqrt(0.5), 0.5], abs=1e-14)

    def test_count_matches_sturm_sign_changes(self):
        # reference: sign changes of (p_0(x), ..., p_{N+1}(x)) count the eigenvalues above x
        rng = random.Random(59)
        for _ in range(20):
            h = random_jacobi(rng, rng.randint(1, 12))
            eigs = np.linalg.eigvalsh(h.dense())
            points = [rng.uniform(-5.0, 5.0) for _ in range(50)]
            shifts = [x for x in points if np.abs(eigs - x).min() > 1e-9]
            for x, below in zip(shifts, _count_less(_scaled(h), shifts)):
                signs = [math.copysign(1.0, v) for v in normalized_poly_sequence(h, x) if v != 0.0]
                changes = sum(left != right for left, right in zip(signs, signs[1:]))
                assert below == h.size - changes

    def test_gershgorin_contains_spectrum(self):
        rng = random.Random(41)
        for _ in range(20):
            h = random_jacobi(rng, rng.randint(1, 10))
            lo, hi = gershgorin_interval(h)
            eigs = np.linalg.eigvalsh(h.dense())
            assert lo - 1e-12 <= eigs.min() and eigs.max() <= hi + 1e-12


def _keys(x) -> np.ndarray:
    """Integer keys ordering doubles as their values (-0.0 and 0.0 alike)."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.where(bits < 0, -(bits & np.int64(2**63 - 1)), bits)


def _values(keys: np.ndarray) -> np.ndarray:
    return np.copysign(np.abs(keys).view(np.float64), keys)


def key_halving_bisection(h: JacobiMatrix) -> np.ndarray:
    """Every eigenvalue by plain bisection of the keys of its bracket, one
    pivot count per step: the reference multisection must reproduce bit
    for bit, including an eigenvalue 0 returned as +0.0."""
    s = _scaled(h)
    lo, hi = gershgorin_interval(h)
    pad = 16 * sys.float_info.epsilon * max(1.0, abs(lo), abs(hi))
    index = np.arange(h.size)
    lower = np.full(h.size, _keys(lo - pad))
    upper = np.full(h.size, _keys(hi + pad))
    while True:
        mid = (lower >> 1) + (upper >> 1) + (lower & upper & 1)  # floor((lower + upper) / 2)
        if not (mid > lower).any():
            break
        above = _count_less(s, _values(mid)) > index
        upper = np.where(above, mid, upper)
        lower = np.where(above, lower, mid)
    found = 0.5 * (_values(lower) + _values(upper))
    found[np.abs(found) <= s.pivmin / s.factor] = 0.0
    return found


def _multisection_chains():
    rng = random.Random(61)
    chains = [(f"krawtchouk-{n}", krawtchouk(n)) for n in [*range(2, 66), 1024]]
    chains += [(f"random-{n}", random_jacobi(rng, n, 1e-9)) for n in (2, 3, 5, 16, 17, 64, 69, 147, 342)]
    for b in (1e-200, 1e200):
        chains.append((f"three-site-{b:g}", JacobiMatrix((0.0, 0.0, 0.0), (b, b))))
        base = random_jacobi(rng, 20)
        chains.append((f"random-20x{b:g}", JacobiMatrix([a * b for a in base.diag], [c * b for c in base.offdiag])))
    chains.append(("zero-diagonal-5", JacobiMatrix((0.0,) * 5, (1.0, 2.0, 0.5, 3.0))))
    chains.append(("across-zero", JacobiMatrix((-3.0, 0.0, 3.0), (1.0, 1.0))))
    chains.append(("positive", JacobiMatrix([10.0 + k for k in range(30)], [0.1] * 29)))
    return [pytest.param(h, id=name) for name, h in chains]


class TestMultisection:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", _multisection_chains())
    def test_bit_identical_to_bisection(self, h):
        lo, hi = gershgorin_interval(h)
        found = np.asarray(eigenvalues(h, (hi - lo) / (h.size - 1) * 1e-14).eigenvalues)
        assert found.view(np.int64).tolist() == key_halving_bisection(h).view(np.int64).tolist()

    def test_bracket_across_zero_is_wider_than_int64(self):
        # the key width of a bracket across 0 is the sum of two keys above 2^62
        lo, hi = gershgorin_interval(JacobiMatrix((-3.0, 0.0, 3.0), (1.0, 1.0)))
        assert int(_keys(hi)) - int(_keys(lo)) > 2**63

    @pytest.mark.parametrize("n", [3, 17, 256])
    def test_prepares_the_matrix_once(self, n, monkeypatch):
        import palinfrac.jacobi as jacobi_module

        calls = []
        scaled = jacobi_module._scaled

        def counting(h):
            calls.append(h)
            return scaled(h)

        monkeypatch.setattr(jacobi_module, "_scaled", counting)
        eigenvalues(krawtchouk(n))
        assert len(calls) == 1


class TestEigenvector:
    def test_worked_example(self, chain3):
        v = eigenvector(chain3, 0.0)
        assert v == pytest.approx(np.array([1.0, 0.0, -1.0]) / math.sqrt(2), abs=1e-14)

    def test_single_site(self):
        assert eigenvector(JacobiMatrix((4.0,), ()), 4.0) == pytest.approx([1.0])

    def test_two_site(self):
        v = eigenvector(JacobiMatrix((0.0, 0.0), (1.0,)), 1.0)
        assert v == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2), abs=1e-14)

    def test_rejects_non_eigenvalue(self, chain3):
        with pytest.raises(NotAnEigenvalue):
            eigenvector(chain3, 0.5)

    def test_orthogonality(self):
        rng = random.Random(43)
        for _ in range(10):
            h = random_jacobi(rng, rng.randint(2, 12))
            spec = eigenvalues(h)
            vectors = [eigenvector(h, lam) for lam in spec.eigenvalues]
            for i in range(len(vectors)):
                for j in range(i + 1, len(vectors)):
                    assert abs(float(vectors[i] @ vectors[j])) <= 1e-8

    def test_spectral_reconstruction(self):
        rng = random.Random(47)
        for _ in range(10):
            h = random_jacobi(rng, rng.randint(2, 12))
            spec = eigenvalues(h)
            basis = np.column_stack([eigenvector(h, lam) for lam in spec.eigenvalues])
            rebuilt = basis @ np.diag(spec.eigenvalues) @ basis.T
            dense = h.dense()
            scale = np.abs(dense).max()
            assert np.abs(rebuilt - dense).max() <= 1e-8 * scale

    def test_batched_columns_match_single_vectors(self):
        rng = random.Random(53)
        h = random_jacobi(rng, 9)
        lams = eigenvalues(h).eigenvalues
        basis = eigenvectors(h, lams)
        for k, lam in enumerate(lams):
            assert np.abs(basis[:, k] - eigenvector(h, lam)).max() <= 1e-14

    def test_no_eigenvalues_give_no_columns(self, chain3):
        for h in (chain3, JacobiMatrix((4.0,), ())):
            basis = eigenvectors(h, [])
            assert basis.shape == (h.size, 0)

    def test_zero_pivot_at_eigenvalue_zero(self):
        # zero diagonal, odd size: the pivots at lam = 0 alternate between
        # zero (guarded) and huge, and the eigenvector vanishes on odd sites
        h = JacobiMatrix((0.0,) * 5, (1.0, 2.0, 0.5, 3.0))
        v = eigenvector(h, 0.0)
        expected = np.array([1.0, 0.0, -0.5, 0.0, 0.5 * 0.5 / 3.0])
        assert v == pytest.approx(expected / np.linalg.norm(expected), abs=1e-14)


@pytest.mark.filterwarnings("error")
class TestKrawtchoukScale:
    @pytest.mark.parametrize("n", [64, 65, 256, 1024])
    def test_eigenvalues(self, n):
        computed = np.asarray(eigenvalues(krawtchouk(n)).eigenvalues)
        assert np.abs(computed - (np.arange(n) - (n - 1) / 2)).max() <= 1e-12 * n

    def test_counts_at_exact_eigenvalues(self):
        # every shift is an exact eigenvalue, so a pivot hits zero; guarded
        # before it is counted, the count is k or k + 1, never off by more
        n = 1024
        h = krawtchouk(n)
        exact = np.arange(n) - (n - 1) / 2
        assert set((_count_less(_scaled(h), exact) - np.arange(n)).tolist()) <= {0, 1}
        assert _count_less(_scaled(h), exact + 0.5).tolist() == list(range(1, n + 1))

    def test_bisection_ends_within_64_counts(self, monkeypatch):
        # odd size: the eigenvalue 0 is hit exactly by a bracket end
        import palinfrac.jacobi as jacobi_module

        shifts = []
        count = jacobi_module._count_less

        def counting(s, x):
            shifts.append(np.asarray(x))
            return count(s, x)

        monkeypatch.setattr(jacobi_module, "_count_less", counting)
        # resolved to pivmin = tiny * max b^2, the width of the pivot guard, and returned as 0
        assert abs(eigenvalues(krawtchouk(65)).eigenvalues[32]) <= 1e-300
        # N = 65: b = 4, the largest b <= 6 with 65 (2^b - 1) <= 1024; each pass
        # divides the fewer than 2^64 doubles of a bracket by 2^b
        b = 4
        assert all(x.size == 65 * (2**b - 1) for x in shifts)
        assert len(shifts) <= math.ceil(64 / b)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_eigenvectors_first_components(self, n):
        h = krawtchouk(n)
        basis = eigenvectors(h, np.arange(n) - (n - 1) / 2)
        log_binomials = [math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k) for k in range(n)]
        weights = [math.exp(b - (n - 1) * math.log(2)) for b in log_binomials]
        assert (basis[0] > 0).all()
        assert np.abs(basis[0] ** 2 - weights).max() <= 1e-12
        assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-12


class TestPersymmetry:
    def test_examples(self, chain3):
        assert is_persymmetric(chain3, 1e-15)
        assert not is_persymmetric(JacobiMatrix((1.0, 2.0), (1.0,)), 1e-12)
        assert is_persymmetric(JacobiMatrix((0.0, 5.0, 0.0), (3.0, 3.0)), 0.0)

    def test_tolerance_is_inclusive(self):
        h = JacobiMatrix((0.0, 1e-9), (1.0,))
        assert is_persymmetric(h, 1e-9)
        assert not is_persymmetric(h, 1e-10)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_bad_tolerance(self, chain3, tol):
        # NaN compares false everywhere and would read as "not persymmetric"
        with pytest.raises(ValueError):
            is_persymmetric(chain3, tol)


class TestExactFloatConsistency:
    def test_chebyshev_chain_spectrum_is_cosine_grid(self):
        for n in range(2, 11):
            h = from_jfraction(chebyshev_jfraction(n))
            computed = eigenvalues(h).eigenvalues
            expected = sorted(math.cos(k * math.pi / n) for k in range(n + 1))
            assert computed == pytest.approx(expected, abs=1e-10)
