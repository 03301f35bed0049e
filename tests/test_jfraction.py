import random
from fractions import Fraction

import pytest

from genutil import (
    interlacing_pair,
    noninterlacing_pair,
    random_jfraction,
    random_nonpalindromic_jfraction,
    random_palindromic_jfraction,
)
from palinfrac.errors import (
    DegreeMismatch,
    NotInterlacing,
    RemainderDegreeDrop,
    ZeroRemainder,
)
from palinfrac.jfraction import (
    JFraction,
    cauchy_root_bound,
    chebyshev_jfraction,
    count_real_roots,
    expand_jfraction,
    interlacing_check,
    is_palindromic_jfraction,
    jfraction_to_rational,
    jstep,
    sturm_chain,
)
from palinfrac.polynomial import ONE, X, Polynomial, chebyshev_t, chebyshev_u

X2M1 = Polynomial((-1, 0, 1))
CUBIC = Polynomial((0, -1, 0, 1))               # x^3 - x
HALF_SHIFT = Polynomial((Fraction(-1, 2), 0, 1))  # x^2 - 1/2
NONINTER_P = Polynomial((-6, 11, -6, 1))        # (x-1)(x-2)(x-3)
NONINTER_Q = Polynomial((2, 3, 1))              # (x+1)(x+2)


class TestJFractionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            JFraction((), ())
        with pytest.raises(ValueError):
            JFraction((0, 0), (1, 1))
        with pytest.raises(ValueError):
            JFraction((0, 0), (Fraction(-1, 2),))

    def test_json_round_trip(self):
        jf = JFraction((0, Fraction(1, 3)), (Fraction(2, 5),))
        assert JFraction.from_json_obj(jf.to_json_obj()) == jf


class TestJStep:
    def test_split_examples(self):
        assert jstep(CUBIC, HALF_SHIFT) == (0, Fraction(1, 2), X)
        assert jstep(NONINTER_P, NONINTER_Q) == (
            9,
            -36,
            Polynomial((Fraction(1, 3), 1)),
        )
        assert jstep(X2M1, X) == (0, 1, ONE)

    def test_contract_remultiplies(self):
        a, b2, rest = jstep(CUBIC, HALF_SHIFT)
        assert (X - Polynomial((a,))) * HALF_SHIFT - b2 * rest == CUBIC

    def test_zero_remainder(self):
        with pytest.raises(ZeroRemainder):
            jstep(Polynomial((0, 0, 1)), X)  # x^2 = x * x

    def test_remainder_degree_drop(self):
        with pytest.raises(RemainderDegreeDrop):
            jstep(Polynomial((1, 0, 0, 1)), Polynomial((0, 0, 1)))  # x^3+1 vs x^2

    def test_rejects_bad_shapes(self):
        with pytest.raises(DegreeMismatch):
            jstep(X, ONE)  # degree too small for a split
        with pytest.raises(DegreeMismatch):
            jstep(2 * CUBIC, HALF_SHIFT)


class TestExpand:
    def test_examples(self):
        jf = expand_jfraction(HALF_SHIFT, CUBIC)
        assert jf.a == (0, 0, 0)
        assert jf.b2 == (Fraction(1, 2), Fraction(1, 2))

        with pytest.raises(NotInterlacing):
            expand_jfraction(NONINTER_Q, NONINTER_P)

        jf = expand_jfraction(ONE, Polynomial((-5, 1)))
        assert (jf.a, jf.b2) == ((5,), ())

    def test_shape_errors(self):
        with pytest.raises(DegreeMismatch):
            expand_jfraction(ONE, X2M1)
        with pytest.raises(DegreeMismatch):
            expand_jfraction(2 * X, X2M1)

    def test_noncoprime_pair_reported_as_noninterlacing(self):
        # P = (x+1) Q shares both roots with Q
        q = Polynomial((2, 3, 1))
        p = Polynomial((1, 1)) * q
        with pytest.raises(NotInterlacing):
            expand_jfraction(q, p)

    def test_round_trip_from_random_fractions(self):
        rng = random.Random(42)
        for _ in range(60):
            jf = random_jfraction(rng)
            q, p, _ = jfraction_to_rational(jf)
            assert expand_jfraction(q, p) == jf


class TestReconstruction:
    def test_examples(self):
        q, p, _ = jfraction_to_rational(
            JFraction((0, 0, 0), (Fraction(1, 2), Fraction(1, 2)))
        )
        assert (q, p) == (HALF_SHIFT, CUBIC)

        q, p, _ = jfraction_to_rational(JFraction((5,), ()))
        assert (q, p) == (ONE, Polynomial((-5, 1)))

        q, p, _ = jfraction_to_rational(JFraction((0, 0), (Fraction(1, 4),)))
        assert (q, p) == (X, Polynomial((Fraction(-1, 4), 0, 1)))

    def test_recurrence_output_follows_conventions(self):
        # seeds and the no-palindrome sample: a=[0,1], b2=[1] gives Q = x - 1
        q, p, (Ps, Qs) = jfraction_to_rational(JFraction((0, 1), (1,)))
        assert Ps[0] == ONE and Qs[0].is_zero
        assert q == Polynomial((-1, 1))
        assert p == Polynomial((-1, -1, 1))

    def test_sequences_monic_with_expected_degrees(self):
        rng = random.Random(3)
        jf = random_jfraction(rng, max_n=6)
        _, _, (Ps, Qs) = jfraction_to_rational(jf)
        n_levels = len(jf.a)
        for k in range(1, n_levels + 1):
            assert Ps[k].is_monic and Ps[k].degree == k
            assert Qs[k].is_monic and Qs[k].degree == k - 1

    def test_liouville_ostrogradski_identity(self):
        rng = random.Random(5)
        for _ in range(40):
            jf = random_jfraction(rng)
            _, _, (Ps, Qs) = jfraction_to_rational(jf)
            coupling_product = Fraction(1)
            for k in range(len(jf.a)):
                lhs = Ps[k + 1] * Qs[k] - Ps[k] * Qs[k + 1]
                assert lhs == Polynomial((-coupling_product,))
                if k < len(jf.b2):
                    coupling_product *= jf.b2[k]

    def test_reversal_identity(self):
        # expanding P_N / P_{N+1} yields the reversed coefficient sequences
        rng = random.Random(9)
        for _ in range(25):
            jf = random_jfraction(rng)
            if len(jf.a) < 2:
                continue
            _, _, (Ps, Qs) = jfraction_to_rational(jf)
            top = len(jf.a) - 1
            reversed_jf = expand_jfraction(Ps[top], Ps[top + 1])
            assert reversed_jf.a == jf.a[::-1]
            assert reversed_jf.b2 == jf.b2[::-1]


class TestPalindromicity:
    def test_examples(self):
        decision = is_palindromic_jfraction(HALF_SHIFT, CUBIC)
        assert decision.palindromic
        assert decision.beta == Fraction(1, 4)
        assert decision.cofactor == X

        decision = is_palindromic_jfraction(ONE, Polynomial((-5, 1)))
        assert decision.palindromic
        assert decision.beta == 1
        assert decision.cofactor.is_zero

        q, p, _ = jfraction_to_rational(JFraction((0, 1), (1,)))
        assert not is_palindromic_jfraction(q, p).palindromic

    def test_propagates_noninterlacing(self):
        with pytest.raises(NotInterlacing):
            is_palindromic_jfraction(NONINTER_Q, NONINTER_P)

    def test_random_equivalence_both_routes(self):
        rng = random.Random(17)
        for _ in range(60):
            jf = random_palindromic_jfraction(rng)
            q, p, _ = jfraction_to_rational(jf)
            decision = is_palindromic_jfraction(q, p)
            assert decision.palindromic
            assert decision.cofactor * p == q * q - Polynomial((decision.beta,))
        for _ in range(60):
            jf = random_nonpalindromic_jfraction(rng)
            q, p, _ = jfraction_to_rational(jf)
            assert not is_palindromic_jfraction(q, p).palindromic


class TestChebyshevJFraction:
    def test_small_patterns(self):
        assert chebyshev_jfraction(2).a == (0, 0, 0)
        assert chebyshev_jfraction(2).b2 == (Fraction(1, 2), Fraction(1, 2))
        assert chebyshev_jfraction(3).b2 == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 2),
        )

    def test_single_level_off_pattern(self):
        # T_1 / ((x^2 - 1) U_0) = x / (x^2 - 1) carries the lone coupling 1
        jf = chebyshev_jfraction(1)
        assert (jf.a, jf.b2) == ((0, 0), (Fraction(1),))
        q, p, _ = jfraction_to_rational(jf)
        assert (q, p) == (X, X2M1)

    def test_reconstruction_matches_monic_chebyshev_pair(self):
        for n in range(1, 13):
            q, p, _ = jfraction_to_rational(chebyshev_jfraction(n))
            assert q == chebyshev_t(n).monic()
            assert p == (X2M1 * chebyshev_u(n - 1)).monic()

    def test_expansion_of_chebyshev_pair_matches_closed_form(self):
        for n in range(1, 13):
            q = chebyshev_t(n).monic()
            p = (X2M1 * chebyshev_u(n - 1)).monic()
            assert expand_jfraction(q, p) == chebyshev_jfraction(n)


class TestSturmMachinery:
    def test_count_real_roots(self):
        chain = sturm_chain(CUBIC)
        assert count_real_roots(chain, Fraction(-2), Fraction(2)) == 3
        assert count_real_roots(chain, Fraction(0), Fraction(2)) == 1
        assert count_real_roots(chain, Fraction(-2), Fraction(0)) == 2  # includes 0

    def test_cauchy_bound_contains_roots(self):
        bound = cauchy_root_bound(NONINTER_P)
        chain = sturm_chain(NONINTER_P)
        assert count_real_roots(chain, -bound, bound) == 3


class TestInterlacingCheck:
    def test_examples(self):
        assert interlacing_check(CUBIC, HALF_SHIFT)
        assert not interlacing_check(NONINTER_P, NONINTER_Q)
        p = (X2M1 * chebyshev_u(4)).monic()
        q = chebyshev_t(5).monic()
        assert interlacing_check(p, q)

    def test_degree_one_is_trivially_true(self):
        assert interlacing_check(Polynomial((-5, 1)), ONE)

    def test_common_root_fails(self):
        p = Polynomial((0, -1, 0, 1))  # roots -1, 0, 1
        q = Polynomial((0, 1)) * Polynomial((Fraction(1, 2), 1))  # roots 0, -1/2
        assert not interlacing_check(p, q.monic())

    def test_repeated_root_fails(self):
        p = Polynomial((1, 1)) ** 2 * Polynomial((-3, 1))
        q = Polynomial((0, 1)) * Polynomial((-2, 1))
        assert not interlacing_check(p.monic(), q.monic())

    def test_complex_roots_fail(self):
        p = (Polynomial((1, 0, 1)) * Polynomial((-1, 1))).monic()  # x^2+1 factor
        q = Polynomial((0, -1, 0, 1)).derivative().monic()
        assert not interlacing_check(p, q)

    def test_matches_construction_and_expansion_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(20):
            deg = rng.randint(2, 8)
            p, q = interlacing_pair(rng, deg)
            assert interlacing_check(p, q)
            expand_jfraction(q, p)  # must succeed
        for _ in range(20):
            deg = rng.randint(2, 8)
            p, q = noninterlacing_pair(rng, deg)
            assert not interlacing_check(p, q)
            with pytest.raises(NotInterlacing):
                expand_jfraction(q, p)
