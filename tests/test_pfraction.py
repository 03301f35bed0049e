import copy
import pickle
import random
from fractions import Fraction

import pytest

from genutil import random_jfraction, random_monic_pfraction
from palinfrac.errors import DegreeError, NotCoprime
from palinfrac.jfraction import jfraction_to_rational
from palinfrac.pfraction import (
    PFraction,
    _reconstruct_raw,
    expand_pfraction,
    is_palindromic_pfraction,
    pfraction_to_rational,
)
from palinfrac.polynomial import ONE, X, ZERO, Polynomial

GOLDEN1_Q = Polynomial((2, 3, 1))             # (x+1)(x+2)
GOLDEN1_P = Polynomial((-6, 11, -6, 1))       # (x-1)(x-2)(x-3)
GOLDEN1_QUOTIENTS = (
    Polynomial((-9, 1)),
    Polynomial((Fraction(-2, 27), Fraction(-1, 36))),
    Polynomial((Fraction(54, 5), Fraction(162, 5))),
)
GOLDEN2_Q = Polynomial((2, 1, 3, 1))          # x^3 + 3x^2 + x + 2
GOLDEN2_P = Polynomial((3, 4, 10, 6, 1))      # x^4 + 6x^3 + 10x^2 + 4x + 3
GOLDEN2_QUOTIENTS = (
    Polynomial((3, 1)),
    Polynomial((1, 0, 1)),
    Polynomial((3, 1)),
)


class TestPFractionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PFraction(())
        with pytest.raises(ValueError):
            PFraction((X, ZERO))

    def test_palindrome_flag(self):
        assert PFraction(GOLDEN2_QUOTIENTS).is_palindromic
        assert not PFraction(GOLDEN1_QUOTIENTS).is_palindromic

    def test_pickle_and_deepcopy_round_trips(self):
        pf = PFraction(GOLDEN1_QUOTIENTS)
        for copied in (pickle.loads(pickle.dumps(pf)), copy.deepcopy(pf)):
            assert copied == pf
            assert hash(copied) == hash(pf)

    def test_json_round_trip(self):
        pf = PFraction(GOLDEN1_QUOTIENTS)
        assert PFraction.from_json_obj(pf.to_json_obj()) == pf


class TestExpand:
    def test_golden_examples(self):
        assert expand_pfraction(GOLDEN1_Q, GOLDEN1_P).partial_quotients == GOLDEN1_QUOTIENTS
        assert expand_pfraction(GOLDEN2_Q, GOLDEN2_P).partial_quotients == GOLDEN2_QUOTIENTS
        assert expand_pfraction(ONE, X).partial_quotients == (X,)

    def test_quotient_degrees_at_least_one(self):
        for pf in (
            expand_pfraction(GOLDEN1_Q, GOLDEN1_P),
            expand_pfraction(GOLDEN2_Q, GOLDEN2_P),
        ):
            assert all(p.degree >= 1 for p in pf.partial_quotients)

    def test_degree_errors(self):
        with pytest.raises(DegreeError):
            expand_pfraction(GOLDEN1_P, GOLDEN1_Q)
        with pytest.raises(DegreeError):
            expand_pfraction(ZERO, X)
        with pytest.raises(DegreeError):
            expand_pfraction(ONE, ZERO)

    def test_not_coprime(self):
        q = Polynomial((0, 1, 1))          # x(x+1)
        p = Polynomial((0, -1, 0, 1))      # x(x-1)(x+1)
        with pytest.raises(NotCoprime):
            expand_pfraction(q, p)


class TestReconstruction:
    def test_golden_examples(self):
        assert pfraction_to_rational(PFraction(GOLDEN2_QUOTIENTS)) == (GOLDEN2_Q, GOLDEN2_P)
        assert pfraction_to_rational(PFraction((X,))) == (ONE, X)
        # non-monic quotient lists reconstruct to the monic normalization
        assert pfraction_to_rational(PFraction(GOLDEN1_QUOTIENTS)) == (GOLDEN1_Q, GOLDEN1_P)

    def test_raw_wronskian_is_minus_one(self):
        # P_{k+1} Q_k - P_k Q_{k+1} = -1 for k = 0..N on arbitrary nonzero quotients
        rng = random.Random(23)
        for _ in range(60):
            quotients = []
            for _ in range(rng.randint(1, 7)):
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
                quotients.append(Polynomial(coeffs + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))]))
            ps, qs = _reconstruct_raw(PFraction(quotients))
            assert len(ps) == len(qs) == len(quotients) + 1
            for k in range(len(quotients)):
                assert ps[k + 1] * qs[k] - ps[k] * qs[k + 1] == -ONE

    def test_round_trip_on_random_monic_pairs(self):
        rng = random.Random(19)
        for _ in range(200):
            pf = random_monic_pfraction(rng, palindromic=bool(rng.getrandbits(1)))
            q, p = pfraction_to_rational(pf)
            assert expand_pfraction(q, p) == pf

    def test_round_trip_up_to_scaling_for_nonmonic_quotients(self):
        pf = PFraction((X, 2 * X, X))
        q, p = pfraction_to_rational(pf)
        assert p.is_monic
        assert expand_pfraction(q, p) == pf


class TestPalindromeCriterion:
    def test_golden_examples(self):
        decision = is_palindromic_pfraction(GOLDEN1_Q, GOLDEN1_P)
        assert not decision.palindromic
        assert decision.cofactor is None

        decision = is_palindromic_pfraction(GOLDEN2_Q, GOLDEN2_P)
        assert decision.palindromic
        assert decision.cofactor == Polynomial((1, 0, 1))
        assert decision.termwise_palindromic

    def test_trivial_pair(self):
        decision = is_palindromic_pfraction(ONE, X)
        assert decision.palindromic
        assert decision.cofactor == ZERO
        assert decision.termwise_palindromic

    def test_requires_monic(self):
        with pytest.raises(DegreeError):
            is_palindromic_pfraction(2 * GOLDEN2_Q, GOLDEN2_P)

    def test_propagates_not_coprime(self):
        q = Polynomial((0, 1, 1))
        p = Polynomial((0, -1, 0, 1))
        with pytest.raises(NotCoprime):
            is_palindromic_pfraction(q, p)

    def test_monic_quotients_make_both_notions_agree(self):
        rng = random.Random(29)
        for _ in range(60):
            pf = random_monic_pfraction(rng, palindromic=True)
            q, p = pfraction_to_rational(pf)
            decision = is_palindromic_pfraction(q, p)
            assert decision.palindromic and decision.termwise_palindromic
            assert decision.cofactor * p == q * q - ONE
        for _ in range(60):
            pf = random_monic_pfraction(rng, palindromic=False)
            q, p = pfraction_to_rational(pf)
            decision = is_palindromic_pfraction(q, p)
            assert not decision.palindromic and not decision.termwise_palindromic

    def test_palindromic_monic_level_128(self):
        rng = random.Random(31)
        half = [Polynomial((Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1)) for _ in range(64)]
        q, p = pfraction_to_rational(PFraction(half + half[::-1]))
        assert p.degree == 128 and p.is_monic and q.is_monic
        decision = is_palindromic_pfraction(q, p)
        assert decision.palindromic and decision.termwise_palindromic
        assert decision.cofactor * p == q * q - ONE

    def test_scaled_palindrome_gap_both_directions(self):
        # Non-monic quotients decouple the two notions through the
        # reconstruction scale c (divisibility <=> Q_{N+1} = c^2 P_N).
        # Direction 1: palindromic quotient list, divisibility fails (c = 2).
        q, p = pfraction_to_rational(PFraction((X, 2 * X, X)))
        assert (q, p) == (Polynomial((Fraction(-1, 2), 0, 1)), Polynomial((0, -1, 0, 1)))
        decision = is_palindromic_pfraction(q, p)
        assert decision.termwise_palindromic
        assert not decision.palindromic

        # Direction 2: quotients palindromic only up to the alternating
        # rescaling by c^2 = 1/16, yet the divisibility holds.
        quotients = (
            X,
            2 * X,
            X,
            Fraction(1, 16) * X,
            32 * X,
            Fraction(1, 16) * X,
        )
        q, p = pfraction_to_rational(PFraction(quotients))
        decision = is_palindromic_pfraction(q, p)
        assert decision.palindromic
        assert not decision.termwise_palindromic
        assert decision.cofactor * p == q * q - ONE


class TestJFractionConsistency:
    def test_jfraction_pairs_have_linear_quotients(self):
        rng = random.Random(101)
        for _ in range(40):
            jf = random_jfraction(rng, max_n=6)
            q, p, _ = jfraction_to_rational(jf)
            pf = expand_pfraction(q, p)
            assert len(pf.partial_quotients) == len(jf.a)
            assert all(quot.degree == 1 for quot in pf.partial_quotients)
            # the top quotient is exactly x - a_0
            assert pf.partial_quotients[0] == X - Polynomial((jf.a[0],))
            # and the evaluated fractions agree
            assert pfraction_to_rational(pf) == (q, p)
