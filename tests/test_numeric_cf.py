import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinfrac.errors import NotCoprime, OutOfRange
from palinfrac.numeric_cf import (
    ConvergentPair,
    NumericCF,
    convergents,
    evaluate,
    expand_euclid,
    is_palindromic_serret,
    reverse,
)
from palinfrac.polynomial import three_term

coprime_pairs = st.tuples(st.integers(2, 10_000), st.integers(1, 9_999)).filter(
    lambda t: t[1] < t[0] and math.gcd(t[0], t[1]) == 1
)


class TestNumericCF:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            NumericCF(())
        with pytest.raises(ValueError):
            NumericCF((2, 0))

    def test_rejects_single_one(self):
        # [1] would evaluate to 1, outside (0, 1)
        with pytest.raises(ValueError):
            NumericCF((1,))

    def test_palindrome_flag(self):
        assert NumericCF((1, 2, 1)).is_palindrome
        assert not NumericCF((1, 3)).is_palindrome


class TestExpandEuclid:
    def test_canonical_examples(self):
        assert expand_euclid(3, 4).terms == (1, 3)
        assert expand_euclid(1, 2).terms == (2,)
        assert expand_euclid(2, 7).terms == (3, 2)

    def test_padded_examples(self):
        assert expand_euclid(3, 4, "padded").terms == (1, 2, 1)
        assert expand_euclid(1, 2, "padded").terms == (1, 1)

    def test_padded_preserves_value(self):
        for q, p in [(3, 4), (1, 2), (2, 7), (355, 452)]:
            assert evaluate(expand_euclid(q, p, "padded")) == (q, p)

    def test_canonical_last_term_at_least_two(self):
        for p in range(2, 200):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert expand_euclid(q, p).terms[-1] >= 2

    def test_errors(self):
        with pytest.raises(NotCoprime):
            expand_euclid(2, 4)
        with pytest.raises(OutOfRange):
            expand_euclid(3, 3)
        with pytest.raises(OutOfRange):
            expand_euclid(0, 5)
        with pytest.raises(OutOfRange):
            expand_euclid(5, 3)
        with pytest.raises(ValueError):
            expand_euclid(1, 2, "other")


class TestConvergents:
    def test_examples(self):
        assert convergents(NumericCF((1, 2, 1))) == (
            ConvergentPair(1, 1),
            ConvergentPair(3, 2),
            ConvergentPair(4, 3),
        )
        assert convergents(NumericCF((2,))) == (ConvergentPair(2, 1),)
        assert convergents(NumericCF((1, 3))) == (ConvergentPair(1, 1), ConvergentPair(4, 3))

    def test_integer_kernel_gives_the_golden_pairs(self):
        # (1, 2, 1) -> (p, q) = (1, 1), (3, 2), (4, 3) above, seeds (p_{-1}, p_0) = (0, 1)
        steps = [(1, 1), (2, 1), (1, 1)]
        assert three_term(steps, (0, 1)) == [1, 1, 3, 4]
        assert three_term(steps, (1, 0)) == [0, 1, 2, 3]
        assert three_term([(2, 1)], (0, 1)) == [1, 2]
        assert three_term([], (0, 1)) == [1]

    def test_final_pair_is_the_value(self):
        cf = expand_euclid(355, 452)
        last = convergents(cf)[-1]
        assert (last.q, last.p) == (355, 452)

    def test_pairs_coprime_and_denominators_increasing(self):
        cf = expand_euclid(89, 144)
        pairs = convergents(cf)
        assert all(math.gcd(pair.p, pair.q) == 1 for pair in pairs)
        assert all(a.p < b.p for a, b in zip(pairs, pairs[1:]))

    def test_difference_equation_holds_termwise(self):
        cf = expand_euclid(101, 257)
        pairs = convergents(cf)
        ps = [0, 1] + [pair.p for pair in pairs]
        qs = [1, 0] + [pair.q for pair in pairs]
        for k, a in enumerate(cf.terms):
            assert ps[k + 2] == a * ps[k + 1] + ps[k]
            assert qs[k + 2] == a * qs[k + 1] + qs[k]

    @settings(max_examples=150, deadline=None)
    @given(coprime_pairs)
    def test_wronskian_is_plus_minus_one(self, pair):
        p, q = pair
        cf = expand_euclid(q, p)
        pairs = convergents(cf)
        ps = [0, 1] + [c.p for c in pairs]
        qs = [1, 0] + [c.q for c in pairs]
        for k in range(len(pairs)):
            assert ps[k + 2] * qs[k + 1] - ps[k + 1] * qs[k + 2] == (-1) ** (k + 1)


class TestEvaluateAndReverse:
    def test_evaluate_examples(self):
        assert evaluate(NumericCF((1, 2, 1))) == (3, 4)
        assert evaluate(NumericCF((2,))) == (1, 2)
        assert evaluate(NumericCF((3, 2))) == (2, 7)

    @settings(max_examples=150, deadline=None)
    @given(coprime_pairs, st.booleans())
    def test_round_trip(self, pair, padded):
        p, q = pair
        form = "padded" if padded else "canonical"
        assert evaluate(expand_euclid(q, p, form)) == (q, p)

    def test_reverse_examples(self):
        assert reverse(NumericCF((1, 3))).terms == (3, 1)
        assert evaluate(reverse(NumericCF((1, 3)))) == (1, 4)
        assert reverse(NumericCF((1, 2, 1))).terms == (1, 2, 1)
        assert reverse(NumericCF((3, 2))).terms == (2, 3)
        assert evaluate(reverse(NumericCF((3, 2)))) == (3, 7)

    def test_reverse_is_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.randint(3, 5000)
            q = rng.randint(1, p - 1)
            if math.gcd(p, q) != 1:
                continue
            cf = expand_euclid(q, p)
            assert reverse(reverse(cf)) == cf

    def test_reverse_evaluates_to_denominator_ratio(self):
        # value of the reversed fraction is p_N / p_{N+1}
        rng = random.Random(11)
        for _ in range(50):
            p = rng.randint(3, 5000)
            q = rng.randint(1, p - 1)
            if math.gcd(p, q) != 1:
                continue
            cf = expand_euclid(q, p)
            pairs = convergents(cf)
            p_last = pairs[-1].p
            p_prev = pairs[-2].p if len(pairs) >= 2 else 1
            assert evaluate(reverse(cf)) == (p_prev, p_last)


class TestSerret:
    def test_examples(self):
        d = is_palindromic_serret(3, 4)
        assert (d.palindromic, d.sign, d.form) == (True, -1, "padded")
        assert d.expansion.terms == (1, 2, 1)

        d = is_palindromic_serret(2, 5)
        assert (d.palindromic, d.sign, d.form) == (True, 1, "canonical")
        assert d.expansion.terms == (2, 2)

        d = is_palindromic_serret(2, 7)
        assert not d.palindromic
        assert d.sign is None

    def test_errors(self):
        with pytest.raises(NotCoprime):
            is_palindromic_serret(2, 4)
        with pytest.raises(OutOfRange):
            is_palindromic_serret(4, 3)

    def test_agrees_with_direct_inspection_small(self):
        for p in range(2, 120):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                direct = (
                    expand_euclid(q, p).is_palindrome
                    or expand_euclid(q, p, "padded").is_palindrome
                )
                assert is_palindromic_serret(q, p).palindromic == direct, (q, p)
