import collections
import copy
import importlib
import pickle
import random
from fractions import Fraction
from operator import ne
from pathlib import Path

import pytest

from genutil import (
    interlacing_pair,
    noninterlacing_pair,
    poly_from_roots,
    rand_fraction,
    rand_positive_fraction,
    random_jfraction,
    random_nonpalindromic_jfraction,
    random_palindromic_jfraction,
)
from palinfrac import pfraction
from palinfrac.errors import DegreeMismatch, NotInterlacing
from palinfrac.jfraction import (
    JFraction,
    _cauchy_index,
    chebyshev_jfraction,
    expand_jfraction,
    interlacing_check,
    is_palindromic_jfraction,
    jfraction_to_rational,
    sturm_chain,
)
from palinfrac.polynomial import ONE, X, ZERO, Polynomial, chebyshev_t, chebyshev_u, three_term

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


class TestExpand:
    def test_examples(self):
        jf = expand_jfraction(HALF_SHIFT, CUBIC)
        assert jf.a == (0, 0, 0)
        assert jf.b2 == (Fraction(1, 2), Fraction(1, 2))

        # (x-1)(x-2)(x-3) = (x - 9)(x+1)(x+2) + 36 (x + 1/3): b^2 = -36
        with pytest.raises(NotInterlacing):
            expand_jfraction(NONINTER_Q, NONINTER_P)

        jf = expand_jfraction(ONE, Polynomial((-5, 1)))
        assert (jf.a, jf.b2) == ((5,), ())

    def test_shape_errors(self):
        with pytest.raises(DegreeMismatch):
            expand_jfraction(ONE, X2M1)
        with pytest.raises(DegreeMismatch):
            expand_jfraction(2 * X, X2M1)
        with pytest.raises(DegreeMismatch):
            expand_jfraction(HALF_SHIFT, 2 * CUBIC)

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

    def test_single_level_cases(self):
        # x / (x^2 - 1): one level, a = (0, 0), b^2 = 1
        assert expand_jfraction(X, X2M1) == JFraction((0, 0), (1,))
        assert expand_jfraction(ONE, X) == JFraction((0,), ())
        # x^2 = x * x: the first remainder vanishes
        with pytest.raises(NotInterlacing):
            expand_jfraction(X, Polynomial((0, 0, 1)))
        # x^3 + 1 = x * x^2 + 1: the remainder drops from degree 1 to 0
        with pytest.raises(NotInterlacing):
            expand_jfraction(Polynomial((0, 0, 1)), Polynomial((1, 0, 0, 1)))


def _level_by_level(Q, P):
    """J-fraction of Q/P one division level at a time, independent of the
    P-fraction Euclid: P = (x - a) Q - b^2 R with R monic of degree
    deg P - 2, ``a`` from the x^(n-1) coefficients.  Where that fails,
    the name of the failure instead."""
    a_terms, b2_terms = [], []
    while P.degree >= 2:
        n = P.degree
        a = Q.coeff(n - 2) - P.coeff(n - 1)
        rem = (X - Polynomial((a,))) * Q - P
        if rem.is_zero:
            return "zero remainder"
        if rem.degree < n - 2:
            return "degree drop"
        if rem.leading_coefficient <= 0:
            return "non-positive coupling"
        a_terms.append(a)
        b2_terms.append(rem.leading_coefficient)
        P, Q = Q, rem.monic()
    return JFraction(a_terms + [-P.coeff(0)], b2_terms)


def _random_monic_pair(rng, n):
    """Monic (Q, P), deg P = n: from root sets (interlacing or not), from
    sparse random rational coefficients, or from a J-fraction recurrence whose
    couplings may have any sign."""
    kind = rng.randrange(4)
    if kind == 0:
        p, q = interlacing_pair(rng, n)
    elif kind == 1:
        p, q = poly_from_roots(rng.randint(-6, 6) for _ in range(n)), poly_from_roots(
            rng.randint(-6, 6) for _ in range(n - 1)
        )
    elif kind == 2:
        # sparse coefficients: vanishing leading remainder coefficients are common
        def sparse(deg):
            body = [Fraction(rng.choice((0, 0, rng.randint(-9, 9))), rng.randint(1, 4)) for _ in range(deg)]
            return Polynomial(body + [1])

        p, q = sparse(n), sparse(n - 1)
    else:
        signs = [1 if rng.random() < 0.9 else rng.choice((-1, 0)) for _ in range(n - 1)]
        steps = [
            (X - Polynomial((Fraction(rng.randint(-6, 6), rng.randint(1, 3)),)), -b2)
            for b2 in [Fraction(1)] + [s * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for s in signs]
        ]
        p, q = three_term(steps, (ZERO, ONE))[-1], three_term(steps, (-ONE, ZERO))[-1]
    return q, p


class TestEuclidReading:
    def test_agrees_with_level_by_level_division(self):
        rng = random.Random(2024)
        outcomes = collections.Counter()
        for _ in range(2000):
            q, p = _random_monic_pair(rng, rng.randint(1, 8))
            expected = _level_by_level(q, p)
            if isinstance(expected, JFraction):
                assert expand_jfraction(q, p) == expected
                outcomes["expanded"] += 1
            else:
                with pytest.raises(NotInterlacing):
                    expand_jfraction(q, p)
                outcomes[expected] += 1
        assert outcomes["expanded"] >= 500
        assert min(outcomes.values()) >= 50 and len(outcomes) == 4

    @staticmethod
    def _divisions(monkeypatch, q, p):
        """Number of polynomial divisions expand_jfraction runs on (q, p)."""
        calls = []
        divmod_ = pfraction.poly_divmod

        def counting(num, den):
            calls.append(None)
            return divmod_(num, den)

        monkeypatch.setattr(pfraction, "poly_divmod", counting)
        try:
            expand_jfraction(q, p)
        except NotInterlacing:
            pass
        monkeypatch.undo()
        return len(calls)

    def test_rejects_at_the_first_bad_level(self, monkeypatch):
        # q / p is the Chebyshev J-fraction with 63 levels (all couplings > 0)
        q = chebyshev_t(62).monic()
        p = (X2M1 * chebyshev_u(61)).monic()
        assert self._divisions(monkeypatch, q, p) == 63
        # p64 = x p + q: the first coupling is b_0^2 = -1
        p64 = X * p + q
        assert p64.degree == 64
        with pytest.raises(NotInterlacing, match="partial quotient 1 "):
            expand_jfraction(p, p64)
        assert self._divisions(monkeypatch, p, p64) <= 1
        # p64 = x p - T_61: the remainder of p64 by p drops to degree 61
        p64 = X * p - chebyshev_t(61).monic()
        with pytest.raises(NotInterlacing, match="partial quotient 1 "):
            expand_jfraction(p, p64)
        assert self._divisions(monkeypatch, p, p64) <= 1

    @pytest.mark.parametrize("level", [0, 1, 7, 40])
    def test_negative_coupling_costs_level_plus_one_division(self, monkeypatch, level):
        b2 = [Fraction(1, 4)] * 63
        b2[level] = Fraction(-1, 4)
        steps = [(X, -v) for v in [Fraction(1)] + b2]
        p, q = three_term(steps, (ZERO, ONE))[-1], three_term(steps, (-ONE, ZERO))[-1]
        assert p.degree == 64
        with pytest.raises(NotInterlacing, match=f"partial quotient {level + 1} "):
            expand_jfraction(q, p)
        assert self._divisions(monkeypatch, q, p) <= level + 1


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

    def test_decision_pickles_and_deep_copies(self):
        jf = random_palindromic_jfraction(random.Random(43))
        q, p, _ = jfraction_to_rational(jf)
        decision = is_palindromic_jfraction(q, p)
        assert decision.palindromic
        for copied in (pickle.loads(pickle.dumps(decision)), copy.deepcopy(decision)):
            assert copied == decision
            assert copied.cofactor * p == q * q - Polynomial((decision.beta,))

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


def _cauchy_bound(p):
    """B = 1 + max |c_i| / |lead|; every root of p lies strictly inside (-B, B)."""
    body = p.coefficients[:-1]
    return 1 + max((abs(c) for c in body), default=0) / abs(p.leading_coefficient)


def _interval_count(chain, lo, hi):
    """Reference count of the distinct real roots in (lo, hi]: the sign
    changes of the chain evaluated exactly at lo minus those at hi."""

    def changes(x):
        signs = [v > 0 for v in (e.eval_exact(x) for e in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


class TestSturmMachinery:
    def test_count_real_roots(self):  # over the whole line
        # the distinct real roots of p: the Cauchy index of p'/p, each real
        # root a pole of residue its multiplicity > 0
        cases = [
            (CUBIC, 3),
            (-3 * CUBIC, 3),
            (NONINTER_P, 3),  # roots 1, 2, 3
            (HALF_SHIFT, 2),
            (Polynomial((1, 0, 1)), 0),
            (Polynomial((1, 1)) ** 2 * Polynomial((-3, 1)), 2),
            (Polynomial((0, 1, 0, 1)), 1),
            (Polynomial((Fraction(-2, 3),)), 0),
            (chebyshev_t(40), 40),
        ]
        for p, count in cases:
            assert _cauchy_index(p, p.derivative()) == count

    def test_cauchy_bound_contains_roots(self):
        # the whole-line count equals the count inside the Cauchy bound
        rng = random.Random(47)
        seen = collections.Counter()
        for _ in range(2000):
            deg = rng.randint(0, 12)
            roots = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(deg)]
            quadratics = rng.randint(0, deg // 2) if rng.random() < 0.4 else 0
            p = poly_from_roots(roots[2 * quadratics:])
            for _ in range(quadratics):
                centre = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                p = p * ((X - Polynomial((centre,))) ** 2 + Polynomial((Fraction(rng.randint(1, 9), 4),)))
            p = rand_fraction(rng, nonzero=True) * p
            real = set(roots[2 * quadratics:])
            bound = _cauchy_bound(p)
            assert _cauchy_index(p, p.derivative()) == _interval_count(sturm_chain(p), -bound, bound) == len(real)
            seen["repeated"] += len(real) < deg - 2 * quadratics
            seen["quadratic"] += quadratics > 0
        assert seen["repeated"] >= 500 and seen["quadratic"] >= 300

    def test_chain_is_unscaled_chain_up_to_positive_factors(self):
        def unscaled_chain(p):
            chain = [p, p.derivative()]
            while not chain[-1].is_zero:
                chain.append(-(chain[-2] % chain[-1]))
            chain.pop()
            return chain

        rng = random.Random(41)
        polys = [CUBIC, NONINTER_P, NONINTER_Q, HALF_SHIFT, X2M1, 3 * CUBIC, -NONINTER_P]
        polys += [(X2M1 * chebyshev_u(7)).monic(), chebyshev_t(9)]
        polys += [interlacing_pair(rng, deg)[0] for deg in (4, 8, 12)]
        polys += [noninterlacing_pair(rng, 6)[1]]
        for p in polys:
            chain, reference = sturm_chain(p), unscaled_chain(p)
            assert len(chain) == len(reference)
            for got, ref in zip(chain, reference):
                factor = got.leading_coefficient / ref.leading_coefficient
                assert factor > 0
                assert got == factor * ref
                assert abs(got.content) == 1
            bound = _cauchy_bound(p)
            points = [-bound, Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(2), bound]
            for lo in points:
                for hi in points:
                    if lo < hi:
                        assert _interval_count(chain, lo, hi) == _interval_count(reference, lo, hi)


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

    def test_complex_roots_of_p_fail_despite_positive_wronskian(self):
        # W = x^4 + 5x^2 + 2 > 0, but P = x(x^2 + 1) has only one real root
        assert not interlacing_check(Polynomial((0, 1, 0, 1)), Polynomial((2, 0, 1)))

    def test_complex_roots_of_q_fail(self):
        assert not interlacing_check(CUBIC, Polynomial((1, 0, 1)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DegreeMismatch):
            interlacing_check(2 * CUBIC, HALF_SHIFT)
        with pytest.raises(DegreeMismatch):
            interlacing_check(CUBIC, 3 * HALF_SHIFT)
        with pytest.raises(DegreeMismatch):
            interlacing_check(CUBIC, X)
        with pytest.raises(DegreeMismatch):
            interlacing_check(CUBIC, Polynomial((0, 0, 0, 1)))

    def test_random_pairs_match_truth_from_root_lists(self):
        rng = random.Random(29)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            p, p_real, p_roots = _random_monic(rng, n)
            q, q_real, q_roots = _random_monic(rng, n - 1)
            if rng.random() < 0.4:
                # near-interlacing: Q's roots between P's, one of them maybe moved onto a root of P
                p_roots = sorted(Fraction(rng.randint(-6, 6), 2) for _ in range(n))
                q_roots = [(lo + hi) / 2 for lo, hi in zip(p_roots, p_roots[1:])]
                if q_roots and rng.random() < 0.5:
                    k = rng.randrange(n - 1)
                    q_roots[k] = p_roots[k + rng.randint(0, 1)]
                p, q, p_real, q_real = poly_from_roots(p_roots), poly_from_roots(q_roots), True, True
            p_sorted, q_sorted = sorted(p_roots), sorted(q_roots)
            truth = p_real and q_real and all(
                p_sorted[k] < q_sorted[k] < p_sorted[k + 1] for k in range(n - 1)
            )
            verdicts.add(truth)
            assert interlacing_check(p, q) == truth
            try:
                expand_jfraction(q, p)
                expanded = True
            except NotInterlacing:
                expanded = False
            assert expanded == truth
        assert verdicts == {True, False}

    def test_benchmark_inputs_need_no_evaluation(self, monkeypatch):
        # the exact-cf benchmark's interlacing inputs, seeds 1-3
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        exact_cf = importlib.import_module("exact_cf")

        def no_evaluation(poly, x):
            raise AssertionError("interlacing_check evaluated a polynomial")

        monkeypatch.setattr(Polynomial, "eval_exact", no_evaluation)
        verdicts = []
        for seed in (1, 2, 3):
            for task in exact_cf.build_inputs(seed):
                if task.kind in ("interlacing", "noninterlacing"):
                    p, q = Polynomial(task.data[0]), Polynomial(task.data[1])
                    expected = task.kind == "interlacing" and task.data[2]
                    assert interlacing_check(p, q) is expected
                    verdicts.append(expected)
        assert len(verdicts) == 24 and verdicts.count(True) == 12

    def test_at_size(self):
        assert interlacing_check(chebyshev_t(24).monic(), chebyshev_u(23).monic())
        assert interlacing_check((X2M1 * chebyshev_u(63)).monic(), chebyshev_t(64).monic())
        assert interlacing_check(*interlacing_pair(random.Random(5), 24))
        assert not interlacing_check(*noninterlacing_pair(random.Random(5), 24))


def _recurrence_pair(a, b2):
    """(P, Q) of the J-fraction a, b2 by the plain three-term recurrence, with
    no check on b2, so a coupling may be negative."""
    steps = [(Polynomial((-ak, 1)), -bk) for ak, bk in zip(a, (1, *b2))]
    return three_term(steps, (ZERO, ONE))[-1], three_term(steps, (-ONE, ZERO))[-1]


def _wronskian_oracle(P, Q):
    """The interlacing oracle as two Sturm counts: P has deg P distinct real
    roots and the Wronskian W = P'Q - PQ' has none (then W > 0, so every
    residue Q(x_i)/P'(x_i) = W(x_i)/P'(x_i)^2 is positive).  Each count is
    V(-inf) - V(+inf) on `sturm_chain`, read off leading signs and degrees."""

    def real_roots(p):
        chain = sturm_chain(p)
        at_plus = [e.content > 0 for e in chain]
        at_minus = [s != (e.degree % 2 == 1) for s, e in zip(at_plus, chain)]
        return sum(map(ne, at_minus, at_minus[1:])) - sum(map(ne, at_plus, at_plus[1:]))

    W = P.derivative() * Q - P * Q.derivative()
    return real_roots(P) == P.degree and real_roots(W) == 0


def _random_pair(rng, kind, n):
    """Monic (P, Q), deg P = n <= 9, of one of five kinds."""
    if kind == "lattice":  # roots on a coarse lattice, repeats and shared roots included
        roots = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(2 * n - 1)]
        return poly_from_roots(roots[:n]), poly_from_roots(roots[n:])
    if kind == "coefficients":
        return tuple(Polynomial([*(rng.randint(-5, 5) for _ in range(k)), 1]) for k in (n, n - 1))
    points = sorted(Fraction(v, 2) for v in rng.sample(range(-24, 25), 2 * n - 1))
    p_roots, q_roots = points[0::2], points[1::2]
    if kind == "tie" and q_roots:  # one root of Q moved onto a neighbouring root of P
        k = rng.randrange(n - 1)
        q_roots[k] = p_roots[k + rng.randint(0, 1)]
    if kind == "quadratic" and n >= 2:  # two roots of P traded for an irreducible quadratic factor
        centre = p_roots[0]
        quadratic = (X - Polynomial((centre,))) ** 2 + Polynomial((Fraction(rng.randint(1, 9), 4),))
        return poly_from_roots(p_roots[2:]) * quadratic, poly_from_roots(q_roots)
    return poly_from_roots(p_roots), poly_from_roots(q_roots)


class TestCauchyIndex:
    def test_examples(self):
        assert _cauchy_index(X, ONE) == 1  # 1/x
        assert _cauchy_index(X, -ONE) == -1  # -1/x
        assert _cauchy_index(X**2, ONE) == 0  # 1/x^2 does not change sign at 0
        assert _cauchy_index(X * (X - ONE), X - ONE) == 1  # (x - 1)/(x(x - 1)) = 1/x

    def test_agrees_with_wronskian_and_expansion_on_random_pairs(self):
        rng = random.Random(16)
        kinds = ("lattice", "coefficients", "interlacing", "tie", "quadratic")
        seen = collections.Counter()
        for k in range(1200):
            kind = kinds[k % len(kinds)]
            p, q = _random_pair(rng, kind, rng.randint(1, 9))
            verdict = interlacing_check(p, q)
            assert verdict is _wronskian_oracle(p, q), (kind, p, q)
            try:
                expand_jfraction(q, p)
                expanded = True
            except NotInterlacing:
                expanded = False
            assert expanded is verdict, (kind, p, q)
            seen[kind, verdict] += 1
        assert seen["interlacing", False] == 0
        assert sum(seen[kind, True] for kind in kinds) >= 300
        assert all(seen[kind, False] >= 50 for kind in ("lattice", "coefficients", "tie", "quadratic"))

    @pytest.mark.parametrize("levels", [32, 64, 128])
    def test_small_rational_jfractions_at_size(self, levels):
        # the Wronskian of these pairs has degree 2 levels - 2; its Sturm chain
        # reached 12377 coefficient bits at 32 levels
        rng = random.Random(levels)
        for _ in range(2):
            a = [rand_fraction(rng, 9) for _ in range(levels)]
            b2 = [rand_positive_fraction(rng, 9) for _ in range(levels - 1)]
            q, p, _ = jfraction_to_rational(JFraction(a, b2))
            assert interlacing_check(p, q)
            b2[rng.randrange(levels - 1)] *= -1  # no longer a J-fraction
            p, q = _recurrence_pair(a, b2)
            assert not interlacing_check(p, q)
            with pytest.raises(NotInterlacing):
                expand_jfraction(q, p)


def _random_monic(rng, deg):
    """Monic polynomial of degree ``deg`` with roots on a coarse lattice (so
    repeats are common) and, sometimes, an irreducible quadratic factor;
    returns (poly, real_rooted, real_roots)."""
    roots = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(deg)]
    if deg >= 2 and rng.random() < 0.25:
        centre = Fraction(rng.randint(-4, 4), 2)
        quadratic = (X - Polynomial((centre,))) ** 2 + Polynomial((Fraction(rng.randint(1, 9), 4),))
        return poly_from_roots(roots[2:]) * quadratic, False, roots[2:]
    return poly_from_roots(roots), True, roots
