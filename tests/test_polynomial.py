import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinfrac.errors import DivisionByZeroPolynomial, NotCoprime, OutOfRange
from palinfrac.jfraction import sturm_chain
from palinfrac.pfraction import expand_pfraction
from palinfrac.polynomial import (
    ONE,
    X,
    ZERO,
    Polynomial,
    chebyshev_t,
    chebyshev_u,
    format_rational,
    parse_rational,
    pell_abel_residual,
    poly_divmod,
    poly_gcd,
    three_term,
)

small_fraction = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
small_poly = st.lists(small_fraction, min_size=0, max_size=9).map(Polynomial)
nonzero_poly = small_poly.filter(lambda p: not p.is_zero)

# Wide coefficients for the integer core: denominators up to 2^64, either
# sign in every position (so negative leading coefficients), and zeros,
# which also give the zero polynomial.
wide_fraction = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**64)),
)
wide_list = st.lists(wide_fraction, min_size=0, max_size=7)


# -- a naive reference on plain Fraction lists, lowest degree first ---------


def _trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _ref_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b) -> tuple[tuple, tuple]:
    rem = list(_trim(a))
    b = _trim(b)
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, y in enumerate(b):
            rem[shift + i] -= factor * y
        rem = list(_trim(rem[:-1]))
    return _trim(quot), _trim(rem)


def _ref_eval(a, x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def _assert_canonical(p: Polynomial) -> None:
    """The stored pair: p = content * v with v integer, gcd 1, positive lead."""
    if p.is_zero:
        assert p.content == 0 and p.coefficients == ()
        return
    v = [c / p.content for c in p.coefficients]
    assert all(x.denominator == 1 for x in v)
    assert math.gcd(*(x.numerator for x in v)) == 1
    assert v[-1] > 0
    assert p.content * v[-1] == p.leading_coefficient
    for c in p.coefficients:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


class TestPolynomialBasics:
    def test_canonicalization(self):
        assert Polynomial((0, 0)).is_zero
        assert Polynomial((1, 2, 0, 0)).degree == 1
        assert ZERO.degree == -1
        assert Polynomial(()) == ZERO

    def test_coercion_from_strings_and_ints(self):
        p = Polynomial(("1/2", 3, Fraction(-1, 4)))
        assert p.coefficients == (Fraction(1, 2), Fraction(3), Fraction(-1, 4))

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        q = Polynomial((-1, 1))
        assert p * q == Polynomial((-1, 0, 1))
        assert p + q == Polynomial((0, 2))
        assert p - p == ZERO
        assert 2 * p == Polynomial((2, 2))
        assert p ** 3 == Polynomial((1, 3, 3, 1))

    def test_evaluation_exact_and_float(self):
        p = Polynomial((Fraction(-1, 2), 0, 1))
        assert p.eval_exact(Fraction(1, 2)) == Fraction(-1, 4)
        assert p.eval_float(0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_derivative_and_monic(self):
        p = Polynomial((5, 0, 3))
        assert p.derivative() == Polynomial((0, 6))
        assert p.monic() == Polynomial((Fraction(5, 3), 0, 1))
        with pytest.raises(DivisionByZeroPolynomial):
            ZERO.monic()

    def test_serialization_round_trip(self):
        p = Polynomial((Fraction(-2, 27), Fraction(-1, 36)))
        assert p.to_strings() == ["-2/27", "-1/36"]
        assert Polynomial.from_strings(p.to_strings()) == p
        assert parse_rational("3") == Fraction(3)
        assert format_rational(Fraction(3)) == "3/1"


def _seeded_pair(rng: random.Random) -> tuple[list, list]:
    """A dividend and a non-monic divisor whose leading coefficient shares
    factors with the dividend's coefficients; a third of the dividend's
    coefficients are zero, and about one divisor in six has degree 0."""
    lead = rng.choice((2, 3, 4, 6, 12, 30, -10))
    den = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 5))) for _ in range(rng.randint(0, 5))]
    den.append(Fraction(lead, rng.choice((1, 1, 7))))
    num = [Fraction(rng.choice((0, lead * rng.randint(-9, 9), rng.randint(-99, 99))), rng.choice((1, 3, 4)))
           for _ in range(rng.randint(0, 12))]
    num.append(Fraction(rng.choice((lead, 1, -2, 9)) * rng.randint(1, 9), rng.choice((1, 5))))
    return num, den


def _ref_euclid_remainders(a: tuple, b: tuple) -> list:
    """Every nonzero -rem of the plain Euclid on Fraction lists, as the
    reference for the remainder chains built on `poly_divmod`."""
    chain = [a, b]
    while chain[-1]:
        chain.append(tuple(-c for c in _ref_divmod(chain[-2], chain[-1])[1]))
    return chain[:-1]


class TestDivMod:
    def test_examples(self):
        num = Polynomial((0, -1, 0, 1))          # x^3 - x
        den = Polynomial((Fraction(-1, 2), 0, 1))  # x^2 - 1/2
        quotient, remainder = poly_divmod(num, den)
        assert quotient == X
        assert remainder == Polynomial((0, Fraction(-1, 2)))

        p = Polynomial((1, 7, 0, 2))
        assert poly_divmod(p, ONE) == (p, ZERO)

        quotient, remainder = poly_divmod(Polynomial((2, 3, 1)), Polynomial((1, 1)))
        assert (quotient, remainder) == (Polynomial((2, 1)), ZERO)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroPolynomial):
            poly_divmod(ONE, ZERO)

    def test_seeded_pairs_match_fraction_reference(self):
        rng = random.Random(9)
        degree_zero = zero_tops = 0
        for _ in range(500):
            num, den = _seeded_pair(rng)
            quotient, remainder = poly_divmod(Polynomial(num), Polynomial(den))
            assert (quotient.coefficients, remainder.coefficients) == _ref_divmod(num, den)
            _assert_canonical(quotient)
            _assert_canonical(remainder)
            degree_zero += len(den) == 1
            zero_tops += 0 in num[len(den) - 1:]
        assert degree_zero >= 50 and zero_tops >= 200

    @settings(max_examples=120, deadline=None)
    @given(small_poly, nonzero_poly)
    def test_contract_remultiplies(self, num, den):
        quotient, remainder = poly_divmod(num, den)
        assert quotient * den + remainder == num
        assert remainder.degree < den.degree

    @settings(max_examples=120, deadline=None)
    @given(small_poly, small_poly, small_poly)
    def test_ring_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c


class TestIntegerCore:
    @settings(max_examples=150, deadline=None)
    @given(wide_list, wide_list, wide_fraction)
    def test_operations_match_fraction_reference(self, a, b, s):
        p, q = Polynomial(a), Polynomial(b)
        ra, rb = _trim(a), _trim(b)
        assert p.coefficients == ra
        results = {
            "add": (p + q, _ref_add(ra, rb)),
            "sub": (p - q, _ref_add(ra, [-c for c in rb])),
            "neg": (-p, _trim(-c for c in ra)),
            "mul": (p * q, _ref_mul(ra, rb)),
            "scalar": (s * p, _trim(s * c for c in ra)),
            "scalar_right": (p * s, _trim(c * s for c in ra)),
            "derivative": (p.derivative(), _trim(i * c for i, c in enumerate(ra))[1:]),
        }
        if not q.is_zero:
            quotient, remainder = poly_divmod(p, q)
            ref_quotient, ref_remainder = _ref_divmod(ra, rb)
            results["quotient"] = (quotient, ref_quotient)
            results["remainder"] = (remainder, ref_remainder)
            results["monic"] = (q.monic(), _trim(c / rb[-1] for c in rb))
        for name, (got, expected) in results.items():
            assert got.coefficients == expected, name
            _assert_canonical(got)
        assert p.eval_exact(s) == _ref_eval(ra, s)
        _assert_canonical(p)

    @settings(max_examples=100, deadline=None)
    @given(wide_list, wide_list, wide_fraction.filter(bool))
    def test_equal_values_are_equal_and_hash_alike(self, a, b, s):
        p, q = Polynomial(a), Polynomial(b)
        for same in (
            (p * s) * (1 / s),
            (p + q) - q,
            -(-p),
            Polynomial.from_strings(p.to_strings()),
            Polynomial(list(a) + [0, 0]),
            Polynomial(format_rational(c) for c in a),
        ):
            assert same == p
            assert hash(same) == hash(p)
            assert same.coefficients == p.coefficients

    def test_equality_across_constructions(self):
        half = Fraction(1, 2)
        assert Polynomial([2, 4]) * half == Polynomial([1, 2])
        assert hash(Polynomial([2, 4]) * half) == hash(Polynomial([1, 2]))
        assert Polynomial([-3, 6]) * Fraction(-1, 3) == Polynomial([1, -2])
        assert Polynomial([half, 1]) * 2 == Polynomial([1, 2])
        assert Polynomial([1, 2]) - Polynomial([1, 2]) == ZERO
        assert hash(Polynomial([0, 0])) == hash(ZERO) == hash(())
        assert hash(Polynomial([half, 3])) == hash((half, Fraction(3)))
        assert (2 * X).content == 2 and (-2 * X).content == -2 and ZERO.content == 0
        assert Polynomial([Fraction(2, 3), Fraction(4, 9)]).content == Fraction(2, 9)

    def test_large_exact_identities(self):
        assert pell_abel_residual(128).is_zero
        t = chebyshev_t(128)
        assert t.leading_coefficient == 2**127
        assert t.eval_exact(Fraction(1, 2)) == Fraction(-1, 2)  # cos(128 pi / 3)

    def test_pickle_and_deepcopy_round_trips(self):
        p = Polynomial([1, 2, 3])
        q = Polynomial([Fraction(-1, 2**64), 0, Fraction(3, 7)])
        for poly in (p, q, ZERO, ONE, X):
            for copied in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly), copy.copy(poly)):
                assert copied == poly
                assert hash(copied) == hash(poly)
                assert copied.coefficients == poly.coefficients
                _assert_canonical(copied)
        with pytest.raises(AttributeError):
            p.degree = 5


class TestDivisionClients:
    """The remainder chains built on `poly_divmod`, checked step by step
    against the Fraction long division `_ref_divmod`."""

    def test_sturm_chain_matches_fraction_reference(self):
        rng = random.Random(17)
        for _ in range(60):
            p = Polynomial(_seeded_pair(rng)[0])
            if p.degree < 1:
                continue
            chain = sturm_chain(p)
            assert chain[0].coefficients == tuple(c / abs(p.content) for c in p.coefficients)
            for k in range(2, len(chain)):
                # chain[k] is -rem(chain[k-2], chain[k-1]) up to a positive factor
                ref = [-c for c in _ref_divmod(chain[k - 2].coefficients, chain[k - 1].coefficients)[1]]
                factor = chain[k].leading_coefficient / ref[-1]
                assert factor > 0 and chain[k].coefficients == tuple(factor * c for c in ref)
            assert not _ref_divmod(chain[-2].coefficients, chain[-1].coefficients)[1]

    def test_expand_pfraction_matches_fraction_reference(self):
        rng = random.Random(23)
        coprime = 0
        for _ in range(60):
            num, den = _seeded_pair(rng)
            p, q = Polynomial(num), Polynomial(den)
            if not 0 <= q.degree < p.degree:
                continue
            chain = _ref_euclid_remainders(p.coefficients, q.coefficients)
            quotients = [_ref_divmod(chain[k], chain[k + 1])[0] for k in range(len(chain) - 1)]
            if len(chain[-1]) > 1:  # a nonconstant gcd
                with pytest.raises(NotCoprime):
                    expand_pfraction(q, p)
                continue
            got = expand_pfraction(q, p).partial_quotients
            assert [g.coefficients for g in got] == quotients
            coprime += 1
        assert coprime >= 30


class TestRepr:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "Polynomial(0)"),
            ((-1, 0, 1), "Polynomial(x^2 - 1)"),
            ((Fraction(1, 2), -1), "Polynomial(-x + 1/2)"),
            ((0, 3), "Polynomial(3*x)"),
            ((0, 0, 0, -1), "Polynomial(-x^3)"),
            ((Fraction(-2, 3), 1, Fraction(7, 5)), "Polynomial(7/5*x^2 + x - 2/3)"),
        ],
    )
    def test_golden(self, coeffs, text):
        assert repr(Polynomial(coeffs)) == text


class TestGcd:
    def test_known_factors(self):
        a = Polynomial((-1, 0, 1))  # (x-1)(x+1)
        b = Polynomial((1, 1))
        assert poly_gcd(a, b) == Polynomial((1, 1))
        assert poly_gcd(a, Polynomial((1, 0, 1))).degree == 0
        assert poly_gcd(ZERO, ZERO) == ZERO
        assert poly_gcd(2 * a, ZERO) == a.monic()

    def test_matches_monic_euclid_loop(self):
        def monic_loop(a, b):
            """Reference: Euclid with every nonzero remainder made monic."""
            while not b.is_zero:
                a, b = b, a % b
                if not b.is_zero:
                    b = b.monic()
            return ZERO if a.is_zero else a.monic()

        rng = random.Random(61)

        def small(deg):
            return Polynomial(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg + 1))

        nontrivial = 0
        for _ in range(400):
            common = small(rng.randint(0, 3))
            a, b = common * small(rng.randint(-1, 5)), common * small(rng.randint(-1, 5))
            if rng.random() < 0.1:
                a = ZERO
            got = poly_gcd(a, b)
            assert got == monic_loop(a, b) == poly_gcd(b, a)
            assert got.is_zero or got.is_monic
            nontrivial += got.degree >= 1
        assert nontrivial >= 150
        for a, b in [(ZERO, ZERO), (ZERO, 3 * X), (Polynomial((Fraction(-2, 3),)), ZERO), (ONE, ONE)]:
            assert poly_gcd(a, b) == monic_loop(a, b) == poly_gcd(b, a)


class TestChebyshev:
    def test_first_kind_examples(self):
        assert chebyshev_t(0) == ONE
        assert chebyshev_t(2) == Polynomial((-1, 0, 2))
        assert chebyshev_t(5) == Polynomial((0, 5, 0, -20, 0, 16))

    def test_second_kind_examples(self):
        assert chebyshev_u(0) == ONE
        assert chebyshev_u(1) == Polynomial((0, 2))
        assert chebyshev_u(4) == Polynomial((1, 0, -12, 0, 16))

    def test_degrees_and_leading_coefficients(self):
        for n in range(1, 15):
            t = chebyshev_t(n)
            u = chebyshev_u(n)
            assert (t.degree, t.leading_coefficient) == (n, Fraction(2) ** (n - 1))
            assert (u.degree, u.leading_coefficient) == (n, Fraction(2) ** n)

    def test_second_kind_difference_is_twice_first_kind(self):
        for n in range(2, 65):
            assert chebyshev_u(n) - chebyshev_u(n - 2) == 2 * chebyshev_t(n)

    def test_kernel_over_fractions(self):
        # Fibonacci halved: u_{k+1} = u_k + u_{k-1} from (0, 1/2)
        half = Fraction(1, 2)
        assert three_term([(1, 1)] * 5, (0, half)) == [half * f for f in (1, 1, 2, 3, 5, 8)]

    def test_cosine_identity(self):
        # Horner on the rounded monomial coefficients was off by 1.2e-3 at
        # n = 40, 1.7e4 at n = 56 and 3.2e31 at n = 128; the exact value is rounded once
        for n in [*range(13), 40, 56, 128, 1024]:
            t = chebyshev_t(n)
            for x in [math.cos(j * math.pi / 7) for j in range(8)] + [0.5, 0.99]:
                assert abs(t.eval_float(x) - math.cos(n * math.acos(x))) <= 1e-12

    def test_float_value_past_the_largest_double_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="past the largest double"):
            chebyshev_t(1024).eval_float(3.0)


def _plain_three_term(steps, seed) -> list:
    """The generic loop u_{k+1} = f_k * u_k + g_k * u_{k-1}, as the
    reference for the fused Polynomial step of `three_term`."""
    prev, cur = seed
    values = [cur]
    for f, g in steps:
        prev, cur = cur, f * cur + g * prev
        values.append(cur)
    return values


def _ref_three_term(steps, seed) -> list:
    """The same recurrence on plain Fraction coefficient lists."""
    def scaled(g, a):
        return _ref_mul(g.coefficients, a) if isinstance(g, Polynomial) else _trim(g * c for c in a)

    prev, cur = (u.coefficients for u in seed)
    values = [cur]
    for f, g in steps:
        prev, cur = cur, _ref_add(_ref_mul(f.coefficients, cur), scaled(g, prev))
        values.append(cur)
    return values


step_f = st.lists(small_fraction, min_size=0, max_size=4).map(Polynomial)  # degree -1..3
step_g = st.one_of(
    st.integers(-5, 5),
    small_fraction,
    st.just(0),
    st.integers(-9, -1),
    small_fraction.filter(lambda v: v < 0),
    st.lists(small_fraction, min_size=0, max_size=3).map(Polynomial),
)
step_seed = st.one_of(st.sampled_from([(ZERO, ONE), (-ONE, ZERO)]), st.tuples(small_poly, small_poly))


class TestThreeTermStep:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(step_f, step_g), min_size=0, max_size=7), step_seed)
    def test_polynomial_values_match_the_generic_loop(self, steps, seed):
        got = three_term(steps, seed)
        assert got == _plain_three_term(steps, seed)
        for value, ref in zip(got, _ref_three_term(steps, seed), strict=True):
            assert value.coefficients == ref
            assert value == Polynomial(ref)
            _assert_canonical(value)

    def test_jfraction_steps_at_level_64(self):
        rng = random.Random(3)
        steps = [(Polynomial((Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1)),
                  -Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(64)]
        for seed in ((ZERO, ONE), (-ONE, ZERO)):
            got = three_term(steps, seed)
            assert got == _plain_three_term(steps, seed)
            assert [v.coefficients for v in got] == _ref_three_term(steps, seed)
            for value in got:
                _assert_canonical(value)

    def test_scalar_seeds_keep_the_plain_loop(self):
        rng = random.Random(11)
        int_steps = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(40)]
        frac_steps = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(-1, rng.randint(1, 9)))
                      for _ in range(40)]
        float_steps = [((0.37 - rng.random()) / 0.7, -rng.random()) for _ in range(40)]
        for steps, seed, kind in ((int_steps, (0, 1), int), (frac_steps, (Fraction(0), Fraction(1, 3)), Fraction),
                                  (float_steps, (0.0, 1.0), float)):
            got = three_term(steps, seed)
            assert got == _plain_three_term(steps, seed)
            assert all(type(v) is kind for v in got)
        assert three_term([(1, 1)] * 10, (0, 1)) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert three_term([(0.5, -0.25)] * 3, (0.0, 1.0)) == [1.0, 0.5, 0.0, -0.125]


class TestPellAbel:
    def test_residual_is_zero_polynomial(self):
        for n in range(1, 31):
            assert pell_abel_residual(n).is_zero

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pell_abel_residual(0)
