import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinfrac.errors import DivisionByZeroPolynomial
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


class TestGcd:
    def test_known_factors(self):
        a = Polynomial((-1, 0, 1))  # (x-1)(x+1)
        b = Polynomial((1, 1))
        assert poly_gcd(a, b) == Polynomial((1, 1))
        assert poly_gcd(a, Polynomial((1, 0, 1))).degree == 0
        assert poly_gcd(ZERO, ZERO) == ZERO
        assert poly_gcd(2 * a, ZERO) == a.monic()


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
        for n in range(13):
            t = chebyshev_t(n)
            for j in range(8):
                theta = j * math.pi / 7
                assert abs(t.eval_float(math.cos(theta)) - math.cos(n * theta)) <= 1e-12


class TestPellAbel:
    def test_residual_is_zero_polynomial(self):
        for n in range(1, 31):
            assert pell_abel_residual(n).is_zero

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pell_abel_residual(0)
