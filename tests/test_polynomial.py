import math
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
