"""Unit and property tests for multivariate polynomials."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from repro.symbolic import Polynomial, bareiss_determinant, poly_gcd
from repro.symbolic.polynomial import (
    _exponent_vector,
    _heuristic_gcd,
    _make_primitive_positive,
)

from conftest import polynomials, small_fractions


X = Polynomial.variable("x")
Y = Polynomial.variable("y")


class TestConstruction:
    def test_constant_zero_is_zero(self):
        assert Polynomial.constant(0).is_zero()

    def test_constant_value(self):
        assert Polynomial.constant(Fraction(3, 4)).constant_value() == Fraction(3, 4)

    def test_variable_requires_name(self):
        with pytest.raises(ValueError):
            Polynomial.variable("")

    def test_float_coefficients_become_exact(self):
        poly = Polynomial.constant(0.5)
        assert poly.constant_value() == Fraction(1, 2)

    def test_non_constant_rejects_constant_value(self):
        with pytest.raises(ValueError):
            X.constant_value()

    def test_zero_terms_are_dropped(self):
        poly = Polynomial({(): Fraction(0), (("x", 1),): Fraction(1)})
        assert len(poly) == 1


class TestArithmetic:
    def test_addition(self):
        assert (X + 1) + (X + 2) == X.scaled(2) + 3

    def test_subtraction_cancels(self):
        assert (X + Y) - (X + Y) == Polynomial.zero()

    def test_multiplication_expands(self):
        assert (X + 1) * (X - 1) == X * X - 1

    def test_power(self):
        assert (X + 1) ** 2 == X * X + X.scaled(2) + 1

    def test_power_zero_is_one(self):
        assert (X + Y) ** 0 == Polynomial.one()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X ** (-1)

    def test_scalar_coercion(self):
        assert 2 * X == X + X
        assert X - 1 == -(1 - X)

    def test_hash_equal_for_equal_polynomials(self):
        assert hash((X + 1) * (X + 1)) == hash(X * X + 2 * X + 1)


class TestEvaluation:
    def test_exact_evaluation(self):
        poly = X * X + Y.scaled(2)
        assert poly.evaluate({"x": 3, "y": Fraction(1, 2)}) == Fraction(10)

    def test_float_evaluation(self):
        poly = X + Y
        assert poly.evaluate({"x": 0.25, "y": 0.5}) == pytest.approx(0.75)

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            (X + Y).evaluate({"x": 1})

    def test_partial_substitution(self):
        poly = X * Y + X
        assert poly.substitute({"y": 2}) == X.scaled(3)

    def test_substitute_polynomial(self):
        poly = X * X
        assert poly.substitute({"x": Y + 1}) == Y * Y + 2 * Y + 1

    def test_derivative(self):
        poly = X * X * Y + X.scaled(3)
        assert poly.derivative("x") == 2 * X * Y + 3
        assert poly.derivative("y") == X * X
        assert poly.derivative("z").is_zero()


class TestDegreesAndVariables:
    def test_degree(self):
        poly = X * X * Y + Y
        assert poly.degree("x") == 2
        assert poly.degree("y") == 1
        assert poly.total_degree() == 3

    def test_variables(self):
        assert (X * Y + 1).variables() == frozenset({"x", "y"})

    def test_zero_degrees(self):
        assert Polynomial.zero().total_degree() == 0


class TestDivision:
    def test_exact_division(self):
        product = (X + Y) * (X - Y)
        assert product.exact_div(X + Y) == X - Y

    def test_divmod_remainder(self):
        quotient, remainder = (X * X + 1).divmod(X)
        assert quotient == X
        assert remainder == Polynomial.one()

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            (X + 1).exact_div(Y)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            X.divmod(Polynomial.zero())

    def test_mixed_support_division(self):
        # Regression: requires a true monomial order (q vs p·q).
        p = Polynomial.variable("p")
        q = Polynomial.variable("q")
        product = (p * q + q + 1) * (p + q)
        assert product.exact_div(p + q) == p * q + q + 1


class TestExponentVector:
    def test_orders_divisible_monomials(self):
        varlist = ["p", "q"]
        pq = (("p", 1), ("q", 1))
        q = (("q", 1),)
        assert _exponent_vector(pq, varlist) > _exponent_vector(q, varlist)


class TestGcd:
    def test_common_factor(self):
        a = (X + 1) * (X + 2)
        b = (X + 1) * (X + 3)
        assert poly_gcd(a, b) == X + 1

    def test_coprime(self):
        assert poly_gcd(X + 1, X + 2).is_constant()

    def test_with_zero(self):
        assert poly_gcd(Polynomial.zero(), X + 1) == X + 1

    def test_multivariate(self):
        common = X * Y + 1
        assert poly_gcd(common * (X + 1), common * (Y + 2)) == common

    def test_content_only(self):
        a = Polynomial.constant(4) * X
        b = Polynomial.constant(6) * Y
        gcd = poly_gcd(a, b)
        assert gcd.is_constant()

    def test_heuristic_finds_multivariate_factor(self):
        # Rational coefficients, five variables, a two-factor common
        # divisor: the evaluation GCD must recover it exactly.
        p, q, r, s, t = (Polynomial.variable(name) for name in "pqrst")
        common = (p * q - Fraction(3, 7) * r + 2) * (s * s - t + Fraction(1, 10))
        a = common * (p + q * t - 5)
        b = common * (r * s + Fraction(2, 3))
        assert _heuristic_gcd(a, b) is not None
        assert poly_gcd(a, b) == _make_primitive_positive(common)

    def test_heuristic_on_coprime_inputs(self):
        found = _heuristic_gcd(X * Y + 1, X - Y)
        assert found is not None and found.is_constant()


class TestBareissDeterminant:
    def test_identity(self):
        identity = [[Polynomial.constant(int(i == j)) for j in range(4)] for i in range(4)]
        assert bareiss_determinant(identity) == Polynomial.one()

    def test_2x2_symbolic(self):
        det = bareiss_determinant([[X, Y], [Y, X]])
        assert det == X * X - Y * Y

    def test_singular(self):
        det = bareiss_determinant([[X, X], [X, X]])
        assert det.is_zero()

    def test_row_swap_sign(self):
        det = bareiss_determinant(
            [[Polynomial.zero(), Polynomial.one()], [Polynomial.one(), Polynomial.zero()]]
        )
        assert det == Polynomial.constant(-1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[X, Y]])

    def test_against_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.integers(-5, 6, size=(5, 5))
        rows = [[Polynomial.constant(int(v)) for v in row] for row in values]
        det = bareiss_determinant(rows)
        assert float(det.constant_value()) == pytest.approx(
            np.linalg.det(values.astype(float)), rel=1e-9
        )

    def test_symbolic_matches_pointwise(self):
        rows = [
            [X + 1, Y, Polynomial.constant(2)],
            [Polynomial.constant(1), X * Y, Y + 3],
            [X, Polynomial.constant(0), X + Y],
        ]
        det = bareiss_determinant(rows)
        point = {"x": 0.7, "y": -1.3}
        numeric = np.array(
            [[float(entry.evaluate(point)) for entry in row] for row in rows]
        )
        assert float(det.evaluate(point)) == pytest.approx(
            np.linalg.det(numeric), rel=1e-9
        )


class TestPropertyBased:
    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    @given(polynomials(), polynomials(), small_fractions(), small_fractions())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, a, b, x, y):
        point = {"x": x, "y": y, "z": Fraction(1, 3)}
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)

    @given(polynomials(), polynomials())
    @settings(max_examples=50, deadline=None)
    def test_product_divides_exactly(self, a, b):
        if b.is_zero():
            return
        product = a * b
        assert product.exact_div(b) == a

    @given(polynomials())
    @settings(max_examples=60, deadline=None)
    def test_derivative_of_square(self, a):
        # (a²)' = 2·a·a'
        square = a * a
        assert square.derivative("x") == 2 * a * a.derivative("x")

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=30, deadline=None)
    def test_gcd_keeps_a_common_factor(self, a, b, common):
        if a.is_zero() or b.is_zero() or common.is_zero():
            return
        gcd = poly_gcd(a * common, b * common)
        _, remainder = gcd.divmod(_make_primitive_positive(common))
        assert remainder.is_zero()

    @given(polynomials(), polynomials())
    @settings(max_examples=30, deadline=None)
    def test_gcd_divides_both(self, a, b):
        gcd = poly_gcd(a, b)
        if gcd.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        a.divmod(gcd)  # must not raise
        quotient_a, remainder_a = a.divmod(gcd)
        quotient_b, remainder_b = b.divmod(gcd)
        assert remainder_a.is_zero()
        assert remainder_b.is_zero()
