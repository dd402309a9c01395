"""Unit and property tests for multivariate polynomials."""

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    Polynomial,
    RationalFunction,
    bareiss_determinant,
    cramer_determinants,
    poly_gcd,
)
from repro.symbolic.polynomial import (
    _exponent_vector,
    _heuristic_gcd,
    _int_exact_div,
    _int_mul,
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


# ----------------------------------------------------------------------
# Division: heap-ordered leading terms against a rescanning reference
# ----------------------------------------------------------------------
def _rescan_divmod(dividend, divisor):
    """Reference division: the leading term of the whole remainder is
    found by ``max`` over every monomial on every step."""
    varlist = sorted(dividend.variables() | divisor.variables())

    def order(mono):
        return _exponent_vector(mono, varlist)

    divisor_terms = divisor.terms
    lead_mono = max(divisor_terms, key=order)
    lead = Polynomial({lead_mono: divisor_terms[lead_mono]})
    quotient = remainder = Polynomial.zero()
    current = dividend
    while not current.is_zero():
        terms = current.terms
        mono = max(terms, key=order)
        term = Polynomial({mono: terms[mono]})
        if all(dict(mono).get(var, 0) >= exp for var, exp in lead_mono):
            factor, rest = term.divmod(lead)
            assert rest.is_zero()
            quotient = quotient + factor
            current = current - factor * divisor
        else:
            remainder = remainder + term
            current = current - term
    return quotient, remainder


def _integer_terms(poly):
    """``poly`` times the LCM of its denominators, as an integer term dict."""
    lcm = 1
    for coeff in poly.terms.values():
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    return {mono: int(coeff * lcm) for mono, coeff in poly.terms.items()}


def _fraction_poly(terms):
    return Polynomial({mono: Fraction(coeff) for mono, coeff in terms.items()})


class TestHeapDivision:
    @given(polynomials(max_terms=5), polynomials())
    @settings(max_examples=80, deadline=None)
    def test_divmod_matches_rescan(self, a, b):
        if b.is_zero():
            return
        for dividend in (a, a * b, a * b + a):
            quotient, remainder = dividend.divmod(b)
            assert (quotient, remainder) == _rescan_divmod(dividend, b)
            assert quotient * b + remainder == dividend

    @given(polynomials(max_terms=5), polynomials())
    @settings(max_examples=80, deadline=None)
    def test_integer_exact_div_matches_rescan(self, a, b):
        if b.is_zero():
            return
        divisor = _integer_terms(b)
        for dividend in (_integer_terms(a), _int_mul(_integer_terms(a), divisor)):
            quotient, remainder = _rescan_divmod(
                _fraction_poly(dividend), _fraction_poly(divisor)
            )
            integral = all(c.denominator == 1 for c in quotient.terms.values())
            if remainder.is_zero() and integral:
                expected = {mono: int(c) for mono, c in quotient.terms.items()}
                assert _int_exact_div(dividend, divisor) == expected
            else:
                with pytest.raises(ArithmeticError):
                    _int_exact_div(dividend, divisor)

    def test_inexact_integer_division_raises(self):
        x = (("x", 1),)
        with pytest.raises(ArithmeticError):  # monomial does not divide
            _int_exact_div({x: 1, (): 1}, {(("y", 1),): 1})
        with pytest.raises(ArithmeticError):  # coefficient does not divide
            _int_exact_div({x: 3}, {x: 2})
        with pytest.raises(ZeroDivisionError):
            _int_exact_div({x: 3}, {})

    def test_cancelled_monomial_that_reappears_is_divided(self):
        # x·y cancels in the first step and re-enters in the second.
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        divisor = x * x + x * y + y * y
        dividend = divisor * (x + y) + y
        quotient, remainder = dividend.divmod(divisor)
        assert (quotient, remainder) == (x + y, y)


# ----------------------------------------------------------------------
# Cramer: both determinants from one augmented Bareiss pass
# ----------------------------------------------------------------------
def _entries():
    return st.one_of(
        st.just(Polynomial.zero()),
        small_fractions().map(Polynomial.constant),
        polynomials(max_terms=2, max_exponent=1).filter(
            lambda poly: not poly.is_zero()
        ),
    )


@st.composite
def cramer_systems(draw):
    """``(A, b)`` with n = 1..6, many zero entries (so pivots are missing
    and rows swap), and sometimes a repeated row or a zero column (so A
    is singular)."""
    n = draw(st.integers(1, 6))
    rows = [[draw(_entries()) for _ in range(n)] for _ in range(n)]
    rhs = [draw(_entries()) for _ in range(n)]
    singular = draw(st.sampled_from(["no", "no", "row", "column"]))
    if singular == "row" and n > 1:
        source, target = draw(st.permutations(range(n)))[:2]
        factor = draw(small_fractions())
        rows[target] = [entry.scaled(factor) for entry in rows[source]]
    elif singular == "column":
        column = draw(st.integers(0, n - 1))
        for row in rows:
            row[column] = Polynomial.zero()
    return rows, rhs


def _replaced(rows, rhs, column):
    return [
        [value if j == column else entry for j, entry in enumerate(row)]
        for row, value in zip(rows, rhs)
    ]


class TestCramerDeterminants:
    @given(cramer_systems())
    @settings(max_examples=80, deadline=None)
    def test_one_pass_equals_two_determinants(self, system):
        rows, rhs = system
        denominator = bareiss_determinant(rows)
        for column in range(len(rows)):
            expected = (
                bareiss_determinant(_replaced(rows, rhs, column)),
                denominator,
            )
            assert cramer_determinants(rows, rhs, column) == expected

    @pytest.mark.parametrize("column", range(4))
    def test_every_column_with_forced_row_swaps(self, column):
        # Zero diagonal: every elimination step has to swap rows.
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        zero, one = Polynomial.zero(), Polynomial.one()
        rows = [
            [zero, x, one, zero],
            [y, zero, zero, one],
            [one, zero, zero, x + y],
            [zero, one, x * y, zero],
        ]
        rhs = [x, one, y, x - y]
        expected = (
            bareiss_determinant(_replaced(rows, rhs, column)),
            bareiss_determinant(rows),
        )
        assert cramer_determinants(rows, rhs, column) == expected
        assert not expected[1].is_zero()

    def test_singular_matrix(self):
        # Columns 0 and 1 are equal: det A = 0, and A_c<-b is regular
        # only when b replaces one of the pair.
        x = Polynomial.variable("x")
        rows = [[x, x, Polynomial.one()], [x, x, x], [Polynomial.one()] * 3]
        rhs = [x, Polynomial.one(), x * x]
        for column in range(3):
            numerator, denominator = cramer_determinants(rows, rhs, column)
            assert denominator.is_zero()
            assert numerator == bareiss_determinant(_replaced(rows, rhs, column))
            assert numerator.is_zero() == (column == 2)

    def test_one_by_one(self):
        x = Polynomial.variable("x")
        assert cramer_determinants([[x + 1]], [x], 0) == (x, x + 1)

    def test_rejects_bad_shapes(self):
        x = Polynomial.variable("x")
        with pytest.raises(ValueError):
            cramer_determinants([[x, x]], [x], 0)
        with pytest.raises(ValueError):
            cramer_determinants([[x]], [x, x], 0)
        with pytest.raises(IndexError):
            cramer_determinants([[x]], [x], 1)


# ----------------------------------------------------------------------
# Hashing and pickling
# ----------------------------------------------------------------------
class TestHash:
    @given(polynomials(max_terms=6), polynomials())
    @settings(max_examples=80, deadline=None)
    def test_equal_polynomials_hash_equal(self, a, b):
        reversed_terms = Polynomial(dict(reversed(list(a.terms.items()))))
        assert reversed_terms == a and hash(reversed_terms) == hash(a)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)

    def test_integer_and_fraction_coefficients_hash_equal(self):
        mono = (("x", 2),)
        as_int = Polynomial({mono: 3, (): -1})
        as_fraction = Polynomial({(): Fraction(-2, 2), mono: Fraction(6, 2)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)


_PICKLE_SCRIPT = r"""
import copyreg, pickle, sys
from repro.symbolic import Polynomial, RationalFunction

x = Polynomial.variable("x")
p = x * x + 3
f = RationalFunction(p, x + 1)
if sys.argv[1] == "load":
    q, g = pickle.loads(sys.stdin.buffer.read())
    checks = [p == q, len({p, q}) == 1, q in {p: 1}, f == g, g in {f: 1},
              g._compiled is not None]
    print(" ".join(str(check) for check in checks))
    sys.exit(0)

class SlotsState(pickle.Pickler):
    # The layout of a pickle written before the caches were dropped from
    # the state: every slot, the cached hash included.
    def reducer_override(self, obj):
        if type(obj) in (Polynomial, RationalFunction):
            slots = {name: getattr(obj, name) for name in type(obj).__slots__}
            return copyreg.__newobj__, (type(obj),), (None, slots)
        return NotImplemented

hash(p), hash(f), f.compiled()
pickler = pickle.Pickler if sys.argv[1] == "dump" else SlotsState
pickler(sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL).dump((p, f))
"""


def _run(mode, seed, data=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", _PICKLE_SCRIPT, mode],
        input=data, env=env, capture_output=True, check=True, timeout=120,
    )
    return done.stdout


class TestPickleAcrossHashSeeds:
    @pytest.mark.parametrize("mode", ["dump", "dump-slots"])
    def test_loaded_polynomials_hash_like_fresh_ones(self, mode):
        # "dump-slots" writes the older layout whose state carries _hash.
        written = _run(mode, seed=1)
        assert _run("load", seed=2, data=written).split() == [b"True"] * 6

    def test_state_leaves_out_the_caches(self):
        p = Polynomial.variable("x") + 1
        f = RationalFunction(p, p * p + 2)
        hash(p), hash(f), p.variables(), f.compiled()
        q, g = pickle.loads(pickle.dumps((p, f)))
        assert (q._hash, q._vars, q._float_terms, g._hash) == (None,) * 4
        assert g._compiled is not None
        assert q == p and g == f
