"""Kernel lowering oracle: every kernel array is bit-identical to the
``Polynomial.derivative`` construction.

:mod:`repro.symbolic.compile` reads the partial-derivative coefficient
rows straight off each polynomial's terms, and builds stacked kernels
by merging the rows' own cached tables.  The reference below is the
direct construction those shortcuts replace — every partial derived
with :meth:`Polynomial.derivative`, one sorted union term axis, each
exact coefficient converted with ``float()`` — and every array of
every kernel kind must equal it exactly: exponents, coefficient rows,
gradient tensors, signs and bounds.  A single differing bit would let
the merge or the one-pass lowering perturb an NLP verdict.

The inputs cover hypothesis polynomials with exponents of 2 and more,
pairs rescaled by ``_float_safe_pair``, the monitored-WSN corridor
constraints CEGIS produces on 3x3 to 7x7 grids, and the five corpus
families.  The second half pins the scalar codegen boundary at
``_CODEGEN_TERM_LIMIT``.
"""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import wsn
from repro.checking import CheckCache
from repro.checking.parametric import ParametricConstraint
from repro.core.api import check_model
from repro.corpus import FAMILIES
from repro.repair.cegis import CegisRepair
from repro.symbolic import Polynomial, RationalFunction
from repro.symbolic import compile as compile_module
from repro.symbolic.compile import (
    CompiledPolynomial,
    CompiledRationalFunction,
    StackedConstraintKernel,
    _float_safe_pair,
)

from conftest import polynomials

X = Polynomial.variable("x")
Y = Polynomial.variable("y")


# ----------------------------------------------------------------------
# The reference construction
# ----------------------------------------------------------------------
def reference_table(polys, params):
    """Sorted union term axis plus one ``float()`` row per polynomial."""
    monomials = set()
    for poly in polys:
        monomials.update(poly.terms)
    index = {mono: row for row, mono in enumerate(sorted(monomials))}
    exponents = np.zeros((len(index), len(params)), dtype=np.int64)
    column = {name: j for j, name in enumerate(params)}
    for mono, row in index.items():
        for var, exp in mono:
            exponents[row, column[var]] = exp
    rows = []
    for poly in polys:
        vector = np.zeros(len(index), dtype=np.float64)
        for mono, coeff in poly.terms.items():
            vector[index[mono]] = float(coeff)
        rows.append(vector)
    return exponents, rows


def default_params(*polys):
    names = set()
    for poly in polys:
        names |= poly.variables()
    return tuple(sorted(names))


def reference_polynomial(polynomial, params=None):
    params = default_params(polynomial) if params is None else tuple(params)
    derivatives = [polynomial.derivative(name) for name in params]
    exponents, rows = reference_table([polynomial] + derivatives, params)
    return {
        "exponents": exponents,
        "coefficients": rows[0],
        "gradient_coefficients": (
            np.stack(rows[1:]) if params else np.zeros((0, len(rows[0])))
        ),
    }


def reference_rational(function, params=None):
    if params is None:
        params = default_params(function.numerator, function.denominator)
    params = tuple(params)
    numerator, denominator = _float_safe_pair(
        function.numerator, function.denominator
    )
    count = len(params)
    exponents, rows = reference_table(
        [numerator, denominator]
        + [numerator.derivative(name) for name in params]
        + [denominator.derivative(name) for name in params],
        params,
    )
    terms = len(rows[0])
    return {
        "exponents": exponents,
        "numerator_coefficients": rows[0],
        "denominator_coefficients": rows[1],
        "numerator_gradient": (
            np.stack(rows[2 : 2 + count]) if count else np.zeros((0, terms))
        ),
        "denominator_gradient": (
            np.stack(rows[2 + count :]) if count else np.zeros((0, terms))
        ),
    }


def reference_stack(rows, params=None):
    functions = [function for function, _, _ in rows]
    if params is None:
        params = tuple(
            sorted(set().union(*(f.variables() for f in functions)))
        )
    params = tuple(params)
    pairs = [_float_safe_pair(f.numerator, f.denominator) for f in functions]
    polys = [poly for pair in pairs for poly in pair]
    for numerator, denominator in pairs:
        polys.extend(numerator.derivative(name) for name in params)
        polys.extend(denominator.derivative(name) for name in params)
    exponents, table = reference_table(polys, params)
    count, arity, terms = len(rows), len(params), len(exponents)
    partials = table[2 * count :]
    numerator_gradient = np.zeros((count, arity, terms))
    denominator_gradient = np.zeros((count, arity, terms))
    for i in range(count):
        block = partials[i * 2 * arity : (i + 1) * 2 * arity]
        for j in range(arity):
            numerator_gradient[i, j] = block[j]
            denominator_gradient[i, j] = block[arity + j]
    return {
        "exponents": exponents,
        "signs": np.array([float(s) for _, s, _ in rows]),
        "bounds": np.array([float(b) for _, _, b in rows]),
        "numerator_coefficients": np.stack(table[: 2 * count : 2]),
        "denominator_coefficients": np.stack(table[1 : 2 * count : 2]),
        "numerator_gradient": numerator_gradient,
        "denominator_gradient": denominator_gradient,
    }


def assert_identical(kernel, reference):
    for name, expected in reference.items():
        actual = getattr(kernel, name)
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        assert np.array_equal(actual, expected), name
        assert actual.tobytes() == expected.tobytes(), name


def rows_of(constraints):
    return [(c.function, c._sign, c.bound) for c in constraints]


def assert_constraints_identical(constraints):
    """Per-row kernels, one-row stacks and the k-row stack vs the oracle."""
    for constraint in constraints:
        assert_identical(
            constraint.compiled(), reference_rational(constraint.function)
        )
        assert_identical(
            constraint.stacked(), reference_stack(rows_of([constraint]))
        )
    rows = rows_of(constraints)
    assert_identical(StackedConstraintKernel(rows), reference_stack(rows))
    params = tuple(
        reversed(
            sorted(set().union(*(c.function.variables() for c in constraints)))
        )
    ) + ("unused",)
    assert_identical(
        StackedConstraintKernel(rows, params), reference_stack(rows, params)
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def rationals():
    return st.tuples(
        polynomials(max_terms=5, max_exponent=4),
        polynomials(max_terms=4, max_exponent=4),
        st.integers(1, 5),
    ).map(
        lambda parts: RationalFunction(parts[0], parts[1] + parts[2])
        if not (parts[1] + parts[2]).is_zero()
        else RationalFunction(parts[0])
    )


class TestHypothesisPolynomials:
    @settings(max_examples=80, deadline=None)
    @given(polynomials(max_terms=6, max_exponent=5))
    def test_polynomial_kernel(self, poly):
        assert_identical(CompiledPolynomial(poly), reference_polynomial(poly))
        params = ("z", "y", "x", "w")
        assert_identical(
            CompiledPolynomial(poly, params),
            reference_polynomial(poly, params),
        )

    @settings(max_examples=80, deadline=None)
    @given(rationals())
    def test_rational_kernel(self, function):
        assert_identical(
            CompiledRationalFunction(function), reference_rational(function)
        )
        params = ("z", "y", "x")
        assert_identical(
            CompiledRationalFunction(function, params),
            reference_rational(function, params),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                rationals(),
                st.sampled_from([">=", "<=", ">", "<"]),
                st.fractions(0, 1, max_denominator=7),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_stacks(self, specs):
        constraints = [
            ParametricConstraint(function, comparison, bound)
            for function, comparison, bound in specs
        ]
        assert_constraints_identical(constraints)

    def test_exponents_of_two_and_more_lower_exactly(self):
        poly = (X * X * X * Y * Y) * Fraction(7, 3) + X * X * Fraction(1, 9)
        function = RationalFunction(poly, Y * Y * Y + 2)
        assert_identical(CompiledPolynomial(poly), reference_polynomial(poly))
        assert_constraints_identical(
            [ParametricConstraint(function, "<=", 0.5)]
        )


class TestFloatSafePairs:
    @pytest.mark.parametrize("power", [950, -950, 1500])
    def test_rescaled_pairs(self, power):
        scale = Fraction(2) ** power
        function = RationalFunction(
            (X * X * 3 + Y).scaled(scale), (X * Y).scaled(scale) + 2
        )
        rescaled = _float_safe_pair(function.numerator, function.denominator)
        assert rescaled[0] is not function.numerator
        other = ParametricConstraint(RationalFunction(X * X, Y + 1), ">=", 0.1)
        assert_constraints_identical(
            [ParametricConstraint(function, "<=", 0.4), other]
        )


@pytest.fixture(scope="module")
def wsn_corridor_constraints():
    """Every corridor constraint CEGIS eliminates on 3x3 to 7x7."""
    harvested = {}
    for size in range(3, 8):
        chain = wsn.build_monitored_chain(size=size)
        nominal = check_model(chain, wsn.clean_delivery_property(1.0)).value
        problem = wsn.monitored_repair_problem(
            bound=round(0.2 * nominal, 6), size=size
        )
        cache = CheckCache()
        problem.cache = cache
        CegisRepair(problem).repair(seed=0)
        harvested[size] = [
            value
            for key, value in cache._store.items()
            if key[0] == "corridor"
        ]
    return harvested


class TestWsnCorridors:
    @pytest.mark.parametrize("size", range(3, 8))
    def test_corridor_kernels(self, wsn_corridor_constraints, size):
        constraints = wsn_corridor_constraints[size]
        assert constraints
        assert_constraints_identical(constraints)


class TestCorpusFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_kernels(self, family):
        fam = FAMILIES[family]
        constraints = (
            fam.repair(fam.sizes[0], cache=CheckCache())
            .problem()
            .parametric_constraints()
        )
        assert constraints
        assert_constraints_identical(constraints)


# ----------------------------------------------------------------------
# The codegen boundary
# ----------------------------------------------------------------------
LIMIT = compile_module._CODEGEN_TERM_LIMIT


def constraint_with_terms(terms):
    """A constraint whose kernels have exactly ``terms`` shared terms.

    ``Σ_{i<terms-1} c_i x^i / (1 + y)``: the numerator's partial reuses
    its own monomials and the denominator adds only ``y``.
    """
    numerator = sum(
        (
            Polynomial({(("x", i),) if i else (): Fraction(i + 1, terms)})
            for i in range(terms - 1)
        ),
        Polynomial.zero(),
    )
    constraint = ParametricConstraint(
        RationalFunction(numerator, Y + 1), "<=", 0.75
    )
    assert len(constraint.compiled().exponents) == terms
    assert len(constraint.stacked().exponents) == terms
    return constraint


POINTS = np.array([[0.3, 0.1], [0.85, 0.6], [0.5, 0.95]])


def assert_scalar_matches_batch(constraint):
    stack = constraint.stacked()
    margins, jacobians = stack.margins_and_jacobian_batch(POINTS)
    np.testing.assert_allclose(
        stack.margins_batch(POINTS), margins, rtol=1e-12, atol=1e-12
    )
    kernel = constraint.compiled()
    values = kernel.evaluate_batch(POINTS)
    for point, margin, jacobian, value in zip(
        POINTS, margins, jacobians, values
    ):
        np.testing.assert_allclose(
            stack.margins(point), margin, rtol=1e-12, atol=1e-12
        )
        scalar_margin, scalar_jacobian = stack.margins_and_jacobian(point)
        np.testing.assert_allclose(scalar_margin, margin, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            scalar_jacobian, jacobian, rtol=1e-12, atol=1e-12
        )
        assert kernel.evaluate(point) == pytest.approx(value, rel=1e-12)
        scalar_value, gradient = kernel.value_and_gradient(point)
        assert scalar_value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(
            gradient, constraint._sign * jacobian[0], rtol=1e-12, atol=1e-12
        )


class TestCodegenBoundary:
    def test_at_the_limit_codegen_runs_and_matches_batch(self):
        constraint = constraint_with_terms(LIMIT)
        assert constraint.stacked()._scalar() is not None
        assert constraint.compiled()._scalar() is not None
        assert_scalar_matches_batch(constraint)

    def test_above_the_limit_numpy_runs_and_matches_batch(self):
        constraint = constraint_with_terms(LIMIT + 1)
        assert constraint.stacked()._scalar() is None
        assert constraint.compiled()._scalar() is None
        assert_scalar_matches_batch(constraint)

    def test_restored_above_limit_kernel_never_generates_source(
        self, monkeypatch
    ):
        constraint = constraint_with_terms(LIMIT + 1)
        constraint.stacked()
        clone = pickle.loads(pickle.dumps(constraint))

        def refuse(*args, **kwargs):
            raise AssertionError("generated source above the limit")

        monkeypatch.setattr(compile_module, "_scalar_function", refuse)
        assert_scalar_matches_batch(clone)
        clone.fast_margin({"x": 0.4, "y": 0.2})
        clone.margin_gradient({"x": 0.4, "y": 0.2})


class TestOneLoweringPerClosedForm:
    def constraints(self):
        return [
            ParametricConstraint(RationalFunction(X * Y + 1, X + 3), ">=", 0.2),
            ParametricConstraint(RationalFunction(X * X, Y * Y + 2), "<", 0.6),
        ]

    def test_one_row_stack_shares_the_compiled_table(self):
        constraint = self.constraints()[0]
        kernel, stack = constraint.compiled(), constraint.stacked()
        assert stack.exponents is kernel.exponents
        assert np.shares_memory(
            stack.numerator_gradient, kernel.numerator_gradient
        )

    def test_stacks_over_lowered_rows_lower_nothing(self):
        constraints = self.constraints()
        for constraint in constraints:
            constraint.compiled()
        before = compile_module.kernel_stats()["compilations"]
        for constraint in constraints:
            constraint.stacked()
        CheckCache().stacked_kernel(constraints)
        assert compile_module.kernel_stats()["compilations"] == before
