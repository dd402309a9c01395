"""Exact symbolic arithmetic for parametric model checking.

This subpackage provides multivariate polynomials and rational functions
with exact :class:`fractions.Fraction` coefficients.  They are the value
domain of the parametric model checker (:mod:`repro.checking.parametric`):
state elimination on a parametric Markov chain produces a rational
function of the repair parameters, which the repair algorithms in
:mod:`repro.core` hand to the nonlinear optimizer.

Public API
----------
``Polynomial``
    Immutable multivariate polynomial over the rationals.
``RationalFunction``
    Quotient of two polynomials, normalised and (best-effort) reduced.
``poly_gcd``
    Multivariate polynomial greatest common divisor (primitive PRS).
``bareiss_determinant`` / ``cramer_determinants``
    Fraction-free determinants; the second gives both of Cramer's
    determinants from one elimination.
``compile_polynomial`` / ``compile_rational``
    Symbolic→numeric lowering to flat numpy kernels with analytic
    gradients and batch evaluation (:mod:`repro.symbolic.compile`) —
    the fast path of the repair NLP.
"""

from repro.symbolic.polynomial import (
    Polynomial,
    bareiss_determinant,
    cramer_determinants,
    poly_gcd,
)
from repro.symbolic.rational import RationalFunction
from repro.symbolic.compile import (
    CompiledPolynomial,
    CompiledRationalFunction,
    StackedConstraintKernel,
    compile_polynomial,
    compile_rational,
    compile_stack,
    kernel_stats,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "poly_gcd",
    "bareiss_determinant",
    "cramer_determinants",
    "CompiledPolynomial",
    "CompiledRationalFunction",
    "StackedConstraintKernel",
    "compile_polynomial",
    "compile_rational",
    "compile_stack",
    "kernel_stats",
]
