"""Rational functions: quotients of multivariate polynomials.

These are the values manipulated by the parametric model checker.  Every
transition probability of a parametric Markov chain is a
:class:`RationalFunction`; state elimination combines them with ``+ - * /``
and the final reachability probability (or expected reward) is again a
rational function of the repair parameters.

Normalisation policy
--------------------
After every arithmetic operation the quotient is normalised so that

* the denominator is never the zero polynomial,
* numerator and denominator share no rational-constant content,
* the denominator's leading coefficient is positive, and
* (best effort) the polynomial GCD of numerator and denominator is
  cancelled — with a size cap, so pathological inputs degrade to an
  unreduced but still correct representation instead of hanging.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from repro.symbolic.polynomial import Polynomial, Scalar, poly_gcd

_REDUCE_SIZE_LIMIT = 200

# Bounded memo of normalised (numerator, denominator) pairs.  State
# elimination rebuilds the same quotients constantly (every redirection
# divides by the same ``1 − p(s, s)``), so the content/GCD work repeats;
# the table is flushed wholesale at the cap — a miss only re-computes.
_NORMALISE_CACHE = {}
_NORMALISE_LIMIT = 1 << 14


class RationalFunction:
    """An exact quotient ``numerator / denominator`` of polynomials.

    Examples
    --------
    >>> x = RationalFunction.variable("x")
    >>> f = (x * x - 1) / (x - 1)
    >>> f.evaluate({"x": 3})
    Fraction(4, 1)
    """

    __slots__ = ("numerator", "denominator", "_hash", "_compiled")

    def __init__(
        self,
        numerator: Union[Polynomial, Scalar],
        denominator: Union[Polynomial, Scalar, None] = None,
    ):
        if not isinstance(numerator, Polynomial):
            numerator = Polynomial.constant(numerator)
        if denominator is None:
            denominator = Polynomial.one()
        elif not isinstance(denominator, Polynomial):
            denominator = Polynomial.constant(denominator)
        if denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        numerator, denominator = _normalise(numerator, denominator)
        self.numerator = numerator
        self.denominator = denominator
        self._hash = None
        self._compiled = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: Scalar) -> "RationalFunction":
        """The constant rational function ``value``."""
        return RationalFunction(Polynomial.constant(value))

    @staticmethod
    def variable(name: str) -> "RationalFunction":
        """The rational function consisting of the variable ``name``."""
        return RationalFunction(Polynomial.variable(name))

    @staticmethod
    def zero() -> "RationalFunction":
        """The zero function."""
        return RationalFunction(Polynomial.zero())

    @staticmethod
    def one() -> "RationalFunction":
        """The unit function."""
        return RationalFunction(Polynomial.one())

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        """True if this is identically zero."""
        return self.numerator.is_zero()

    def is_constant(self) -> bool:
        """True if both numerator and denominator are constants."""
        return self.numerator.is_constant() and self.denominator.is_constant()

    def constant_value(self) -> Fraction:
        """The value of a constant function (raises otherwise)."""
        return self.numerator.constant_value() / self.denominator.constant_value()

    def variables(self) -> frozenset:
        """All parameter names occurring in numerator or denominator."""
        return self.numerator.variables() | self.denominator.variables()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.denominator == other.denominator:
            return RationalFunction(
                self.numerator + other.numerator, self.denominator
            )
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return _coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce(other) / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            return RationalFunction(
                self.denominator ** (-exponent), self.numerator ** (-exponent)
            )
        return RationalFunction(self.numerator**exponent, self.denominator**exponent)

    def __eq__(self, other) -> bool:
        if isinstance(other, float):
            # Exactly, like ``Polynomial.__eq__``: equal objects hash equal.
            if not math.isfinite(other):
                return False
            other = Fraction(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Cross-multiplication avoids relying on canonical reduction.
        return (
            self.numerator * other.denominator == other.numerator * self.denominator
        )

    def __hash__(self) -> int:
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.constant_value())
            else:
                self._hash = hash((self.numerator, self.denominator))
        return self._hash

    def __getstate__(self):
        # No hash in a pickle: a polynomial's hash depends on
        # PYTHONHASHSEED.  The kernel stays, so a stored elimination
        # carries it.
        return {
            "numerator": self.numerator,
            "denominator": self.denominator,
            "_compiled": self._compiled,
        }

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # (None, slots), with the old hash
            state = state[1]
        self.numerator = state["numerator"]
        self.denominator = state["denominator"]
        self._hash = None
        self._compiled = state.get("_compiled")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, Scalar]):
        """Evaluate at a full parameter assignment.

        Raises ``ZeroDivisionError`` if the denominator vanishes there.
        """
        denom = self.denominator.evaluate(assignment)
        if denom == 0:
            raise ZeroDivisionError(
                f"denominator {self.denominator} vanishes at {dict(assignment)}"
            )
        return self.numerator.evaluate(assignment) / denom

    def substitute(self, assignment: Mapping[str, Scalar]) -> "RationalFunction":
        """Partially substitute parameters, staying symbolic in the rest."""
        return RationalFunction(
            self.numerator.substitute(assignment),
            self.denominator.substitute(assignment),
        )

    def derivative(self, var: str) -> "RationalFunction":
        """Partial derivative (quotient rule)."""
        return RationalFunction(
            self.numerator.derivative(var) * self.denominator
            - self.numerator * self.denominator.derivative(var),
            self.denominator * self.denominator,
        )

    def compiled(self, params=None):
        """The numpy kernel of this function (lazily built, cached).

        Returns a
        :class:`~repro.symbolic.compile.CompiledRationalFunction` whose
        term table is shared between numerator, denominator and every
        partial derivative.  The default-parameter kernel (``params``
        omitted: sorted variable names) is built once and reused;
        explicit orderings compile a fresh kernel each call.
        """
        from repro.symbolic.compile import compile_rational

        if params is not None:
            return compile_rational(self, params)
        cached = self._compiled
        if cached is None:
            cached = compile_rational(self)
            self._compiled = cached
        return cached

    def to_callable(self):
        """Return ``f(assignment_dict) -> float`` for use in optimisers.

        All-numeric assignments are routed through the compiled kernel
        (one shared power-product for numerator and denominator, instead
        of two independent symbolic walks); exact ``Fraction`` inputs
        fall back to the symbolic path so the float conversion happens
        only at the very end, as before.
        """
        numerator, denominator = self.numerator, self.denominator
        kernel = self.compiled()

        def call(assignment: Mapping[str, float]) -> float:
            try:
                return kernel.evaluate_assignment(assignment)
            except (TypeError, ValueError):
                return float(numerator.evaluate(assignment)) / float(
                    denominator.evaluate(assignment)
                )

        return call

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"RationalFunction({self})"

    def __str__(self) -> str:
        if self.denominator == Polynomial.one():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"


def _coerce(value) -> "RationalFunction":
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    if isinstance(value, (int, float, Fraction)):
        return RationalFunction.constant(value)
    return NotImplemented


def _normalise(numerator: Polynomial, denominator: Polynomial):
    """Apply the normalisation policy documented in the module docstring."""
    if numerator.is_zero():
        return Polynomial.zero(), Polynomial.one()
    if numerator == denominator:
        return Polynomial.one(), Polynomial.one()
    key = (numerator, denominator)
    cached = _NORMALISE_CACHE.get(key)
    if cached is not None:
        return cached
    original_key = key
    # Cancel rational-constant content.
    num_content = numerator.content()
    den_content = denominator.content()
    if num_content != 0:
        numerator = numerator.scaled(1 / num_content)
    denominator = denominator.scaled(1 / den_content)
    scale = num_content / den_content
    # Attempt polynomial cancellation when the operands are small enough.
    if (
        not denominator.is_constant()
        and len(numerator) <= _REDUCE_SIZE_LIMIT
        and len(denominator) <= _REDUCE_SIZE_LIMIT
    ):
        gcd = poly_gcd(numerator, denominator)
        if not gcd.is_constant():
            numerator = numerator.exact_div(gcd)
            denominator = denominator.exact_div(gcd)
    numerator = numerator.scaled(scale)
    # Positive leading coefficient on the denominator gives a canonical sign.
    _, lead = denominator.leading_term()
    if lead < 0:
        numerator, denominator = -numerator, -denominator
    if len(_NORMALISE_CACHE) >= _NORMALISE_LIMIT:
        _NORMALISE_CACHE.clear()
    _NORMALISE_CACHE[original_key] = (numerator, denominator)
    return numerator, denominator
