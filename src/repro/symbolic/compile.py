"""Symbolic→numeric compilation of polynomials and rational functions.

The repair NLP evaluates the eliminated parametric constraint thousands
of times per solve.  Walking the exact ``Fraction``-keyed monomial
dictionaries of :class:`~repro.symbolic.polynomial.Polynomial` on every
call is the dominant cost, and finite-differencing the gradient
multiplies it by ``n + 1``.  This module lowers a symbolic expression
*once* into flat numpy arrays — an exponent matrix ``E[t, v]`` and a
coefficient vector ``c[t]`` — after which

* ``evaluate(x)`` is one power-product plus one dot product,
* ``evaluate_batch(X)`` scores an ``(m, n)`` matrix of points in a
  single vectorized pass (the multi-start seeder uses this), and
* ``gradient(x)`` comes from precomputed derivative coefficient rows
  over the *same* term table — numerator, denominator and every partial
  derivative share one power-product (common-subexpression sharing), so
  an analytic value-plus-gradient costs barely more than a value.

Each closed form is lowered once.  :func:`_lower` reads every partial
derivative row straight off the polynomial's terms (no intermediate
symbolic derivative), and a :class:`StackedConstraintKernel` merges its
rows' own cached tables instead of lowering again, so a constraint that
joins several stacks costs one lowering plus cheap re-indexing.

Small kernels (at most :data:`_CODEGEN_TERM_LIMIT` terms) evaluate
single points through generated plain-float Python functions; there
numpy's per-call dispatch, not arithmetic, is the cost, and generated
code is about 2–3x faster.  Above the limit the generated source grows
with terms × partials, costs milliseconds to build, and runs slower
than numpy, so larger kernels stay on numpy (``docs/performance.md``,
"Kernel lowering", has the measured crossover).

Kernels are plain data (tuples + numpy arrays): picklable, so the
:class:`~repro.checking.cache.CheckCache` / result-store layer memoizes
them beside the eliminations and warm service runs skip compilation too.

Numeric policy: coefficients are converted to ``float64`` once at
compile time.  Scalar ``evaluate`` raises ``ZeroDivisionError`` on a
vanishing denominator, matching
:meth:`~repro.symbolic.rational.RationalFunction.evaluate`;
``evaluate_batch`` instead lets IEEE semantics produce ``inf``/``nan``
for the offending rows so one bad candidate cannot abort a whole
screening pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.symbolic.polynomial import Monomial, Polynomial
from repro.symbolic.rational import RationalFunction

__all__ = [
    "CompiledPolynomial",
    "CompiledRationalFunction",
    "StackedConstraintKernel",
    "compile_polynomial",
    "compile_rational",
    "compile_stack",
    "kernel_stats",
]

#: Process-wide kernel accounting, mirrored into the service telemetry
#: (``kernel_compilations`` / ``kernel_evaluations`` /
#: ``kernel_dispatches``) the same way the
#: :class:`~repro.checking.cache.CheckCache` counters are: callers
#: snapshot :func:`kernel_stats` and emit deltas.
_KERNEL_COUNTER = {"compilations": 0, "evaluations": 0, "dispatches": 0}


def kernel_stats() -> Dict[str, int]:
    """Snapshot of the process-wide kernel counters.

    ``compilations`` counts symbolic→numeric lowerings performed in this
    process (kernels restored from a pickle — e.g. a warm result store —
    and stacks merged from already-lowered rows do not count);
    ``evaluations`` counts evaluated *rows* — one per point for the
    single-function kernels, ``points × constraints`` for a
    :class:`StackedConstraintKernel`; ``dispatches`` counts python
    entry calls into any kernel.  ``dispatches / evaluations`` is the
    dispatch ratio the scalability benchmarks report: 1.0 means every
    row paid python call overhead (the dispatch-bound regime), values
    near ``1/(starts × constraints)`` mean the work was fused.
    """
    return dict(_KERNEL_COUNTER)


def _lower(
    polynomials: Sequence[Polynomial], params: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Lower polynomials and all their partials onto one term table.

    Returns ``(E, C)``: ``E`` is the ``(T, n)`` exponent matrix of every
    monomial occurring in any input or any of its partial derivatives,
    and ``C[p, 0]`` / ``C[p, 1 + j]`` are the dense coefficient rows of
    ``polynomials[p]`` / its partial by ``params[j]`` over that shared
    term axis.  Evaluating the power-product ``x**E`` once then serves
    every row with a single dot product each.

    The partial rows are read straight off the terms, with no
    intermediate :class:`Polynomial`: each ``(v, e)`` factor of a term
    ``c·m`` contributes ``c·e`` at ``m`` with ``v``'s exponent lowered by
    one.  Distinct terms never lower onto the same monomial for one
    ``v``, so every entry is a single exact product, and Python's
    ``int / int`` is correctly rounded — the same float as
    ``float(Polynomial.derivative(v).terms[m])``, bit for bit.
    """
    column = {name: j for j, name in enumerate(params)}
    width = 1 + len(params)
    slots: List[int] = []
    monomials: List[Monomial] = []
    values: List[float] = []
    for p, poly in enumerate(polynomials):
        base = p * width
        for mono, coeff in poly.terms.items():
            top, bottom = coeff.as_integer_ratio()
            slots.append(base)
            monomials.append(mono)
            values.append(top / bottom)
            for i, (var, exp) in enumerate(mono):
                slots.append(base + 1 + column[var])
                if exp == 1:
                    monomials.append(mono[:i] + mono[i + 1 :])
                else:
                    monomials.append(
                        mono[:i] + ((var, exp - 1),) + mono[i + 1 :]
                    )
                values.append(top * exp / bottom)
    # The term axis is sorted canonically so that mathematically equal
    # polynomials compile to bit-identical kernels no matter how their
    # term dicts were built — elimination order then cannot perturb the
    # float summation order (verdict identity down to the last bit).
    axis = sorted(set(monomials))
    index: Dict[Monomial, int] = {mono: t for t, mono in enumerate(axis)}
    exponents = np.zeros((len(axis), len(params)), dtype=np.int64)
    for t, mono in enumerate(axis):
        for var, exp in mono:
            exponents[t, column[var]] = exp
    table = np.zeros((len(polynomials) * width, len(axis)), dtype=np.float64)
    if values:
        table[slots, [index[mono] for mono in monomials]] = values
    _KERNEL_COUNTER["compilations"] += 1
    return exponents, table.reshape(len(polynomials), width, len(axis))


def _term_monomials(kernel: "_Kernel") -> List[Monomial]:
    """The canonical monomial of every row of ``kernel.exponents``."""
    names = kernel.params
    by_name = sorted(range(len(names)), key=names.__getitem__)
    return [
        tuple((names[j], row[j]) for j in by_name if row[j])
        for row in kernel.exponents.tolist()
    ]


#: Power-of-two magnitude beyond which exact coefficients are rescaled
#: before the float64 conversion (float64 overflows past 2^1024).
_FLOAT_SAFE_EXPONENT = 900


def _magnitude_exponent(poly: Polynomial) -> Optional[int]:
    """≈``log2`` of the largest coefficient magnitude (``None`` if zero)."""
    best = None
    for coeff in poly.terms.values():
        if coeff == 0:
            continue
        k = coeff.numerator.bit_length() - coeff.denominator.bit_length()
        if best is None or k > best:
            best = k
    return best


def _float_safe_pair(
    numerator: Polynomial, denominator: Polynomial
) -> Tuple[Polynomial, Polynomial]:
    """Rescale a num/den pair whose exact coefficients exceed float range.

    State elimination over long-denominator probabilities (e.g. parsed
    6-decimal PRISM models) can produce rational functions whose exact
    ``Fraction`` coefficients overflow ``float64`` even though the
    *quotient* is a tame probability.  Dividing both polynomials by a
    common power of two leaves the quotient (and, consistently, the
    quotient-rule gradient) unchanged — and is exact in binary floating
    point, so in-range kernels are bit-identical to the unscaled ones.
    """
    exponents = [
        e
        for e in (
            _magnitude_exponent(numerator),
            _magnitude_exponent(denominator),
        )
        if e is not None
    ]
    if not exponents:
        return numerator, denominator
    top = max(exponents)
    if abs(top) <= _FLOAT_SAFE_EXPONENT:
        return numerator, denominator
    scale = Fraction(1, 1 << top) if top > 0 else Fraction(1 << (-top))
    return numerator.scaled(scale), denominator.scaled(scale)


def _default_params(*polynomials: Polynomial) -> Tuple[str, ...]:
    names: set = set()
    for poly in polynomials:
        names |= poly.variables()
    return tuple(sorted(names))


#: Above this many shared terms the scalar path stays on numpy.  Measured
#: per ``margins_and_jacobian`` call on the monitored-WSN CEGIS stacks,
#: generated code wins up to about 64 terms for every row count and
#: loses beyond about 100 (at 1822 terms it is 2–3x slower), while its
#: source and bytecode cost milliseconds to build
#: (``benchmarks/bench_compiled_kernels.py::test_codegen_crossover``).
_CODEGEN_TERM_LIMIT = 64


def _polynomial_source(exponents: np.ndarray, coefficients: np.ndarray) -> str:
    """Python source of ``Σ c_t · Π x_j^e`` with zero terms dropped.

    ``repr(float)`` round-trips exactly, so the generated expression
    uses the kernel's exact float coefficients; it sums terms left to
    right, so it may differ from numpy's dot product in the last bits.
    """
    parts = []
    for row, coeff in zip(exponents, coefficients):
        value = float(coeff)
        if value == 0.0:
            continue
        factors = [repr(value)]
        for j, exp in enumerate(row):
            exp = int(exp)
            if exp == 1:
                factors.append(f"x{j}")
            elif exp == 2:
                factors.append(f"x{j}*x{j}")
            elif exp > 2:
                factors.append(f"x{j}**{exp}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0.0"


def _scalar_function(name: str, arity: int, expressions: List[str]):
    """Compile ``f(x0, …) -> (expr_0, expr_1, …)`` to Python bytecode.

    Scalar evaluation of a small kernel is dominated by numpy ufunc
    dispatch, not arithmetic; a generated plain-float expression runs
    about 2–3x faster up to :data:`_CODEGEN_TERM_LIMIT` terms and slower
    beyond it.  One function returns every requested expression so
    callers pay the call overhead once per point.
    """
    args = ", ".join(f"x{j}" for j in range(arity))
    body = ", ".join(expressions)
    source = f"def {name}({args}):\n    return ({body}{',' if body else ''})"
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<kernel:{name}>", "exec"), namespace)  # noqa: S102
    return namespace[name]


class _Kernel:
    """Shared power-product machinery over one exponent matrix."""

    def __init__(self, params: Tuple[str, ...], exponents: np.ndarray):
        self.params = params
        self.exponents = exponents
        # Degree-≤1 tables (the common case after state elimination of
        # sparse chains) skip the pow ufunc entirely.
        self._linear = bool((exponents <= 1).all())

    def _powers(self, x: np.ndarray) -> np.ndarray:
        """``(T,)`` vector of monomial values at one point."""
        if self.exponents.size == 0:
            return np.ones(len(self.exponents), dtype=np.float64)
        if self._linear:
            return np.prod(
                np.where(self.exponents == 1, x[np.newaxis, :], 1.0), axis=1
            )
        return np.prod(
            np.power(x[np.newaxis, :], self.exponents), axis=1
        )

    def _powers_batch(self, X: np.ndarray) -> np.ndarray:
        """``(m, T)`` matrix of monomial values at ``m`` points."""
        if self.exponents.size == 0:
            return np.ones((len(X), len(self.exponents)), dtype=np.float64)
        if self._linear:
            return np.prod(
                np.where(
                    self.exponents[np.newaxis, :, :] == 1,
                    X[:, np.newaxis, :],
                    1.0,
                ),
                axis=2,
            )
        return np.prod(
            np.power(X[:, np.newaxis, :], self.exponents[np.newaxis, :, :]),
            axis=2,
        )

    def _vector(self, x) -> np.ndarray:
        vector = np.asarray(x, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != len(self.params):
            raise ValueError(
                f"expected a point with {len(self.params)} coordinates "
                f"(params {self.params}), got shape {vector.shape}"
            )
        return vector

    def _matrix(self, X) -> np.ndarray:
        matrix = np.asarray(X, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.params):
            raise ValueError(
                f"expected an (m, {len(self.params)}) matrix of points "
                f"(params {self.params}), got shape {matrix.shape}"
            )
        return matrix

    def vector_from(self, assignment: Mapping[str, float]) -> np.ndarray:
        """Point vector in ``params`` order from a name→value mapping."""
        return np.array(
            [float(assignment[name]) for name in self.params],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Generated scalar fast path
    # ------------------------------------------------------------------
    def _scalar(self):
        """The codegen'd scalar functions, built lazily (or ``None``).

        ``None`` above :data:`_CODEGEN_TERM_LIMIT` terms, where numpy
        wins; no source is ever generated for such a kernel.  Generated
        functions hold compiled code objects and therefore do not
        pickle; :meth:`__getstate__` drops them, and a kernel restored
        from the result store regenerates them on first scalar use.
        """
        if len(self.exponents) > _CODEGEN_TERM_LIMIT:
            return None
        functions = self.__dict__.get("_scalar_fns")
        if functions is None:
            functions = self._scalar_fns = self._build_scalar()
        return functions

    def _build_scalar(self):
        raise NotImplementedError

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_scalar_fns", None)
        return state


class CompiledPolynomial(_Kernel):
    """A polynomial lowered to ``c @ (x ** E).prod(axis=1)``.

    Built by :func:`compile_polynomial`; evaluation returns plain
    ``float`` / ``float64`` arrays.

    Examples
    --------
    >>> from repro.symbolic import Polynomial
    >>> p = Polynomial.variable("x") * 3 + 1
    >>> compile_polynomial(p).evaluate([2.0])
    7.0
    """

    def __init__(self, polynomial: Polynomial, params: Optional[Sequence[str]] = None):
        params = (
            _default_params(polynomial) if params is None else tuple(params)
        )
        missing = polynomial.variables() - set(params)
        if missing:
            raise ValueError(f"params {params} do not cover {sorted(missing)}")
        exponents, table = _lower([polynomial], params)
        super().__init__(params, exponents)
        self.coefficients = table[0, 0]
        #: ``(n, T)``: row ``i`` holds the coefficients of ``∂p/∂params[i]``
        #: over the shared term table.
        self.gradient_coefficients = table[0, 1:]

    def _build_scalar(self):
        arity = len(self.params)
        return {
            "value": _scalar_function(
                "poly_value",
                arity,
                [_polynomial_source(self.exponents, self.coefficients)],
            ),
            "grad": _scalar_function(
                "poly_grad",
                arity,
                [
                    _polynomial_source(self.exponents, row)
                    for row in self.gradient_coefficients
                ],
            ),
        }

    def evaluate(self, x) -> float:
        """The polynomial's value at one point (``params`` order)."""
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += 1
        scalar = self._scalar()
        if scalar is not None:
            return scalar["value"](*[float(v) for v in x])[0]
        return float(self.coefficients @ self._powers(self._vector(x)))

    def evaluate_batch(self, X) -> np.ndarray:
        """Values at an ``(m, n)`` matrix of points, as an ``(m,)`` array."""
        matrix = self._matrix(X)
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += len(matrix)
        return self._powers_batch(matrix) @ self.coefficients

    def gradient(self, x) -> np.ndarray:
        """``(n,)`` gradient at one point, from the derivative rows."""
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += 1
        scalar = self._scalar()
        if scalar is not None:
            return np.array(
                scalar["grad"](*[float(v) for v in x]), dtype=np.float64
            )
        return self.gradient_coefficients @ self._powers(self._vector(x))


class CompiledRationalFunction(_Kernel):
    """A rational function and its partials over one shared term table.

    Numerator, denominator and all ``2n`` partial-derivative polynomials
    are dense coefficient rows over a single exponent matrix, so
    :meth:`value_and_gradient` computes the power-product once and reads
    everything else off with matrix-vector products.

    Examples
    --------
    >>> from repro.symbolic import Polynomial, RationalFunction
    >>> x = Polynomial.variable("x")
    >>> kernel = compile_rational(RationalFunction(Polynomial.one(), x))
    >>> kernel.evaluate([4.0])
    0.25
    >>> kernel.gradient([4.0])
    array([-0.0625])
    """

    def __init__(
        self,
        function: RationalFunction,
        params: Optional[Sequence[str]] = None,
    ):
        params = (
            _default_params(function.numerator, function.denominator)
            if params is None
            else tuple(params)
        )
        missing = function.variables() - set(params)
        if missing:
            raise ValueError(f"params {params} do not cover {sorted(missing)}")
        numerator, denominator = _float_safe_pair(
            function.numerator, function.denominator
        )
        exponents, table = _lower([numerator, denominator], params)
        super().__init__(params, exponents)
        self.numerator_coefficients = table[0, 0]
        self.denominator_coefficients = table[1, 0]
        #: ``(n, T)`` partial-derivative rows of numerator / denominator.
        self.numerator_gradient = table[0, 1:]
        self.denominator_gradient = table[1, 1:]

    def _build_scalar(self):
        arity = len(self.params)
        numerator = _polynomial_source(
            self.exponents, self.numerator_coefficients
        )
        denominator = _polynomial_source(
            self.exponents, self.denominator_coefficients
        )
        partials = [
            _polynomial_source(self.exponents, row)
            for row in self.numerator_gradient
        ] + [
            _polynomial_source(self.exponents, row)
            for row in self.denominator_gradient
        ]
        return {
            "value": _scalar_function(
                "rational_value", arity, [numerator, denominator]
            ),
            "full": _scalar_function(
                "rational_full", arity, [numerator, denominator] + partials
            ),
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, x) -> float:
        """``f(x)``; raises ``ZeroDivisionError`` on a vanishing denominator."""
        _KERNEL_COUNTER["dispatches"] += 1
        scalar = self._scalar()
        if scalar is not None:
            _KERNEL_COUNTER["evaluations"] += 1
            numerator, denominator = scalar["value"](*[float(v) for v in x])
            if denominator == 0.0:
                raise ZeroDivisionError(
                    f"denominator vanishes at {dict(zip(self.params, x))}"
                )
            return numerator / denominator
        _KERNEL_COUNTER["evaluations"] += 1
        powers = self._powers(self._vector(x))
        denominator = float(self.denominator_coefficients @ powers)
        if denominator == 0.0:
            raise ZeroDivisionError(
                f"denominator vanishes at {dict(zip(self.params, x))}"
            )
        return float(self.numerator_coefficients @ powers) / denominator

    def evaluate_assignment(self, assignment: Mapping[str, float]) -> float:
        """``f`` at a name→value mapping (missing names raise ``KeyError``)."""
        return self.evaluate(
            [float(assignment[name]) for name in self.params]
        )

    def gradient_assignment(
        self, assignment: Mapping[str, float]
    ) -> Dict[str, float]:
        """``∂f/∂name`` mapping at a name→value assignment.

        The hot path of the NLP's analytic constraint jacobians: one
        generated-function call yields numerator, denominator and all
        ``2n`` partials, combined by the quotient rule without any
        array round-trip.
        """
        args = [float(assignment[name]) for name in self.params]
        _KERNEL_COUNTER["dispatches"] += 1
        scalar = self._scalar()
        if scalar is not None:
            _KERNEL_COUNTER["evaluations"] += 1
            out = scalar["full"](*args)
            denominator = out[1]
            if denominator == 0.0:
                raise ZeroDivisionError(
                    f"denominator vanishes at {dict(assignment)}"
                )
            inverse = 1.0 / denominator
            value = out[0] * inverse
            offset = 2 + len(self.params)
            return {
                name: (out[2 + i] - value * out[offset + i]) * inverse
                for i, name in enumerate(self.params)
            }
        gradient = self.value_and_gradient(np.array(args, dtype=np.float64))[1]
        return dict(zip(self.params, gradient))

    def evaluate_batch(self, X) -> np.ndarray:
        """``f`` at an ``(m, n)`` matrix of points, as an ``(m,)`` array.

        Rows where the denominator vanishes yield ``inf``/``nan``
        (IEEE division) rather than raising, so batch screening survives
        isolated bad candidates.
        """
        matrix = self._matrix(X)
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += len(matrix)
        powers = self._powers_batch(matrix)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (powers @ self.numerator_coefficients) / (
                powers @ self.denominator_coefficients
            )

    def gradient(self, x) -> np.ndarray:
        """``∇f`` at one point via the quotient rule on shared powers."""
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x) -> Tuple[float, np.ndarray]:
        """``(f(x), ∇f(x))`` from a single power-product evaluation."""
        _KERNEL_COUNTER["dispatches"] += 1
        scalar = self._scalar()
        if scalar is not None:
            _KERNEL_COUNTER["evaluations"] += 1
            out = scalar["full"](*[float(v) for v in x])
            denominator = out[1]
            if denominator == 0.0:
                raise ZeroDivisionError(
                    f"denominator vanishes at {dict(zip(self.params, x))}"
                )
            inverse = 1.0 / denominator
            value = out[0] * inverse
            offset = 2 + len(self.params)
            gradient = np.array(
                [
                    (out[2 + i] - value * out[offset + i]) * inverse
                    for i in range(len(self.params))
                ],
                dtype=np.float64,
            )
            return value, gradient
        _KERNEL_COUNTER["evaluations"] += 1
        powers = self._powers(self._vector(x))
        denominator = float(self.denominator_coefficients @ powers)
        if denominator == 0.0:
            raise ZeroDivisionError(
                f"denominator vanishes at {dict(zip(self.params, x))}"
            )
        numerator = float(self.numerator_coefficients @ powers)
        gradient = (
            (self.numerator_gradient @ powers) * denominator
            - numerator * (self.denominator_gradient @ powers)
        ) / (denominator * denominator)
        return numerator / denominator, gradient


def compile_polynomial(
    polynomial: Polynomial, params: Optional[Sequence[str]] = None
) -> CompiledPolynomial:
    """Lower a :class:`Polynomial` to a numpy kernel.

    ``params`` fixes the coordinate order (default: sorted variable
    names); extra names are allowed (their columns are simply unused by
    the polynomial's terms), missing ones raise ``ValueError``.
    """
    return CompiledPolynomial(polynomial, params)


def compile_rational(
    function: RationalFunction, params: Optional[Sequence[str]] = None
) -> CompiledRationalFunction:
    """Lower a :class:`RationalFunction` (and its partials) to a kernel."""
    return CompiledRationalFunction(function, params)


class StackedConstraintKernel(_Kernel):
    """``k`` inequality margins fused over one union term table.

    Each row is a triple ``(function, sign, bound)`` describing the
    margin ``sign · (function(x) − bound)`` of one
    :class:`~repro.checking.parametric.ParametricConstraint`.  All ``k``
    numerators, denominators and every one of the ``2·k·n`` partial
    derivatives become dense coefficient rows over a *single* exponent
    matrix, so one python call returns every constraint margin (and, on
    request, the full ``(k, n)`` jacobian) from one power-product — the
    NLP's SLSQP callbacks stop paying per-constraint dispatch.

    The rows are merged from each function's cached
    :class:`CompiledRationalFunction` (:meth:`RationalFunction.compiled`),
    so building a stack never lowers a closed form that is already
    lowered; a one-row stack over the function's own parameters shares
    that kernel's arrays.

    Row arithmetic matches the per-constraint
    :meth:`~repro.checking.parametric.ParametricConstraint.fast_margin`
    float path (value first, then ``sign · (value − bound)``), so fused
    and unfused solves see identical margins up to summation order.

    Scalar entry points (:meth:`margins`, :meth:`margins_and_jacobian`)
    raise ``ZeroDivisionError`` when any row's denominator vanishes;
    the batch entry points let IEEE semantics mark the offending
    entries ``inf``/``nan`` instead, so screening whole start pools
    survives isolated bad candidates.

    Examples
    --------
    >>> from repro.symbolic import Polynomial, RationalFunction
    >>> x = Polynomial.variable("x")
    >>> stack = compile_stack(
    ...     [
    ...         (RationalFunction(x, Polynomial.one()), 1.0, 0.25),
    ...         (RationalFunction(Polynomial.one(), x), -1.0, 3.0),
    ...     ]
    ... )
    >>> stack.margins([0.5])
    array([0.25, 1.  ])
    """

    def __init__(self, rows, params: Optional[Sequence[str]] = None):
        rows = [
            (function, float(sign), float(bound))
            for function, sign, bound in rows
        ]
        if not rows:
            raise ValueError("a stacked kernel needs at least one row")
        functions = [function for function, _, _ in rows]
        if params is None:
            names: set = set()
            for function in functions:
                names |= function.variables()
            params = tuple(sorted(names))
        else:
            params = tuple(params)
        for function in functions:
            missing = function.variables() - set(params)
            if missing:
                raise ValueError(
                    f"params {params} do not cover {sorted(missing)}"
                )
        self.signs = np.array([sign for _, sign, _ in rows], dtype=np.float64)
        self.bounds = np.array(
            [bound for _, _, bound in rows], dtype=np.float64
        )
        tables = [function.compiled() for function in functions]
        if len(tables) == 1 and tables[0].params == params:
            # One row over its own parameters: the table as it is.
            table = tables[0]
            super().__init__(params, table.exponents)
            self.numerator_coefficients = table.numerator_coefficients[None]
            self.denominator_coefficients = (
                table.denominator_coefficients[None]
            )
            self.numerator_gradient = table.numerator_gradient[None]
            self.denominator_gradient = table.denominator_gradient[None]
            return
        row_terms = [_term_monomials(table) for table in tables]
        axis = sorted(set().union(*row_terms))
        index = {mono: t for t, mono in enumerate(axis)}
        column = {name: j for j, name in enumerate(params)}
        count, arity, terms = len(tables), len(params), len(axis)
        exponents = np.zeros((terms, arity), dtype=np.int64)
        numerators = np.zeros((count, terms), dtype=np.float64)
        denominators = np.zeros((count, terms), dtype=np.float64)
        numerator_gradient = np.zeros((count, arity, terms), dtype=np.float64)
        denominator_gradient = np.zeros(
            (count, arity, terms), dtype=np.float64
        )
        for i, (table, row) in enumerate(zip(tables, row_terms)):
            at = np.array([index[mono] for mono in row], dtype=np.intp)
            cols = np.array(
                [column[name] for name in table.params], dtype=np.intp
            )
            exponents[np.ix_(at, cols)] = table.exponents
            numerators[i, at] = table.numerator_coefficients
            denominators[i, at] = table.denominator_coefficients
            numerator_gradient[i][np.ix_(cols, at)] = table.numerator_gradient
            denominator_gradient[i][np.ix_(cols, at)] = (
                table.denominator_gradient
            )
        super().__init__(params, exponents)
        #: ``(k, T)`` numerator / denominator coefficient rows.
        self.numerator_coefficients = numerators
        self.denominator_coefficients = denominators
        #: ``(k, n, T)``: partial-derivative coefficient rows per
        #: constraint and parameter, over the shared term table.
        self.numerator_gradient = numerator_gradient
        self.denominator_gradient = denominator_gradient

    @property
    def size(self) -> int:
        """Number of stacked constraint rows."""
        return len(self.bounds)

    def _build_scalar(self):
        arity = len(self.params)
        numerators = [
            _polynomial_source(self.exponents, row)
            for row in self.numerator_coefficients
        ]
        denominators = [
            _polynomial_source(self.exponents, row)
            for row in self.denominator_coefficients
        ]
        partials: List[str] = []
        for i in range(self.size):
            partials.extend(
                _polynomial_source(self.exponents, self.numerator_gradient[i, j])
                for j in range(arity)
            )
            partials.extend(
                _polynomial_source(
                    self.exponents, self.denominator_gradient[i, j]
                )
                for j in range(arity)
            )
        return {
            "value": _scalar_function(
                "stack_value", arity, numerators + denominators
            ),
            "full": _scalar_function(
                "stack_full", arity, numerators + denominators + partials
            ),
        }

    def _raise_vanishing(self, x) -> None:
        raise ZeroDivisionError(
            f"denominator vanishes at {dict(zip(self.params, x))}"
        )

    # ------------------------------------------------------------------
    # Scalar evaluation (one point, every constraint)
    # ------------------------------------------------------------------
    def margins(self, x) -> np.ndarray:
        """``(k,)`` margins ``sign_i · (f_i(x) − b_i)`` at one point."""
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += self.size
        count = self.size
        scalar = self._scalar()
        if scalar is not None:
            out = scalar["value"](*[float(v) for v in x])
            values = np.empty(count, dtype=np.float64)
            for i in range(count):
                denominator = out[count + i]
                if denominator == 0.0:
                    self._raise_vanishing(x)
                values[i] = out[i] / denominator
        else:
            powers = self._powers(self._vector(x))
            denominators = self.denominator_coefficients @ powers
            if (denominators == 0.0).any():
                self._raise_vanishing(x)
            values = (self.numerator_coefficients @ powers) / denominators
        return self.signs * (values - self.bounds)

    def margins_and_jacobian(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """``((k,), (k, n))`` margins and jacobian from one evaluation."""
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += self.size
        count = self.size
        arity = len(self.params)
        scalar = self._scalar()
        if scalar is not None:
            out = scalar["full"](*[float(v) for v in x])
            values = np.empty(count, dtype=np.float64)
            jacobian = np.empty((count, arity), dtype=np.float64)
            for i in range(count):
                denominator = out[count + i]
                if denominator == 0.0:
                    self._raise_vanishing(x)
                inverse = 1.0 / denominator
                value = out[i] * inverse
                values[i] = value
                offset = 2 * count + i * 2 * arity
                for j in range(arity):
                    jacobian[i, j] = (
                        out[offset + j] - value * out[offset + arity + j]
                    ) * inverse
        else:
            powers = self._powers(self._vector(x))
            denominators = self.denominator_coefficients @ powers
            if (denominators == 0.0).any():
                self._raise_vanishing(x)
            numerators = self.numerator_coefficients @ powers
            values = numerators / denominators
            jacobian = (
                self.numerator_gradient @ powers
                - values[:, np.newaxis] * (self.denominator_gradient @ powers)
            ) / denominators[:, np.newaxis]
        margins = self.signs * (values - self.bounds)
        return margins, self.signs[:, np.newaxis] * jacobian

    # ------------------------------------------------------------------
    # Batch evaluation (many points, every constraint)
    # ------------------------------------------------------------------
    def margins_batch(self, X) -> np.ndarray:
        """``(m, k)`` margins at an ``(m, n)`` matrix of points.

        Rows with a vanishing denominator come back ``inf``/``nan``
        rather than raising (IEEE division), matching
        :meth:`CompiledRationalFunction.evaluate_batch`.
        """
        matrix = self._matrix(X)
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += len(matrix) * self.size
        powers = self._powers_batch(matrix)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (powers @ self.numerator_coefficients.T) / (
                powers @ self.denominator_coefficients.T
            )
            return self.signs * (values - self.bounds)

    def margins_and_jacobian_batch(
        self, X
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``((m, k), (m, k, n))`` margins and jacobians for ``m`` points.

        The joint multi-start solve reads every SLSQP constraint value
        *and* derivative for every candidate start from this single
        call.  Non-finite rows (vanishing denominators) follow IEEE
        semantics as in :meth:`margins_batch`.
        """
        matrix = self._matrix(X)
        _KERNEL_COUNTER["dispatches"] += 1
        _KERNEL_COUNTER["evaluations"] += len(matrix) * self.size
        powers = self._powers_batch(matrix)
        with np.errstate(divide="ignore", invalid="ignore"):
            numerators = powers @ self.numerator_coefficients.T
            denominators = powers @ self.denominator_coefficients.T
            values = numerators / denominators
            numerator_grad = np.tensordot(
                powers, self.numerator_gradient, axes=([1], [2])
            )
            denominator_grad = np.tensordot(
                powers, self.denominator_gradient, axes=([1], [2])
            )
            jacobian = (
                numerator_grad
                - values[:, :, np.newaxis] * denominator_grad
            ) / denominators[:, :, np.newaxis]
            margins = self.signs * (values - self.bounds)
            return margins, self.signs[np.newaxis, :, np.newaxis] * jacobian


def compile_stack(
    rows, params: Optional[Sequence[str]] = None
) -> StackedConstraintKernel:
    """Fuse ``(function, sign, bound)`` rows into one stacked kernel."""
    return StackedConstraintKernel(rows, params)
