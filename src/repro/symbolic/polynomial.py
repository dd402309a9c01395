"""Multivariate polynomials with exact rational coefficients.

The representation is sparse: a mapping from *monomials* to nonzero
:class:`fractions.Fraction` coefficients.  A monomial is a tuple of
``(variable_name, exponent)`` pairs, sorted by variable name, with all
exponents positive; the empty tuple is the constant monomial.

Polynomials are immutable and hashable, so they can be used as dictionary
keys (the parametric model checker keys transition matrices by rational
functions built from these).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
Scalar = Union[int, float, Fraction]

# Polynomials larger than this (in monomial count) are never fed to the
# GCD routine; simplification silently degrades instead of hanging.
_GCD_SIZE_LIMIT = 250

# Bounded memo tables for the elimination hot path.  Monomials and
# polynomials are immutable and hashable, and state elimination combines
# the same rational functions over and over, so identical products,
# divisions and GCDs recur constantly.  Each table is cleared wholesale
# once it reaches the cap — correctness never depends on a hit, so a
# flush only costs warm-up.
_MEMO_LIMIT = 1 << 15
_MONO_INTERN: Dict[Monomial, Monomial] = {}
_MONO_MUL_CACHE: Dict[Tuple[Monomial, Monomial], Monomial] = {}
_DIV_CACHE: Dict[Tuple["Polynomial", "Polynomial"], "Polynomial"] = {}
_GCD_CACHE: Dict[Tuple["Polynomial", "Polynomial"], "Polynomial"] = {}


def _intern_monomial(mono: Monomial) -> Monomial:
    """One shared tuple per distinct monomial (dict keys then compare
    by identity on the fast path)."""
    if not mono:
        return mono
    cached = _MONO_INTERN.get(mono)
    if cached is not None:
        return cached
    if len(_MONO_INTERN) >= _MEMO_LIMIT:
        _MONO_INTERN.clear()
    _MONO_INTERN[mono] = mono
    return mono


def _as_fraction(value: Scalar) -> Fraction:
    """Convert supported scalar types to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {value!r} as a polynomial coefficient")


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials (merge exponent vectors; memoised)."""
    if not a:
        return b
    if not b:
        return a
    key = (a, b)
    cached = _MONO_MUL_CACHE.get(key)
    if cached is not None:
        return cached
    exps: Dict[str, int] = dict(a)
    for var, exp in b:
        exps[var] = exps.get(var, 0) + exp
    product = _intern_monomial(tuple(sorted(exps.items())))
    if len(_MONO_MUL_CACHE) >= _MEMO_LIMIT:
        _MONO_MUL_CACHE.clear()
    _MONO_MUL_CACHE[key] = product
    return product


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    """Return True if monomial ``a`` divides monomial ``b``."""
    b_exps = dict(b)
    return all(b_exps.get(var, 0) >= exp for var, exp in a)


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Divide monomial ``a`` by ``b`` (``b`` must divide ``a``)."""
    exps = dict(a)
    for var, exp in b:
        remaining = exps.get(var, 0) - exp
        if remaining < 0:
            raise ArithmeticError(f"monomial {b} does not divide {a}")
        if remaining == 0:
            exps.pop(var, None)
        else:
            exps[var] = remaining
    return tuple(sorted(exps.items()))


class Polynomial:
    """Immutable sparse multivariate polynomial over the rationals.

    Construct via :meth:`constant`, :meth:`variable`, or arithmetic on
    existing polynomials.  Supports ``+ - * **``, exact equality, hashing,
    numeric evaluation and partial substitution.

    Examples
    --------
    >>> p = Polynomial.variable("x")
    >>> q = (p + 1) * (p - 1)
    >>> q.evaluate({"x": 3})
    Fraction(8, 1)
    """

    __slots__ = ("_terms", "_hash", "_vars", "_float_terms")

    def __init__(self, terms: Mapping[Monomial, Fraction] = ()):
        cleaned = {
            _intern_monomial(m): c for m, c in dict(terms).items() if c != 0
        }
        self._terms: Dict[Monomial, Fraction] = cleaned
        self._hash = None
        self._vars = None
        self._float_terms = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        """The constant polynomial ``value``."""
        frac = _as_fraction(value)
        return Polynomial({(): frac}) if frac != 0 else Polynomial()

    @staticmethod
    def variable(name: str) -> "Polynomial":
        """The polynomial consisting of the single variable ``name``."""
        if not name:
            raise ValueError("variable name must be non-empty")
        return Polynomial({((name, 1),): Fraction(1)})

    @staticmethod
    def zero() -> "Polynomial":
        """The zero polynomial."""
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        """The unit polynomial."""
        return Polynomial.constant(1)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """A copy of the monomial-to-coefficient mapping."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        """True if this is the zero polynomial."""
        return not self._terms

    def is_constant(self) -> bool:
        """True if this polynomial has no variables."""
        return not self._terms or set(self._terms) == {()}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises otherwise)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), Fraction(0))

    def variables(self) -> frozenset:
        """All variable names occurring with nonzero coefficient."""
        if self._vars is None:
            names = set()
            for mono in self._terms:
                for var, _ in mono:
                    names.add(var)
            self._vars = frozenset(names)
        return self._vars

    def degree(self, var: str) -> int:
        """The degree in ``var`` (0 for the zero polynomial)."""
        best = 0
        for mono in self._terms:
            for name, exp in mono:
                if name == var and exp > best:
                    best = exp
        return best

    def total_degree(self) -> int:
        """The maximum total degree over all monomials."""
        if not self._terms:
            return 0
        return max(sum(exp for _, exp in mono) for mono in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return Polynomial()
        terms: Dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = _mono_mul(mono_a, mono_b)
                terms[mono] = terms.get(mono, Fraction(0)) + coeff_a * coeff_b
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative int")
        result = Polynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, float):
            # Exactly, as ``Fraction`` compares with ``float`` (no
            # ``limit_denominator``), so equal objects hash equal.
            if not math.isfinite(other):
                return False
            other = Fraction(other)
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant hashes as its number, since it compares equal to it.
        # Otherwise integer triples, not Fractions: ``Fraction.__hash__``
        # computes a modular inverse of the denominator.  Coefficients are
        # normalised Fractions, so equal polynomials give equal triples.
        if self._hash is None:
            terms = self._terms
            if not terms or (len(terms) == 1 and () in terms):
                self._hash = hash(terms.get((), 0))
            else:
                self._hash = hash(
                    frozenset(
                        (mono, coeff.numerator, coeff.denominator)
                        for mono, coeff in terms.items()
                    )
                )
        return self._hash

    def __getstate__(self):
        # The caches stay out of a pickle: the hash depends on the string
        # hashes of the variable names, i.e. on PYTHONHASHSEED, so an
        # interpreter that loads the pickle must recompute it.
        return {"_terms": self._terms}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # (None, slots), with the old caches
            state = state[1]
        self._terms = state["_terms"]
        self._hash = None
        self._vars = None
        self._float_terms = None

    # ------------------------------------------------------------------
    # Evaluation and substitution
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, Scalar]):
        """Evaluate with every variable bound.

        Returns a :class:`Fraction` when all inputs are exact, else a
        float.  Raises ``KeyError`` on unbound variables.

        The inexact path never touches ``Fraction`` arithmetic: the
        coefficients are pre-converted to floats once per polynomial
        (cached) and accumulation is pure float — this is the hot path
        of every numeric caller that has not compiled a kernel
        (:mod:`repro.symbolic.compile`).
        """
        exact = all(
            isinstance(assignment[var], (int, Fraction)) for var in self.variables()
        )
        if exact:
            total = Fraction(0)
            for mono, coeff in self._terms.items():
                value = coeff
                for var, exp in mono:
                    value = value * assignment[var] ** exp
                total += value
            return total
        if self._float_terms is None:
            self._float_terms = [
                (float(coeff), mono) for mono, coeff in self._terms.items()
            ]
        total = 0.0
        for value, mono in self._float_terms:
            for var, exp in mono:
                value *= float(assignment[var]) ** exp
            total += value
        return total

    def substitute(self, assignment: Mapping[str, Union[Scalar, "Polynomial"]]) -> "Polynomial":
        """Partially substitute variables; unbound variables stay symbolic."""
        result = Polynomial()
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for var, exp in mono:
                if var in assignment:
                    replacement = assignment[var]
                    if not isinstance(replacement, Polynomial):
                        replacement = Polynomial.constant(replacement)
                    term = term * replacement**exp
                else:
                    term = term * Polynomial.variable(var) ** exp
            result = result + term
        return result

    def derivative(self, var: str) -> "Polynomial":
        """Partial derivative with respect to ``var``."""
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            exp = exps.get(var, 0)
            if exp == 0:
                continue
            if exp == 1:
                exps.pop(var)
            else:
                exps[var] = exp - 1
            new_mono = tuple(sorted(exps.items()))
            terms[new_mono] = terms.get(new_mono, Fraction(0)) + coeff * exp
        return Polynomial(terms)

    # ------------------------------------------------------------------
    # Ring utilities (for GCD and exact division)
    # ------------------------------------------------------------------
    def content(self) -> Fraction:
        """GCD of the coefficients (positive), or 0 for the zero poly."""
        if not self._terms:
            return Fraction(0)
        numer = 0
        denom = 1
        for coeff in self._terms.values():
            numer = math.gcd(numer, abs(coeff.numerator))
            denom = denom * coeff.denominator // math.gcd(denom, coeff.denominator)
        return Fraction(numer, denom)

    def scaled(self, factor: Scalar) -> "Polynomial":
        """This polynomial times a scalar."""
        frac = _as_fraction(factor)
        if frac == 0:
            return Polynomial()
        return Polynomial({m: c * frac for m, c in self._terms.items()})

    def leading_term(self) -> Tuple[Monomial, Fraction]:
        """The lexicographically greatest monomial and its coefficient."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        varlist = sorted(self.variables())
        mono = max(self._terms, key=lambda m: _exponent_vector(m, varlist))
        return mono, self._terms[mono]

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Multivariate division with remainder (lex monomial order)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        key = _descending_lex(self.variables() | divisor.variables())
        lead_mono = min(divisor._terms, key=key)
        # A Fraction divisor keeps every quotient coefficient exact, also
        # for polynomials built with plain int coefficients.
        lead_coeff = Fraction(divisor._terms[lead_mono])
        tail = [(m, c) for m, c in divisor._terms.items() if m != lead_mono]
        current = dict(self._terms)
        heap = _monomial_heap(current, key)
        quotient: Dict[Monomial, Fraction] = {}
        remainder: Dict[Monomial, Fraction] = {}
        while heap:
            mono = heapq.heappop(heap)[1]
            coeff = current.pop(mono, None)
            if coeff is None:  # stale: cancelled after it was pushed
                continue
            if not _mono_divides(lead_mono, mono):
                remainder[mono] = coeff
                continue
            factor_mono = _mono_div(mono, lead_mono)
            factor = coeff / lead_coeff
            quotient[factor_mono] = factor
            _subtract_shifted(current, heap, key, factor_mono, factor, tail)
        return Polynomial(quotient), Polynomial(remainder)

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division; raises ``ArithmeticError`` on nonzero remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            # Dividing by a nonzero constant is always exact.
            value = divisor.constant_value()
            if value == 1:
                return self
            return self.scaled(Fraction(1) / value)
        key = (self, divisor)
        cached = _DIV_CACHE.get(key)
        if cached is not None:
            return cached
        quotient, remainder = self.divmod(divisor)
        if not remainder.is_zero():
            raise ArithmeticError(f"{divisor} does not divide {self}")
        if len(_DIV_CACHE) >= _MEMO_LIMIT:
            _DIV_CACHE.clear()
        _DIV_CACHE[key] = quotient
        return quotient

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        varlist = sorted(self.variables())
        parts = []
        for mono in sorted(
            self._terms,
            key=lambda m: _exponent_vector(m, varlist),
            reverse=True,
        ):
            coeff = self._terms[mono]
            factors = [
                var if exp == 1 else f"{var}^{exp}" for var, exp in mono
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _coerce(value: Union[Polynomial, Scalar]) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


def _exponent_vector(mono: Monomial, varlist) -> Tuple[int, ...]:
    """The exponent vector of a monomial over an explicit variable list.

    Comparing these tuples realises lexicographic monomial order — a
    genuine multiplicative well-order, which term-by-term polynomial
    division requires.  (Comparing the sparse ``(var, exp)`` pairs
    directly is *not* an order: it would rank ``q`` above ``p·q``.)
    """
    exps = dict(mono)
    return tuple(exps.get(var, 0) for var in varlist)


def _descending_lex(variables):
    """``mono -> key`` whose ascending order is descending lex order.

    The key is the negated exponent vector over the sorted variables, so
    a min-heap of ``(key, mono)`` pops the lexicographically greatest
    monomial first (the order of :func:`_exponent_vector`).
    """
    position = {var: i for i, var in enumerate(sorted(variables))}
    width = len(position)

    def key(mono: Monomial) -> Tuple[int, ...]:
        vector = [0] * width
        for var, exp in mono:
            vector[position[var]] = -exp
        return tuple(vector)

    return key


def _monomial_heap(terms, key) -> list:
    """A heap of ``(key(mono), mono)`` over the monomials of ``terms``."""
    heap = [(key(mono), mono) for mono in terms]
    heapq.heapify(heap)
    return heap


def _subtract_shifted(current, heap, key, factor_mono, factor, tail) -> None:
    """``current −= factor·factor_mono·tail`` in place.

    ``tail`` is the divisor without its leading term, whose product
    cancels the leading term the caller has already popped.  Division
    keeps ``heap`` covering every monomial of ``current``: a monomial
    that enters (or re-enters after cancelling) is pushed, and one that
    cancels stays behind as a stale entry the caller skips.
    """
    for mono, coeff in tail:
        target = _mono_mul(factor_mono, mono)
        previous = current.get(target)
        if previous is None:
            current[target] = -factor * coeff
            heapq.heappush(heap, (key(target), target))
            continue
        value = previous - factor * coeff
        if value:
            current[target] = value
        else:
            del current[target]


# ----------------------------------------------------------------------
# Fraction-free linear algebra
# ----------------------------------------------------------------------
def bareiss_determinant(matrix) -> Polynomial:
    """Determinant of a square matrix of polynomials (Bareiss algorithm).

    Fraction-free Gaussian elimination: every intermediate entry is a
    minor of the original matrix, so with degree-``d`` entries the
    intermediates never exceed degree ``n·d`` — no rational-function
    blow-up.  Exact division by the previous pivot is guaranteed to
    succeed by the Sylvester identity.

    Implementation detail: each row is scaled by the LCM of its
    coefficient denominators up front, so the elimination runs entirely
    over integer-coefficient dictionaries (Python ``int`` arithmetic is
    an order of magnitude faster than ``Fraction``); the accumulated
    scale is divided back out of the result.
    """
    rows = [[_coerce(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Polynomial.one()
    int_rows, scale = _integer_rows(rows)
    sign = _bareiss_eliminate(int_rows)
    return _scaled_back(int_rows[n - 1][n - 1], sign, scale)


def cramer_determinants(matrix, rhs, column: int) -> Tuple[Polynomial, Polynomial]:
    """``(det A_c←b, det A)`` for Cramer's rule, from one Bareiss pass.

    ``A_c←b`` is ``matrix`` with column ``column`` replaced by ``rhs``.
    Column ``c`` is moved to the last position and ``b`` appended, and
    :func:`bareiss_determinant`'s elimination runs once over the
    ``n × (n+1)`` matrix ``[A' | b]``.  Every entry after step ``k`` is
    the minor on rows ``0..k, i`` and columns ``0..k, j`` (Sylvester),
    so the last row ends with ``det A'`` at ``(n−1, n−1)`` and, at
    ``(n−1, n)``, the determinant of ``A'`` with its last column — the
    moved ``c`` — replaced by ``b``.  The cyclic shift of ``n−1−c``
    columns multiplies both by ``(−1)^(n−1−c)``, which is undone, so
    each polynomial equals its :func:`bareiss_determinant` exactly.
    """
    rows = [[_coerce(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError("Cramer's rule needs a square matrix and n right-hand sides")
    if not 0 <= column < n:
        raise IndexError(f"column {column} is outside a {n}x{n} matrix")
    augmented = [
        row[:column] + row[column + 1:] + [row[column], _coerce(value)]
        for row, value in zip(rows, rhs)
    ]
    int_rows, scale = _integer_rows(augmented)
    sign = _bareiss_eliminate(int_rows)
    if (n - 1 - column) % 2:
        sign = -sign
    last = int_rows[n - 1]
    return (
        _scaled_back(last[n], sign, scale),
        _scaled_back(last[n - 1], sign, scale),
    )


def _integer_rows(rows):
    """Each row times the LCM of its denominators, as integer term dicts,
    and the product of those LCMs."""
    scale = Fraction(1)
    int_rows: list = []
    for row in rows:
        lcm = 1
        for entry in row:
            for coeff in entry._terms.values():
                lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
        scale *= lcm
        int_rows.append(
            [
                {mono: int(coeff * lcm) for mono, coeff in entry._terms.items()}
                for entry in row
            ]
        )
    return int_rows, scale


def _bareiss_eliminate(int_rows) -> int:
    """Fraction-free elimination of an ``n × m`` matrix (``m ≥ n``) in place.

    Steps ``k = 0..n−2`` leave at ``(i, j)``, for ``i, j > k``, the minor
    on rows ``0..k, i`` and columns ``0..k, j`` of the row-swapped input,
    so the last row ends holding the ``n × n`` minors on columns
    ``0..n−2`` plus column ``j``.  Returns the sign of the row swaps, or
    0 when some pivot column is zero on and below the diagonal: the
    first ``k+1`` columns are then dependent, so every one of those
    minors vanishes.
    """
    n = len(int_rows)
    width = len(int_rows[0])
    sign = 1
    previous_pivot: Dict[Monomial, int] = {(): 1}
    for k in range(n - 1):
        if not int_rows[k][k]:
            pivot_row = next(
                (i for i in range(k + 1, n) if int_rows[i][k]), None
            )
            if pivot_row is None:
                return 0
            int_rows[k], int_rows[pivot_row] = int_rows[pivot_row], int_rows[k]
            sign = -sign
        pivot = int_rows[k][k]
        for i in range(k + 1, n):
            left = int_rows[i][k]
            if not left:
                # Row already has a zero in the pivot column; still must
                # divide through to keep the Sylvester invariant.
                for j in range(k + 1, width):
                    product = _int_mul(pivot, int_rows[i][j])
                    int_rows[i][j] = _int_exact_div(product, previous_pivot)
                continue
            for j in range(k + 1, width):
                numerator = _int_sub(
                    _int_mul(pivot, int_rows[i][j]),
                    _int_mul(left, int_rows[k][j]),
                )
                int_rows[i][j] = _int_exact_div(numerator, previous_pivot)
            int_rows[i][k] = {}
        previous_pivot = pivot
    return sign


def _scaled_back(terms: Dict[Monomial, int], sign: int, scale: Fraction) -> Polynomial:
    """An eliminated entry as a Polynomial: times ``sign``, over ``scale``."""
    if not sign:
        return Polynomial.zero()
    poly = Polynomial(
        {mono: Fraction(coeff) / scale for mono, coeff in terms.items() if coeff}
    )
    return -poly if sign < 0 else poly


def _int_mul(a: Dict[Monomial, int], b: Dict[Monomial, int]) -> Dict[Monomial, int]:
    """Multiply integer-coefficient term dictionaries."""
    if not a or not b:
        return {}
    result: Dict[Monomial, int] = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = _mono_mul(mono_a, mono_b)
            value = result.get(mono, 0) + coeff_a * coeff_b
            if value:
                result[mono] = value
            else:
                result.pop(mono, None)
    return result


def _int_sub(a: Dict[Monomial, int], b: Dict[Monomial, int]) -> Dict[Monomial, int]:
    """Subtract integer-coefficient term dictionaries."""
    result = dict(a)
    for mono, coeff in b.items():
        value = result.get(mono, 0) - coeff
        if value:
            result[mono] = value
        else:
            result.pop(mono, None)
    return result


def _int_exact_div(
    a: Dict[Monomial, int], b: Dict[Monomial, int]
) -> Dict[Monomial, int]:
    """Exact division of integer term dicts (raises if not exact)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if b == {(): 1}:
        return dict(a)
    variables = {var for mono in a for var, _ in mono}
    variables.update(var for mono in b for var, _ in mono)
    key = _descending_lex(variables)
    lead_b = min(b, key=key)
    lead_b_coeff = b[lead_b]
    tail = [(mono, coeff) for mono, coeff in b.items() if mono != lead_b]
    current = dict(a)
    heap = _monomial_heap(current, key)
    quotient: Dict[Monomial, int] = {}
    while heap:
        lead = heapq.heappop(heap)[1]
        coeff = current.pop(lead, None)
        if coeff is None:  # stale: cancelled after it was pushed
            continue
        if not _mono_divides(lead_b, lead) or coeff % lead_b_coeff:
            raise ArithmeticError("inexact polynomial division in Bareiss step")
        factor_mono = _mono_div(lead, lead_b)
        factor_coeff = coeff // lead_b_coeff
        quotient[factor_mono] = factor_coeff
        _subtract_shifted(current, heap, key, factor_mono, factor_coeff, tail)
    return quotient


# ----------------------------------------------------------------------
# Multivariate GCD (primitive Euclidean algorithm)
# ----------------------------------------------------------------------
def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor of two polynomials.

    Tries the heuristic evaluation GCD first (:func:`_heuristic_gcd`);
    when it finds no verified divisor, falls back to the primitive
    polynomial remainder sequence, recursing on the number of
    variables.  The remainder sequence's expression swell is bounded by
    a size cap and an overall work budget: if either is exceeded the
    routine gives up and returns 1 (a valid, if trivial, common
    divisor) — callers only use the GCD to *reduce* rational functions,
    so a trivial answer is safe.
    """
    if a.is_zero():
        return _make_primitive_positive(b)
    if b.is_zero():
        return _make_primitive_positive(a)
    if len(a) > _GCD_SIZE_LIMIT or len(b) > _GCD_SIZE_LIMIT:
        return Polynomial.one()
    key = (a, b)
    cached = _GCD_CACHE.get(key)
    if cached is not None:
        return cached
    heuristic = _heuristic_gcd(a, b)
    if heuristic is not None:
        result = _make_primitive_positive(heuristic)
    else:
        budget = _GcdBudget(units=4_000)
        try:
            result = _make_primitive_positive(_gcd_recursive(a, b, 0, budget))
        except _GcdTooLarge:
            result = Polynomial.one()
    if len(_GCD_CACHE) >= _MEMO_LIMIT:
        _GCD_CACHE.clear()
    # The normalised GCD is symmetric in its arguments.
    _GCD_CACHE[key] = result
    _GCD_CACHE[(b, a)] = result
    return result


# ----------------------------------------------------------------------
# Heuristic GCD (GCDHEU, Char–Geddes–Gonnet), poly_gcd's first try
# ----------------------------------------------------------------------
_HEU_GCD_ATTEMPTS = 6
# Evaluation points grow with every variable substituted (about doubling
# in bits per degree-1 variable), so inputs in many variables would
# reach million-digit integers.  Past this size the heuristic gives up
# and poly_gcd falls back to the remainder sequence.  The largest point
# a successful call needed on the random corpus chains was 46,509 bits.
_HEU_GCD_MAX_BITS = 1 << 17


def _heuristic_gcd(a: Polynomial, b: Polynomial):
    """``gcd(a, b)`` by evaluation and ξ-adic reconstruction, or ``None``.

    Both polynomials are cleared to primitive integer coefficients, then
    one variable at a time is replaced by a large integer ξ until only
    integers remain.  The integer GCD is lifted back through the
    balanced base-ξ digits of its coefficients.  Every candidate is
    verified by exact division of both inputs, so a returned polynomial
    is always a true common divisor and, by the usual argument for
    ξ > 2·(coefficient bound), the greatest one.  Intermediate sizes
    grow with the integers' digit counts, not with a remainder
    sequence, which is why it succeeds where the primitive PRS gives up
    on medium-sized multivariate inputs.
    """
    variables = sorted(a.variables() | b.variables())
    found = _heu_gcd(_primitive_integer_terms(a), _primitive_integer_terms(b),
                     variables)
    if found is None:
        return None
    return Polynomial({mono: Fraction(coeff) for mono, coeff in found.items()})


def _primitive_integer_terms(poly: Polynomial) -> Dict[Monomial, int]:
    """``poly`` scaled to coprime integer coefficients."""
    lcm = 1
    for coeff in poly._terms.values():
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    terms = {mono: int(coeff * lcm) for mono, coeff in poly._terms.items()}
    content = _int_content(terms)
    return {mono: coeff // content for mono, coeff in terms.items()}


def _int_content(terms: Dict[Monomial, int]) -> int:
    content = 0
    for coeff in terms.values():
        content = math.gcd(content, coeff)
    return content or 1


def _heu_gcd(f: Dict[Monomial, int], g: Dict[Monomial, int], variables):
    """GCD of nonzero integer term dicts over ``variables``, or ``None``."""
    content_f = _int_content(f)
    content_g = _int_content(g)
    content = math.gcd(content_f, content_g)
    if not variables:
        return {(): content}
    f = {mono: coeff // content_f for mono, coeff in f.items()}
    g = {mono: coeff // content_g for mono, coeff in g.items()}
    var, rest = variables[-1], variables[:-1]
    norm_f = max(abs(coeff) for coeff in f.values())
    norm_g = max(abs(coeff) for coeff in g.values())
    bound = 2 * min(norm_f, norm_g) + 29
    xi = max(
        min(bound, 99 * math.isqrt(bound)),
        2 * min(norm_f // abs(_ground_lead(f)), norm_g // abs(_ground_lead(g)))
        + 2,
    )
    for _ in range(_HEU_GCD_ATTEMPTS):
        if xi.bit_length() > _HEU_GCD_MAX_BITS:
            return None
        at_f = _int_evaluate(f, var, xi)
        at_g = _int_evaluate(g, var, xi)
        if at_f and at_g:
            found = _heu_gcd(at_f, at_g, rest)
            if found is None:
                return None
            # The GCD itself, then either cofactor, may be the one whose
            # digits reconstruct cleanly.
            for value, target in (
                (found, None),
                (_int_quotient(at_f, found), f),
                (_int_quotient(at_g, found), g),
            ):
                if not value:
                    continue
                candidate = _int_primitive(_int_interpolate(value, var, xi))
                if target is not None and candidate:
                    candidate = _int_primitive(
                        _int_quotient(target, candidate) or {}
                    )
                if not candidate:
                    continue
                if (
                    _int_quotient(f, candidate) is not None
                    and _int_quotient(g, candidate) is not None
                ):
                    return {
                        mono: coeff * content for mono, coeff in candidate.items()
                    }
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _ground_lead(terms: Dict[Monomial, int]) -> int:
    """The coefficient of the lexicographically greatest monomial."""
    varlist = sorted({var for mono in terms for var, _ in mono})
    return terms[max(terms, key=lambda mono: _exponent_vector(mono, varlist))]


def _int_evaluate(terms: Dict[Monomial, int], var: str, value: int):
    """Substitute the integer ``value`` for ``var`` (the last variable)."""
    result: Dict[Monomial, int] = {}
    for mono, coeff in terms.items():
        if mono and mono[-1][0] == var:
            rest, exponent = mono[:-1], mono[-1][1]
            coeff = coeff * value**exponent
        else:
            rest = mono
        total = result.get(rest, 0) + coeff
        if total:
            result[rest] = total
        else:
            result.pop(rest, None)
    return result


def _int_interpolate(terms: Dict[Monomial, int], var: str, base: int):
    """Read each coefficient as balanced base-``base`` digits in ``var``."""
    result: Dict[Monomial, int] = {}
    half = base // 2
    for mono, coeff in terms.items():
        exponent = 0
        while coeff:
            digit = coeff % base
            if digit > half:
                digit -= base
            if digit:
                result[mono + ((var, exponent),) if exponent else mono] = digit
            coeff = (coeff - digit) // base
            exponent += 1
    return result


def _int_primitive(terms: Dict[Monomial, int]) -> Dict[Monomial, int]:
    if not terms:
        return terms
    content = _int_content(terms)
    return {mono: coeff // content for mono, coeff in terms.items()}


def _int_quotient(a: Dict[Monomial, int], b: Dict[Monomial, int]):
    """``a / b`` when ``b`` divides ``a`` exactly over the integers."""
    try:
        return _int_exact_div(a, b)
    except ArithmeticError:
        return None


class _GcdBudget:
    """Work budget shared across one poly_gcd call tree."""

    __slots__ = ("units",)

    def __init__(self, units: int):
        self.units = units

    def spend(self, amount: int) -> None:
        self.units -= amount
        if self.units < 0:
            raise _GcdTooLarge


class _GcdTooLarge(Exception):
    """Internal: raised when the PRS exceeds the size cap."""


def _make_primitive_positive(poly: Polynomial) -> Polynomial:
    """Normalise so content is 1 and the leading coefficient is positive."""
    if poly.is_zero():
        return poly
    content = poly.content()
    poly = poly.scaled(1 / content)
    _, lead = poly.leading_term()
    if lead < 0:
        poly = -poly
    return poly


def _gcd_recursive(
    a: Polynomial, b: Polynomial, depth: int, budget: "_GcdBudget"
) -> Polynomial:
    if depth > 16:
        raise _GcdTooLarge
    budget.spend(len(a) + len(b))
    variables = sorted(a.variables() | b.variables())
    if not variables:
        numer = math.gcd(
            abs(a.constant_value().numerator), abs(b.constant_value().numerator)
        )
        return Polynomial.constant(Fraction(numer if numer else 1))
    var = variables[0]
    coeffs_a = _univariate_view(a, var)
    coeffs_b = _univariate_view(b, var)
    content_a = _poly_list_gcd(list(coeffs_a.values()), depth, budget)
    content_b = _poly_list_gcd(list(coeffs_b.values()), depth, budget)
    content = _gcd_recursive(content_a, content_b, depth + 1, budget)
    prim_a = _scale_univariate(coeffs_a, content_a)
    prim_b = _scale_univariate(coeffs_b, content_b)
    # Primitive PRS in `var` over the polynomial ring in the remaining vars.
    u, v = (prim_a, prim_b) if _uni_deg(prim_a) >= _uni_deg(prim_b) else (prim_b, prim_a)
    while any(not c.is_zero() for c in v.values()):
        remainder = _pseudo_remainder(u, v, var)
        work = sum(len(c) for c in remainder.values())
        if work > _GCD_SIZE_LIMIT * 4:
            raise _GcdTooLarge
        budget.spend(work + 1)
        u, v = v, _primitive_univariate(remainder, depth, budget)
    result = _from_univariate(u, var)
    return content * _make_primitive_positive(result)


def _univariate_view(poly: Polynomial, var: str) -> Dict[int, Polynomial]:
    """Rewrite as a map degree-in-var -> coefficient polynomial."""
    coeffs: Dict[int, Dict[Monomial, Fraction]] = {}
    for mono, coeff in poly.terms.items():
        exps = dict(mono)
        deg = exps.pop(var, 0)
        rest = tuple(sorted(exps.items()))
        bucket = coeffs.setdefault(deg, {})
        bucket[rest] = bucket.get(rest, Fraction(0)) + coeff
    return {deg: Polynomial(terms) for deg, terms in coeffs.items()}


def _from_univariate(coeffs: Mapping[int, Polynomial], var: str) -> Polynomial:
    result = Polynomial()
    x = Polynomial.variable(var)
    for deg, coeff in coeffs.items():
        result = result + coeff * x**deg
    return result


def _uni_deg(coeffs: Mapping[int, Polynomial]) -> int:
    degs = [d for d, c in coeffs.items() if not c.is_zero()]
    return max(degs) if degs else -1


def _poly_list_gcd(
    polys: Iterable[Polynomial], depth: int, budget: "_GcdBudget"
) -> Polynomial:
    result = Polynomial.zero()
    for poly in polys:
        result = (
            _gcd_recursive(result, poly, depth + 1, budget)
            if not result.is_zero()
            else poly
        )
        if result == Polynomial.one():
            break
    return result if not result.is_zero() else Polynomial.one()


def _scale_univariate(
    coeffs: Mapping[int, Polynomial], content: Polynomial
) -> Dict[int, Polynomial]:
    if content.is_zero() or content == Polynomial.one():
        return dict(coeffs)
    return {deg: coeff.exact_div(content) for deg, coeff in coeffs.items()}


def _primitive_univariate(
    coeffs: Dict[int, Polynomial], depth: int, budget: "_GcdBudget"
) -> Dict[int, Polynomial]:
    nonzero = [c for c in coeffs.values() if not c.is_zero()]
    if not nonzero:
        return {}
    content = _poly_list_gcd(nonzero, depth, budget)
    return _scale_univariate(
        {d: c for d, c in coeffs.items() if not c.is_zero()}, content
    )


def _pseudo_remainder(
    u: Dict[int, Polynomial], v: Dict[int, Polynomial], var: str
) -> Dict[int, Polynomial]:
    """Pseudo-remainder of u by v, both in univariate view over `var`."""
    deg_v = _uni_deg(v)
    lead_v = v[deg_v]
    current = {d: c for d, c in u.items() if not c.is_zero()}
    while _uni_deg(current) >= deg_v and current:
        deg_u = _uni_deg(current)
        lead_u = current[deg_u]
        shift = deg_u - deg_v
        # current <- lead_v * current - lead_u * x^shift * v
        updated: Dict[int, Polynomial] = {}
        for deg, coeff in current.items():
            updated[deg] = coeff * lead_v
        for deg, coeff in v.items():
            target = deg + shift
            updated[target] = updated.get(target, Polynomial.zero()) - lead_u * coeff
        current = {d: c for d, c in updated.items() if not c.is_zero()}
    return current
