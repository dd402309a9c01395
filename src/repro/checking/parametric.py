"""Parametric model checking by state elimination.

This module plays the role PRISM's parametric engine plays in the paper
(Propositions 2 and 3): given a Markov chain whose transition
probabilities are *rational functions* of repair parameters, it computes

* the reachability probability ``Pr(φ1 U φ2)``, and
* the expected cumulative reward ``R [F φ]``,

as closed-form rational functions of the parameters.  Model Repair and
Data Repair then hand ``f(v) ⋈ b`` to the nonlinear optimiser.

Algorithm: Daws-style state elimination (also used by PARAM and Storm).
Working with a *sub-stochastic* matrix (mass that can never reach the
target is simply dropped), each non-initial, non-target state ``s`` is
eliminated by redirecting every ``u → s → v`` pair through

    p'(u, v) = p(u, v) + p(u, s) · p(s, v) / (1 − p(s, s))

and, for expected rewards, accumulating

    r'(u) = r(u) + p(u, s) · r(s) / (1 − p(s, s)).

The default ``gauss`` engine applies this rule only to the states
whose row is constant, then solves the linear system of the remaining
parametric core by fraction-free Cramer's rule.

The standard *graph-preserving* assumption applies: a transition's
rational function must be structurally nonzero and must stay positive on
the parameter region of interest (the repair formulations guarantee this
through their box constraints, Equation 6).
"""

from __future__ import annotations

import heapq
import logging
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Set, Union

from repro.logic.pctl import (
    And,
    AtomicProposition,
    Eventually,
    FalseFormula,
    Globally,
    Implies,
    Not,
    Or,
    ProbabilisticOperator,
    RewardOperator,
    StateFormula,
    TrueFormula,
    Until,
    check_comparison,
)
from repro.mdp.model import DTMC
from repro.symbolic import Polynomial, RationalFunction, cramer_determinants

State = Hashable
Coefficient = Union[int, float, RationalFunction, Polynomial]

logger = logging.getLogger(__name__)

#: Valid elimination orders for :meth:`ParametricDTMC._eliminate`.
ELIMINATION_ORDERS = ("insertion", "min-degree")

#: Count of symbolic reductions actually performed (state elimination or
#: fraction-free Gauss).  :class:`repro.checking.cache.CheckCache` reuse
#: is asserted against this counter: repeated repairs of an unchanged
#: (model, formula) pair must increment it exactly once.
_ANALYSIS_COUNTER = {"count": 0}


def analysis_count() -> int:
    """How many symbolic reductions have run in this process."""
    return _ANALYSIS_COUNTER["count"]


def _as_rational(value: Coefficient) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    return RationalFunction.constant(value)


def label_satisfaction_set(
    states: Iterable[State],
    labels: Mapping[State, frozenset],
    formula: StateFormula,
) -> FrozenSet[State]:
    """Satisfaction set of a label-only (non-probabilistic) formula.

    Parametric checking requires the path formula's endpoints to be
    boolean combinations of atomic propositions; nested ``P``/``R``
    operators raise ``TypeError``.
    """
    states = list(states)
    if isinstance(formula, TrueFormula):
        return frozenset(states)
    if isinstance(formula, FalseFormula):
        return frozenset()
    if isinstance(formula, AtomicProposition):
        return frozenset(
            s for s in states if formula.name in labels.get(s, frozenset())
        )
    if isinstance(formula, Not):
        return frozenset(states) - label_satisfaction_set(
            states, labels, formula.operand
        )
    if isinstance(formula, And):
        return label_satisfaction_set(
            states, labels, formula.left
        ) & label_satisfaction_set(states, labels, formula.right)
    if isinstance(formula, Or):
        return label_satisfaction_set(
            states, labels, formula.left
        ) | label_satisfaction_set(states, labels, formula.right)
    if isinstance(formula, Implies):
        return (
            frozenset(states) - label_satisfaction_set(states, labels, formula.left)
        ) | label_satisfaction_set(states, labels, formula.right)
    raise TypeError(
        f"parametric checking needs label-only sub-formulas, got {formula!r}"
    )


class ParametricDTMC:
    """A Markov chain whose transitions are rational functions.

    Parameters
    ----------
    states:
        State identifiers.
    transitions:
        ``{source: {target: coefficient}}`` where coefficients may be
        numbers, :class:`Polynomial` or :class:`RationalFunction`.
        Structural zeros are simply omitted.
    initial_state:
        Start state.
    labels:
        Atomic-proposition labelling.
    state_rewards:
        Optional symbolic (or numeric) state rewards.

    Examples
    --------
    >>> from repro.symbolic import Polynomial
    >>> p = Polynomial.variable("p")
    >>> pm = ParametricDTMC(
    ...     states=["a", "b"],
    ...     transitions={"a": {"b": p, "a": 1 - p}, "b": {"b": 1}},
    ...     initial_state="a",
    ...     labels={"b": {"done"}},
    ... )
    >>> f = pm.reachability_probability({"b"})
    >>> f.evaluate({"p": 0.3})
    Fraction(1, 1)
    """

    def __init__(
        self,
        states: Iterable[State],
        transitions: Mapping[State, Mapping[State, Coefficient]],
        initial_state: State,
        labels: Optional[Mapping[State, Iterable[str]]] = None,
        state_rewards: Optional[Mapping[State, Coefficient]] = None,
    ):
        self.states = list(states)
        state_set = set(self.states)
        if initial_state not in state_set:
            raise ValueError(f"unknown initial state {initial_state!r}")
        self.initial_state = initial_state
        self.transitions: Dict[State, Dict[State, RationalFunction]] = {}
        for source in self.states:
            row = transitions.get(source, {})
            symbolic_row = {}
            for target, value in row.items():
                if target not in state_set:
                    raise ValueError(f"unknown target state {target!r}")
                rational = _as_rational(value)
                if not rational.is_zero():
                    symbolic_row[target] = rational
            self.transitions[source] = symbolic_row
        self.labels: Dict[State, frozenset] = {
            s: frozenset((labels or {}).get(s, frozenset())) for s in self.states
        }
        self.state_rewards: Dict[State, RationalFunction] = {
            s: _as_rational((state_rewards or {}).get(s, 0)) for s in self.states
        }

    # ------------------------------------------------------------------
    # Constructors / conversion
    # ------------------------------------------------------------------
    @staticmethod
    def from_dtmc(chain: DTMC) -> "ParametricDTMC":
        """Lift a concrete chain to a (constant) parametric one."""
        return ParametricDTMC(
            states=chain.states,
            transitions={
                s: {t: p for t, p in row.items()}
                for s, row in chain.transitions.items()
            },
            initial_state=chain.initial_state,
            labels=chain.labels,
            state_rewards=chain.state_rewards,
        )

    def parameters(self) -> FrozenSet[str]:
        """All parameter names appearing anywhere in the model."""
        names: Set[str] = set()
        for row in self.transitions.values():
            for function in row.values():
                names |= function.variables()
        for function in self.state_rewards.values():
            names |= function.variables()
        return frozenset(names)

    def instantiate(self, assignment: Mapping[str, float]) -> DTMC:
        """Evaluate every function at ``assignment`` and build a DTMC.

        Raises :class:`~repro.mdp.ModelValidationError` if the assignment
        leaves the well-formed region (negative probabilities or rows not
        summing to 1).
        """
        transitions = {
            s: {t: float(f.evaluate(assignment)) for t, f in row.items()}
            for s, row in self.transitions.items()
        }
        rewards = {
            s: float(f.evaluate(assignment)) for s, f in self.state_rewards.items()
        }
        return DTMC(
            states=self.states,
            transitions=transitions,
            initial_state=self.initial_state,
            labels=self.labels,
            state_rewards=rewards,
        )

    # ------------------------------------------------------------------
    # Parametric analysis
    # ------------------------------------------------------------------
    def reachability_probability(
        self,
        targets: Iterable[State],
        allowed: Optional[Set[State]] = None,
        method: str = "gauss",
        order: str = "min-degree",
        stats: Optional[Dict[str, int]] = None,
    ) -> RationalFunction:
        """``Pr_{s0}(allowed U targets)`` as a rational function.

        ``allowed`` defaults to all states (plain ``F targets``).

        Parameters
        ----------
        method:
            ``"gauss"`` (default) works in two steps.  It first
            eliminates every state whose row is constant (min-degree
            order, see :meth:`_parametric_core`); that only multiplies
            weights by constants, so no entry grows in degree.  It then
            solves the remaining parametric core by fraction-free
            Cramer's rule, whose intermediate degrees stay bounded by
            the core's size.  ``"eliminate"`` is classic Daws state
            elimination of every state; equivalent output, but
            intermediate rational functions can blow up on dense graphs.
        order:
            Elimination order for ``"eliminate"`` (see
            :meth:`_eliminate`); ``"gauss"`` always reduces in
            min-degree order.
        stats:
            Counter sink for the states either method eliminates.
        """
        targets = set(targets)
        if self.initial_state in targets:
            return RationalFunction.one()
        matrix = self._restricted_matrix(targets, allowed)
        if matrix is None:
            return RationalFunction.zero()
        _ANALYSIS_COUNTER["count"] += 1
        rewards = {s: RationalFunction.zero() for s in matrix}
        if method == "gauss":
            matrix, _ = self._parametric_core(matrix, rewards, targets, stats)
            rhs = {}
            for state, row in matrix.items():
                if state in targets:
                    continue
                mass = RationalFunction.zero()
                for target in targets:
                    if target in row:
                        mass = mass + row[target]
                rhs[state] = mass
            return self._cramer_solve(matrix, targets, rhs)
        if method != "eliminate":
            raise ValueError(f"unknown method {method!r}")
        matrix, rewards = self._eliminate(
            matrix, rewards, targets | {self.initial_state}, order=order,
            stats=stats,
        )
        row = matrix[self.initial_state]
        numerator = RationalFunction.zero()
        for target in targets:
            if target in row:
                numerator = numerator + row[target]
        self_loop = row.get(self.initial_state, RationalFunction.zero())
        denominator = RationalFunction.one() - self_loop
        if denominator.is_zero():
            # The initial state's residual self-loop is structurally 1:
            # it is an absorbing non-target state, so no mass ever
            # reaches the targets (sub-stochastic semantics).
            return RationalFunction.zero()
        return numerator / denominator

    def bounded_reachability_probability(
        self,
        targets: Iterable[State],
        steps: int,
        allowed: Optional[Set[State]] = None,
    ) -> RationalFunction:
        """``Pr_{s0}(allowed U≤steps targets)`` as a rational function.

        Computed by ``steps`` symbolic vector-matrix iterations; the
        result's polynomial degree grows with ``steps``, so this is
        meant for modest bounds (the usual case for bounded-time
        properties).
        """
        targets = set(targets)
        if steps < 0:
            raise ValueError("step bound must be non-negative")
        allowed_set = (
            set(self.states) if allowed is None else set(allowed)
        ) - targets
        values: Dict[State, RationalFunction] = {
            s: (RationalFunction.one() if s in targets else RationalFunction.zero())
            for s in self.states
        }
        for _ in range(steps):
            updated: Dict[State, RationalFunction] = {}
            for state in self.states:
                if state in targets:
                    updated[state] = RationalFunction.one()
                elif state in allowed_set:
                    total = RationalFunction.zero()
                    for target, function in self.transitions[state].items():
                        value = values[target]
                        if not value.is_zero():
                            total = total + function * value
                    updated[state] = total
                else:
                    updated[state] = RationalFunction.zero()
            values = updated
        return values[self.initial_state]

    def expected_reward(
        self,
        targets: Iterable[State],
        method: str = "gauss",
        order: str = "min-degree",
        stats: Optional[Dict[str, int]] = None,
    ) -> RationalFunction:
        """``E[cumulative reward until reaching targets]`` symbolically.

        Requires (graph-preserving assumption) that the targets are
        reached with probability 1 from every state that the initial
        state can reach; otherwise the expected reward is infinite and a
        ``ValueError`` is raised.  ``method``, ``order`` and ``stats``
        as in :meth:`reachability_probability`.
        """
        targets = set(targets)
        if self.initial_state in targets:
            return RationalFunction.zero()
        reachable = self._forward_reachable(targets)
        can_reach = self._states_reaching(targets)
        stuck = reachable - can_reach
        if stuck:
            raise ValueError(
                "expected reward is infinite: states "
                f"{sorted(map(str, stuck))} reachable from the initial state "
                "cannot reach the target"
            )
        if self.initial_state not in can_reach:
            raise ValueError("initial state cannot reach the target")
        matrix = self._restricted_matrix(
            targets, allowed=None, reachable=reachable, can_reach=can_reach
        )
        _ANALYSIS_COUNTER["count"] += 1
        rewards = {s: self.state_rewards[s] for s in matrix}
        if method == "gauss":
            matrix, rewards = self._parametric_core(
                matrix, rewards, targets, stats
            )
            rhs = {s: rewards[s] for s in matrix if s not in targets}
            return self._cramer_solve(matrix, targets, rhs)
        if method != "eliminate":
            raise ValueError(f"unknown method {method!r}")
        matrix, rewards = self._eliminate(
            matrix, rewards, targets | {self.initial_state}, order=order,
            stats=stats,
        )
        self_loop = matrix[self.initial_state].get(
            self.initial_state, RationalFunction.zero()
        )
        denominator = RationalFunction.one() - self_loop
        if denominator.is_zero():
            # Absorbing non-target initial state: the target is never
            # reached, so the cumulative reward diverges.
            raise ValueError(
                "expected reward is infinite: the initial state's residual "
                "self-loop is structurally 1 (absorbing non-target state)"
            )
        return rewards[self.initial_state] / denominator

    def _cramer_solve(
        self,
        matrix: Dict[State, Dict[State, RationalFunction]],
        targets: Set[State],
        rhs: Dict[State, RationalFunction],
    ) -> RationalFunction:
        """Solve ``(I − Q)·x = rhs`` for ``x[initial]`` symbolically.

        ``Q`` is the transient-to-transient block of ``matrix``.  Each
        row is cleared to polynomials by multiplying with the product of
        its entries' denominators; the same scaling multiplies both
        Cramer determinants, so the ratio is unaffected.  Both come out
        of one fraction-free pass (:func:`cramer_determinants`).
        """
        transient = [s for s in matrix if s not in targets]
        index = {s: i for i, s in enumerate(transient)}
        n = len(transient)
        poly_rows: list = []
        rhs_polys: list = []
        for state in transient:
            entries: Dict[State, RationalFunction] = {
                t: f for t, f in matrix[state].items() if t in index
            }
            unique_denominators = {
                f.denominator for f in entries.values()
            } | {rhs[state].denominator}
            row_denominator = Polynomial.one()
            for den in unique_denominators:
                if den != Polynomial.one():
                    row_denominator = row_denominator * den
            row = [Polynomial.zero()] * n
            i = index[state]
            row[i] = row_denominator
            for target, function in entries.items():
                scale = row_denominator.exact_div(function.denominator)
                row[index[target]] = row[index[target]] - (
                    function.numerator * scale
                )
            rhs_scale = row_denominator.exact_div(rhs[state].denominator)
            poly_rows.append(row)
            rhs_polys.append(rhs[state].numerator * rhs_scale)
        numerator_det, denominator_det = cramer_determinants(
            poly_rows, rhs_polys, index[self.initial_state]
        )
        if denominator_det.is_zero():
            raise ValueError("singular reachability system")
        return RationalFunction(numerator_det, denominator_det)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _successor_graph(self) -> Dict[State, Set[State]]:
        return {s: set(row) for s, row in self.transitions.items()}

    def _states_reaching(
        self, targets: Set[State], allowed: Optional[Set[State]] = None
    ) -> Set[State]:
        """States with a structural path to the targets via ``allowed``."""
        allowed = set(self.states) if allowed is None else set(allowed)
        predecessors: Dict[State, Set[State]] = {s: set() for s in self.states}
        for source, row in self.transitions.items():
            for target in row:
                predecessors[target].add(source)
        reached = set(targets)
        frontier = list(targets)
        while frontier:
            state = frontier.pop()
            for pred in predecessors[state]:
                if pred not in reached and (pred in allowed or pred in targets):
                    reached.add(pred)
                    frontier.append(pred)
        return reached

    def _forward_reachable(self, targets: Set[State]) -> Set[State]:
        """States reachable from the initial state, stopping at targets."""
        seen = {self.initial_state}
        frontier = [self.initial_state]
        while frontier:
            state = frontier.pop()
            if state in targets:
                continue
            for target in self.transitions[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def _restricted_matrix(
        self,
        targets: Set[State],
        allowed: Optional[Set[State]],
        reachable: Optional[Set[State]] = None,
        can_reach: Optional[Set[State]] = None,
    ) -> Optional[Dict[State, Dict[State, RationalFunction]]]:
        """Sub-stochastic matrix keeping only states that matter.

        Keeps states that are (a) forward-reachable from the initial
        state, (b) able to reach the targets through ``allowed`` states,
        plus the targets themselves (made absorbing).  Returns ``None``
        when the initial state cannot reach the targets at all.
        Callers that already hold the sets of (a) and (b) pass them as
        ``reachable`` / ``can_reach``.
        """
        if can_reach is None:
            can_reach = self._states_reaching(targets, allowed)
        if self.initial_state not in can_reach:
            return None
        if reachable is None:
            reachable = self._forward_reachable(targets)
        keep = (reachable & can_reach) | targets
        if allowed is not None:
            keep = {
                s
                for s in keep
                if s in targets or s in allowed or s == self.initial_state
            }
        matrix: Dict[State, Dict[State, RationalFunction]] = {}
        for state in self.states:
            if state not in keep:
                continue
            if state in targets:
                matrix[state] = {}
                continue
            matrix[state] = {
                target: function
                for target, function in self.transitions[state].items()
                if target in keep
            }
        return matrix

    def _parametric_core(
        self,
        matrix: Dict[State, Dict[State, RationalFunction]],
        rewards: Dict[State, RationalFunction],
        targets: Set[State],
        stats: Optional[Dict[str, int]] = None,
    ):
        """Eliminate every constant-row state (Schur reduction).

        Only the targets, the initial state and the states whose row
        has a non-constant entry survive.  Eliminating a constant row
        multiplies incoming weights by constants, so constant rows stay
        constant and parametric entries never grow in degree; the
        Cramer solve that follows then works on the parametric core
        only.  A chain that is parametric in every row is left as is.
        """
        protected = set(targets) | {self.initial_state}
        for state, row in matrix.items():
            if any(not function.is_constant() for function in row.values()):
                protected.add(state)
        return self._eliminate(
            matrix, rewards, protected, order="min-degree", stats=stats
        )

    @staticmethod
    def _eliminate(
        matrix: Dict[State, Dict[State, RationalFunction]],
        rewards: Dict[State, RationalFunction],
        protected: Set[State],
        order: str = "min-degree",
        stats: Optional[Dict[str, int]] = None,
    ):
        """Eliminate every state not in ``protected``.

        Callers protect the targets and the initial state; every other
        state is removed by the Daws redirection rule.  Any order yields
        the same rational function — the order only changes how large
        the intermediate products grow:

        * ``order="insertion"`` removes states in matrix insertion order
          (the historical behaviour);
        * ``order="min-degree"`` greedily removes the state with the
          fewest predecessor×successor redirection products next — the
          classic fewest-fill-in heuristic.  Degrees live in a lazy
          heap: stale entries (a neighbour's elimination changed the
          degree) are re-pushed with the fresh score on pop, so each
          pick costs O(log n) amortised instead of a linear rescan.

        ``stats``, when given, accumulates ``eliminated`` / ``fill_in``
        / ``absorbed`` counters in place.
        """
        if order not in ELIMINATION_ORDERS:
            raise ValueError(f"unknown elimination order {order!r}")
        one = RationalFunction.one()
        counters = stats if stats is not None else {}
        for name in ("eliminated", "fill_in", "absorbed"):
            counters.setdefault(name, 0)
        predecessors: Dict[State, Set[State]] = {s: set() for s in matrix}
        for source, row in matrix.items():
            for target in row:
                predecessors[target].add(source)

        def degree(state: State) -> int:
            """Redirection products eliminating ``state`` would perform."""
            incoming = len(predecessors[state]) - (
                1 if state in predecessors[state] else 0
            )
            outgoing = len(matrix[state]) - (1 if state in matrix[state] else 0)
            return incoming * outgoing

        def eliminate_state(state: State) -> None:
            row = matrix[state]
            self_loop = row.get(state, RationalFunction.zero())
            denominator = one - self_loop
            counters["eliminated"] += 1
            if denominator.is_zero():
                # Structurally-absorbing state (p(s,s) == 1, e.g. a trap
                # introduced by a repair candidate): no mass ever leaves
                # it, so under sub-stochastic semantics every incoming
                # transition is simply dropped instead of redistributed.
                counters["absorbed"] += 1
                logger.debug(
                    "state elimination: dropping structurally-absorbing "
                    "state %r (%d incoming transition(s) discarded)",
                    state,
                    sum(
                        1
                        for pred in predecessors[state]
                        if pred != state and pred in matrix
                    ),
                )
                for pred in list(predecessors[state]):
                    if pred == state or pred not in matrix:
                        continue
                    matrix[pred].pop(state, None)
                for target in row:
                    predecessors[target].discard(state)
                del matrix[state]
                del predecessors[state]
                return
            factor = one / denominator
            out_edges = {t: f for t, f in row.items() if t != state}
            reward_here = rewards[state]
            for pred in list(predecessors[state]):
                if pred == state or pred not in matrix:
                    continue
                weight = matrix[pred].pop(state, None)
                if weight is None:
                    continue
                through = weight * factor
                rewards[pred] = rewards[pred] + through * reward_here
                for target, function in out_edges.items():
                    existing = matrix[pred].get(target)
                    if existing is None:
                        counters["fill_in"] += 1
                        matrix[pred][target] = through * function
                    else:
                        matrix[pred][target] = existing + through * function
                    predecessors[target].add(pred)
            # The self-loop's reward contribution is already folded into
            # ``factor`` (1 / (1 − p(s, s)) sums the geometric series of
            # revisits); with every predecessor redirected, the state
            # can simply be dropped.
            for target in row:
                predecessors[target].discard(state)
            del matrix[state]
            del predecessors[state]

        if order == "insertion":
            for state in list(matrix):
                if state not in protected:
                    eliminate_state(state)
            return matrix, rewards
        # Lazy min-degree heap.  The tiebreak index keeps the order (and
        # therefore the intermediate representations) deterministic and
        # avoids ever comparing state objects of mixed types.
        tiebreak = {state: position for position, state in enumerate(matrix)}
        heap = [
            (degree(state), tiebreak[state], state)
            for state in matrix
            if state not in protected
        ]
        heapq.heapify(heap)
        while heap:
            score, position, state = heapq.heappop(heap)
            if state not in matrix:
                continue
            current = degree(state)
            if current != score:
                heapq.heappush(heap, (current, position, state))
                continue
            eliminate_state(state)
        return matrix, rewards


class ParametricConstraint:
    """The reduced constraint ``f(v) ⋈ b`` of Propositions 2/3.

    Attributes
    ----------
    function:
        The rational function produced by parametric model checking.
    comparison / bound:
        Taken from the PCTL operator.
    """

    def __init__(self, function: RationalFunction, comparison: str, bound: float):
        self.function = function
        self.comparison = comparison
        self.bound = float(bound)
        self._compiled = None
        self._stacked = None
        self._text = None

    @property
    def _sign(self) -> float:
        """+1 when larger ``f`` helps the margin, −1 when it hurts."""
        return -1.0 if self.comparison in ("<", "<=") else 1.0

    def compiled(self):
        """The lazily-built numpy kernel of ``f`` (cached on the object).

        A :class:`~repro.symbolic.compile.CompiledRationalFunction`
        sharing one term table between ``f`` and all its partial
        derivatives; the NLP layer evaluates margins, batches of start
        points and analytic jacobians through it.  Picklable, so cached
        constraints carry their kernel into the persistent result store
        and warm service runs skip compilation.
        """
        try:
            cached = self._compiled
        except AttributeError:  # unpickled from an older on-disk store
            cached = None
        if cached is None:
            cached = self.function.compiled()
            self._compiled = cached
        return cached

    def text(self) -> str:
        """``str(function)``, built once and kept on the constraint.

        The canonical text keys fused kernels in
        :meth:`~repro.checking.cache.CheckCache.stacked_kernel`; printing
        a large closed form on every solve costs more than the lookup.
        """
        cached = getattr(self, "_text", None)  # absent in older pickles
        if cached is None:
            cached = self._text = str(self.function)
        return cached

    def stacked(self):
        """A one-row stacked kernel for this constraint (cached).

        The margin row ``sign · (f(v) − b)`` as a
        :class:`~repro.symbolic.compile.StackedConstraintKernel`; the
        NLP solver fuses it with sibling constraints' rows (or uses it
        standalone) so SLSQP sees one vector-valued callback.  It is read
        from the :meth:`compiled` table (same arrays, no second
        lowering).  Picklable and cached on the object, so warm stores
        carry it alongside :meth:`compiled`.
        """
        try:
            cached = self._stacked
        except AttributeError:  # unpickled from an older on-disk store
            cached = None
        if cached is None:
            from repro.symbolic.compile import StackedConstraintKernel

            cached = StackedConstraintKernel(
                [(self.function, self._sign, self.bound)]
            )
            self._stacked = cached
        return cached

    def rebound(self, comparison: str, bound: float) -> "ParametricConstraint":
        """The same closed form checked against another comparison/bound.

        Shares ``function`` and the :meth:`compiled` kernel; the
        :meth:`stacked` kernel bakes the bound in, so the copy rebuilds
        it, from the shared table, on first use.  ``self`` when nothing
        changes.
        """
        if comparison == self.comparison and float(bound) == self.bound:
            return self
        other = ParametricConstraint(self.function, comparison, bound)
        other._compiled = self.compiled()
        other._text = getattr(self, "_text", None)
        return other

    def holds_at(self, assignment: Mapping[str, float]) -> bool:
        """Whether the constraint is satisfied at a parameter point."""
        return check_comparison(
            self.comparison, float(self.function.evaluate(assignment)), self.bound
        )

    def margin(self, assignment: Mapping[str, float]) -> float:
        """Signed slack: positive when the constraint holds.

        For ``<``/``<=`` this is ``b − f(v)``; for ``>``/``>=`` it is
        ``f(v) − b`` — the quantity an optimiser must keep non-negative.
        """
        value = float(self.function.evaluate(assignment))
        if self.comparison in ("<", "<="):
            return self.bound - value
        return value - self.bound

    def fast_margin(self, assignment: Mapping[str, float]) -> float:
        """:meth:`margin` through the compiled kernel (float path)."""
        value = self.compiled().evaluate_assignment(assignment)
        return self._sign * (value - self.bound)

    def margin_gradient(self, assignment: Mapping[str, float]) -> Dict[str, float]:
        """Analytic ``∂margin/∂v`` by parameter name (compiled kernel)."""
        sign = self._sign
        partials = self.compiled().gradient_assignment(assignment)
        return {name: sign * value for name, value in partials.items()}

    def margin_batch(self, points, names):
        """Margins at an ``(m, len(names))`` matrix in one vectorized pass.

        ``names`` gives the column order of ``points``; it must cover
        the kernel's parameters.  Rows with a vanishing denominator
        come back non-finite rather than raising.
        """
        import numpy as np

        kernel = self.compiled()
        matrix = np.asarray(points, dtype=float)
        columns = [names.index(name) for name in kernel.params]
        values = kernel.evaluate_batch(matrix[:, columns])
        return self._sign * (values - self.bound)

    def __repr__(self) -> str:
        return f"ParametricConstraint(f {self.comparison} {self.bound})"


def parametric_constraint(
    model: ParametricDTMC,
    formula: StateFormula,
    method: str = "gauss",
    order: str = "min-degree",
    stats: Optional[Dict[str, int]] = None,
) -> ParametricConstraint:
    """Reduce ``model |= formula`` to a rational constraint.

    Supports the non-nested PCTL fragment of the paper's repairs:
    ``P ⋈ b [φ1 U φ2]`` (incl. ``F``), ``P ⋈ b [G φ]`` via its dual, and
    ``R ⋈ b [F φ]``, where ``φ1``, ``φ2``, ``φ`` are label-only formulas.
    ``method``, ``order`` and ``stats`` as in
    :meth:`ParametricDTMC.reachability_probability` (step-bounded paths
    iterate the transition matrix instead and ignore all three).
    """
    if isinstance(formula, ProbabilisticOperator):
        path = formula.path
        if isinstance(path, Globally):
            inner = label_satisfaction_set(model.states, model.labels, path.operand)
            complement = set(model.states) - set(inner)
            if path.step_bound is None:
                reach_bad = model.reachability_probability(
                    complement, method=method, order=order, stats=stats
                )
            else:
                reach_bad = model.bounded_reachability_probability(
                    complement, path.step_bound
                )
            return ParametricConstraint(
                RationalFunction.one() - reach_bad,
                formula.comparison,
                formula.bound,
            )
        if isinstance(path, Until):
            left = label_satisfaction_set(model.states, model.labels, path.left)
            right = label_satisfaction_set(model.states, model.labels, path.right)
            if path.step_bound is None:
                function = model.reachability_probability(
                    right, allowed=set(left), method=method, order=order,
                    stats=stats,
                )
            else:
                function = model.bounded_reachability_probability(
                    right, path.step_bound, allowed=set(left)
                )
            return ParametricConstraint(function, formula.comparison, formula.bound)
        raise TypeError(f"unsupported parametric path formula {path!r}")
    if isinstance(formula, RewardOperator):
        targets = label_satisfaction_set(
            model.states, model.labels, formula.path.right
        )
        function = model.expected_reward(
            targets, method=method, order=order, stats=stats
        )
        return ParametricConstraint(function, formula.comparison, formula.bound)
    raise TypeError(
        "parametric checking expects a top-level P or R operator, "
        f"got {formula!r}"
    )


def restricted_model(
    model: ParametricDTMC, restriction: Iterable[State]
) -> ParametricDTMC:
    """Sub-stochastic truncation of ``model`` to the ``restriction`` states.

    Keeps only the restriction states (plus the initial state) and drops
    every transition into a dropped state, so row sums may fall below 1:
    the dropped mass escapes the truncation and contributes nothing to
    reachability or reward.  That makes the truncation an
    *under-approximation* — the foundation of counterexample-guided
    localization, where eliminating only the evidence-touched subchain
    stands in for the (much larger) full elimination.
    """
    keep = set(restriction) | {model.initial_state}
    states = [state for state in model.states if state in keep]
    transitions = {
        state: {
            target: function
            for target, function in model.transitions[state].items()
            if target in keep
        }
        for state in states
    }
    return ParametricDTMC(
        states=states,
        transitions=transitions,
        initial_state=model.initial_state,
        labels={state: model.labels[state] for state in states},
        state_rewards={state: model.state_rewards[state] for state in states},
    )


def _validate_restriction_direction(
    model: ParametricDTMC, formula: StateFormula
) -> None:
    """Reject formula shapes whose truth is not preserved by truncation.

    Truncation *under*-approximates reachability probability and (for
    non-negative rewards) expected reward, so an upper bound on the
    truncation is a necessary condition — a relaxation — of the full
    constraint.  Lower bounds and ``G`` (whose value truncation
    over-approximates) would flip into unsound strengthenings.
    """
    if formula.comparison not in ("<", "<="):
        raise ValueError(
            "restricted elimination relaxes upper-bound formulas only; a "
            "lower bound on the truncated under-approximation would "
            "unsoundly strengthen the constraint"
        )
    if isinstance(formula, ProbabilisticOperator):
        if not isinstance(formula.path, Until):
            raise ValueError(
                "restricted elimination supports until/eventually paths "
                "only (G is over-approximated by truncation)"
            )
        return
    if isinstance(formula, RewardOperator):
        for state, reward in model.state_rewards.items():
            if reward.variables():
                raise ValueError(
                    "restricted elimination needs constant state rewards "
                    f"(reward of {state!r} is parametric)"
                )
            if float(reward.evaluate({})) < 0.0:
                raise ValueError(
                    "restricted elimination needs non-negative state "
                    f"rewards (reward of {state!r} is negative)"
                )
        return
    raise TypeError(
        "restricted elimination expects a top-level P or R operator, "
        f"got {formula!r}"
    )


class EliminationSnapshot:
    """A resumable partial elimination of a truncated corridor.

    Produced by :func:`corridor_elimination`: the partially eliminated
    sub-stochastic matrix (interior states removed, frontier states
    protected), the accumulated rewards, and enough identity — model
    fingerprint, formula, elimination order, kept-state set — to decide
    whether a later, wider corridor may resume from it.  Picklable, so
    :class:`~repro.checking.cache.CheckCache` can persist snapshots to
    its backing store and same-fingerprint jobs in other processes warm
    start from them.

    Soundness of resumption: only *interior* states — every admissible
    full-model successor **and** predecessor inside the kept set — are
    eliminated into a snapshot.  Eliminating an interior state never
    reads or writes an edge incident to a state outside the corridor,
    and corridors only ever grow, so a state interior to a corridor is
    interior to every wider one; the edges a wider corridor re-admits
    run exclusively between surviving states, and splicing them in
    afterwards commutes with the eliminations already performed.
    """

    def __init__(
        self,
        matrix: Dict[State, Dict[State, RationalFunction]],
        rewards: Dict[State, RationalFunction],
        eliminated: Iterable[State],
        kept: Iterable[State],
        fingerprint: str,
        formula: StateFormula,
        order: str,
    ):
        self.matrix = {s: dict(row) for s, row in matrix.items()}
        self.rewards = dict(rewards)
        self.eliminated = frozenset(eliminated)
        self.kept = frozenset(kept)
        self.fingerprint = fingerprint
        self.formula = formula
        self.order = order

    def resumes(
        self, fingerprint: str, formula: StateFormula, order: str, kept: Set[State]
    ) -> bool:
        """Whether a corridor ``kept`` of the same reduction may resume here."""
        return (
            self.fingerprint == fingerprint
            and self.formula == formula
            and self.order == order
            and self.kept <= kept
        )

    def __repr__(self) -> str:
        return (
            f"EliminationSnapshot(kept={len(self.kept)}, "
            f"eliminated={len(self.eliminated)})"
        )


def _corridor_value_sets(model: ParametricDTMC, formula: StateFormula):
    """(targets, allowed, reward_mode) for a validated corridor formula."""
    if isinstance(formula, ProbabilisticOperator):
        path = formula.path  # _validate guarantees an Until/Eventually
        targets = set(
            label_satisfaction_set(model.states, model.labels, path.right)
        )
        allowed = set(
            label_satisfaction_set(model.states, model.labels, path.left)
        )
        return targets, allowed, False
    targets = set(
        label_satisfaction_set(model.states, model.labels, formula.path.right)
    )
    return targets, None, True


def corridor_elimination(
    model: ParametricDTMC,
    formula: StateFormula,
    restriction: Iterable[State],
    snapshot: Optional[EliminationSnapshot] = None,
    order: str = "min-degree",
    stats: Optional[Dict[str, int]] = None,
):
    """Eliminate the truncated corridor, resuming from ``snapshot``.

    Computes the same closed form as ``parametric_constraint(
    restricted_model(model, restriction), formula)`` — identical value
    at every parameter point — but by order-aware state elimination,
    and *incrementally*: interior corridor states (all admissible
    full-model neighbours inside the corridor) are eliminated into a
    reusable :class:`EliminationSnapshot`, frontier states stay
    protected, and a compatible snapshot of a narrower corridor seeds
    the matrix so only newly admitted states (plus their fill-in
    neighbourhood and the frontier) are worked on.

    Returns ``(constraint, snapshot)``.  The snapshot is ``None`` when
    there is nothing to resume: step-bounded paths (a fixed number of
    symbolic iterations, no elimination) and corridors whose truncated
    probability is structurally zero or one.

    ``stats``, when given, additionally accumulates the
    :meth:`ParametricDTMC._eliminate` counters plus ``resumed`` (1 when
    a snapshot was actually reused).
    """
    _validate_restriction_direction(model, formula)
    counters = stats if stats is not None else {}
    if (
        isinstance(formula, ProbabilisticOperator)
        and formula.path.step_bound is not None
    ):
        # Bounded until needs no elimination — nothing to snapshot.
        constraint = parametric_constraint(
            restricted_model(model, restriction), formula
        )
        return constraint, None
    targets, allowed, reward_mode = _corridor_value_sets(model, formula)
    initial = model.initial_state
    if initial in targets:
        value = (
            RationalFunction.zero() if reward_mode else RationalFunction.one()
        )
        return (
            ParametricConstraint(value, formula.comparison, formula.bound),
            None,
        )
    state_set = set(model.states)
    kept = (set(restriction) & state_set) | {initial}
    if allowed is not None:
        kept = {
            s for s in kept if s in targets or s in allowed or s == initial
        }
    kept_targets = targets & kept

    # Structural pre-checks on the truncation, mirroring the scratch
    # paths (`_restricted_matrix` / `expected_reward`) exactly.
    rows = {
        s: [t for t in model.transitions[s] if t in kept] for s in kept
    }
    preds: Dict[State, list] = {s: [] for s in kept}
    for s, succs in rows.items():
        for t in succs:
            preds[t].append(s)
    can_reach = set(kept_targets)
    stack = list(kept_targets)
    while stack:
        s = stack.pop()
        for u in preds[s]:
            if u in can_reach:
                continue
            if allowed is not None and u not in allowed and u not in targets:
                continue
            can_reach.add(u)
            stack.append(u)
    if reward_mode:
        seen = {initial}
        stack = [initial]
        while stack:
            s = stack.pop()
            if s in targets:
                continue
            for t in rows[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        stuck = seen - can_reach
        if stuck:
            raise ValueError(
                "expected reward is infinite: states "
                f"{sorted(map(str, stuck))} reachable from the initial state "
                "cannot reach the target"
            )
        if initial not in can_reach:
            raise ValueError("initial state cannot reach the target")
    elif initial not in can_reach:
        # No allowed corridor path from the initial state to a target:
        # the truncated probability is structurally zero.
        return (
            ParametricConstraint(
                RationalFunction.zero(), formula.comparison, formula.bound
            ),
            None,
        )

    from repro.checking.cache import parametric_fingerprint

    fingerprint = parametric_fingerprint(model)
    zero = RationalFunction.zero()

    def fresh_row(s: State) -> Dict[State, RationalFunction]:
        if s in targets:
            return {}
        return {t: f for t, f in model.transitions[s].items() if t in kept}

    if snapshot is not None and snapshot.resumes(
        fingerprint, formula, order, kept
    ):
        matrix = {s: dict(row) for s, row in snapshot.matrix.items()}
        rewards = dict(snapshot.rewards)
        eliminated = set(snapshot.eliminated)
        new_states = kept - snapshot.kept
        for s in new_states:
            matrix[s] = fresh_row(s)
            rewards[s] = model.state_rewards[s] if reward_mode else zero
        # Re-admit the edges the narrower corridor truncated: surviving
        # old states may point at newly admitted ones.  (Eliminated
        # states were interior — they had no such edges.)
        for s in snapshot.kept - eliminated:
            if s in targets:
                continue
            row = model.transitions[s]
            for t in new_states:
                if t in row:
                    matrix[s][t] = row[t]
        counters["resumed"] = counters.get("resumed", 0) + 1
    else:
        matrix = {s: fresh_row(s) for s in kept}
        rewards = {
            s: (model.state_rewards[s] if reward_mode else zero) for s in kept
        }
        eliminated = set()

    # Frontier: corridor states with an admissible full-model neighbour
    # outside the corridor.  A wider corridor may re-admit their edges,
    # so they must survive into the snapshot; everything else is
    # interior and safe to eliminate once and for all.
    admissible = state_set if allowed is None else (allowed | targets | {initial})
    full_preds: Dict[State, Set[State]] = {}
    for s, row in model.transitions.items():
        for t in row:
            full_preds.setdefault(t, set()).add(s)
    snapshot_protected = {initial} | kept_targets
    for s in kept:
        if s in snapshot_protected or s in eliminated:
            continue
        boundary = any(
            t not in kept and t in admissible for t in model.transitions[s]
        ) or any(
            u not in kept and u in admissible for u in full_preds.get(s, ())
        )
        if boundary:
            snapshot_protected.add(s)

    _ANALYSIS_COUNTER["count"] += 1
    before = set(matrix)
    ParametricDTMC._eliminate(
        matrix, rewards, snapshot_protected, order=order, stats=counters
    )
    eliminated |= before - set(matrix)
    produced = EliminationSnapshot(
        matrix, rewards, eliminated, kept, fingerprint, formula, order
    )

    # Finish on a copy: fold the protected frontier down to the initial
    # state and the targets for the closed form, leaving the snapshot
    # resumable.
    final_matrix = {s: dict(row) for s, row in matrix.items()}
    final_rewards = dict(rewards)
    ParametricDTMC._eliminate(
        final_matrix,
        final_rewards,
        {initial} | kept_targets,
        order=order,
        stats=counters,
    )
    row = final_matrix[initial]
    self_loop = row.get(initial, zero)
    denominator = RationalFunction.one() - self_loop
    if reward_mode:
        if denominator.is_zero():
            raise ValueError(
                "expected reward is infinite: the initial state's residual "
                "self-loop is structurally 1 (absorbing non-target state)"
            )
        function = final_rewards[initial] / denominator
    else:
        numerator = zero
        for t in kept_targets:
            if t in row:
                numerator = numerator + row[t]
        function = zero if denominator.is_zero() else numerator / denominator
    constraint = ParametricConstraint(function, formula.comparison, formula.bound)
    return constraint, produced


def restricted_constraint(
    model: ParametricDTMC,
    formula: StateFormula,
    restriction: Iterable[State],
    cache=None,
    order: str = "min-degree",
    snapshot: Optional[EliminationSnapshot] = None,
    with_snapshot: bool = False,
):
    """Eliminate only the ``restriction`` subchain of ``model |= formula``.

    Returns the :class:`ParametricConstraint` of the sub-stochastic
    truncation (see :func:`restricted_model`) — a *relaxation* of the
    full constraint: every assignment satisfying the full formula
    satisfies it, so adding it to a repair never cuts off true repairs,
    and its infeasibility implies the full problem's.  The reduction is
    performed by :func:`corridor_elimination` with the given ``order``
    and is memoized through
    :class:`~repro.checking.cache.CheckCache` under the model
    fingerprint plus the sorted corridor, so re-localizing the same
    evidence subchain is free — in this process or, with a persistent
    backing, across processes.

    ``snapshot`` seeds an incremental re-elimination when it matches a
    narrower corridor of the same reduction; ``with_snapshot=True``
    returns ``(constraint, snapshot)`` so callers (the CEGIS loop) can
    thread the partial elimination into the next, wider corridor.

    Raises ``ValueError`` for directions truncation does not preserve:
    lower bounds, ``G`` paths, and parametric or negative rewards.
    """
    _validate_restriction_direction(model, formula)
    from repro.checking.cache import get_cache

    constraint, produced = get_cache(cache).corridor_constraint(
        model, formula, restriction, order=order, snapshot=snapshot
    )
    if with_snapshot:
        return constraint, produced
    return constraint
