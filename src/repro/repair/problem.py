"""Declarative repair problems.

A :class:`RepairProblem` is the common shape behind Propositions 1–4:
decision variables, a pluggable cost (:mod:`repro.core.costs`),
parametric side conditions ``M_Z |= φ`` awaiting state elimination,
extra rational/box constraints, and five flavour hooks (pre-check,
region check, instantiate, verify, ε-bound).  The flavour modules *build* problems;
:func:`repro.repair.engine.solve_repair` runs them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.checking.cache import CheckCache, cached_check, get_cache
from repro.checking.parametric import ParametricConstraint, ParametricDTMC
from repro.logic.pctl import StateFormula
from repro.optimize import Constraint, Variable, constraint_from_parametric

#: Default relative margin keeping NLP solutions strictly inside the
#: feasible region so the exact concrete re-check cannot fail by a
#: rounding hair (see :func:`repro.optimize.constraint_from_parametric`).
DEFAULT_SAFETY_MARGIN = 1e-6


class ParametricSpec:
    """One ``model |= formula`` side condition awaiting elimination.

    The reduction to a rational constraint is memoised through
    :class:`~repro.checking.cache.CheckCache` — content-identical
    (model, formula, method) triples are eliminated once per process
    (or once per *store* when the cache has a persistent backing).
    """

    def __init__(
        self,
        model: ParametricDTMC,
        formula: StateFormula,
        method: str = "gauss",
    ):
        #: A :class:`ParametricDTMC`, or a zero-argument thunk building
        #: one (for flavours that lift lazily, e.g. Data Repair's
        #: parametric MLE model).
        self.model = model
        self.formula = formula
        self.method = method

    def resolve_model(self) -> ParametricDTMC:
        """The parametric model, building it if given as a thunk."""
        return self.model() if callable(self.model) else self.model

    def reduced(self, cache: Optional[CheckCache] = None) -> ParametricConstraint:
        """The memoised closed form ``f(v) ⋈ b`` (Proposition 2)."""
        return get_cache(cache).parametric_constraint(
            self.resolve_model(), self.formula, self.method
        )


class RepairProblem:
    """Variables + constraints + cost + flavour hooks; solver-ready.

    Parameters
    ----------
    variables:
        The repair parameters (:class:`repro.optimize.Variable`).
    cost:
        The objective over the variable assignment: a callable, or a
        named cost from :data:`repro.core.costs.NAMED_COSTS`.
    name:
        Short tag used in constraint names and diagnostics.
    parametric:
        :class:`ParametricSpec` side conditions (or already-reduced
        :class:`ParametricConstraint` objects) adapted into solver
        constraints with ``safety_margin``.
    constraints:
        Extra :class:`repro.optimize.Constraint` objects used verbatim
        (row-sum bounds, Q-value margins, …).
    original / formula:
        When both are given, the driver's already-satisfied pre-check
        and the post-solve verification default to
        :func:`repro.checking.cache.cached_check` on them — the DTMC/MDP
        path.  Flavours over other artifacts supply ``check``/``verify``
        instead.
    check:
        Zero-argument pre-check hook; ``True`` short-circuits the solve.
    region:
        Zero-argument region check: a
        :class:`~repro.repair.region.RegionProof` when no point of the
        repair region can satisfy the requirement (the engine then
        answers ``infeasible`` without eliminating or solving), else
        ``None``.
    instantiate:
        ``assignment -> artifact`` (repaired chain, θ′, CTMC, …).
    verify:
        ``artifact -> bool`` concrete re-verification hook.
    epsilon:
        ``artifact -> float`` bound computation (Proposition 1's
        ε-bisimulation for Model Repair); 0.0 when absent.
    instantiate_when_infeasible:
        Build the artifact even at an infeasible solver point (Reward
        Repair reports the least-infeasible θ′ for diagnostics).
    already_satisfied_message / no_variable_message:
        Messages for the two short-circuit outcomes.
    cache / engine:
        Memo (``None`` selects the process-wide cache) and numeric
        engine for the default check/verify paths.
    """

    def __init__(
        self,
        *,
        variables: Sequence[Variable],
        cost,
        name: str = "repair",
        parametric: Sequence = (),
        constraints: Sequence[Constraint] = (),
        safety_margin: float = DEFAULT_SAFETY_MARGIN,
        original=None,
        formula: Optional[StateFormula] = None,
        check: Optional[Callable[[], bool]] = None,
        region: Optional[Callable] = None,
        instantiate: Optional[Callable] = None,
        verify: Optional[Callable] = None,
        epsilon: Optional[Callable] = None,
        instantiate_when_infeasible: bool = False,
        already_satisfied_message: str = "requirement already satisfied",
        no_variable_message: str = "repair problem has no free variables",
        cache: Optional[CheckCache] = None,
        engine: str = "sparse",
    ):
        self.variables = list(variables)
        self.cost = _resolve_cost(cost)
        #: Analytic gradient of the cost (``None`` for non-smooth costs;
        #: the NLP then finite-differences the objective as before).
        self.cost_gradient = _resolve_cost_gradient(cost)
        self.name = name
        self.parametric = list(parametric)
        self.constraints = list(constraints)
        self.safety_margin = safety_margin
        self.original = original
        self.formula = formula
        self.check = check
        self.region = region
        self.instantiate = instantiate
        self.verify = verify
        self.epsilon = epsilon
        self.instantiate_when_infeasible = instantiate_when_infeasible
        self.already_satisfied_message = already_satisfied_message
        self.no_variable_message = no_variable_message
        self.cache = cache
        self.engine = engine

    # ------------------------------------------------------------------
    # Pieces the driver consumes
    # ------------------------------------------------------------------
    def initial_assignment(self) -> dict:
        """Every variable at its start value (the identity repair)."""
        return {v.name: float(v.initial) for v in self.variables}

    def parametric_constraints(self) -> List[ParametricConstraint]:
        """The reduced closed forms of every parametric side condition.

        Memoised per problem instance: the driver consumes the list
        twice per solve (fused kernel + solver constraints), and even a
        CheckCache hit pays a content fingerprint over the symbolic
        transition matrix, which is measurable on warm repairs.
        """
        if getattr(self, "_reduced", None) is None:
            self._reduced = [
                spec.reduced(self.cache)
                if isinstance(spec, ParametricSpec)
                else spec
                for spec in self.parametric
            ]
        return list(self._reduced)

    def solver_constraints(self) -> List[Constraint]:
        """All NLP constraints: adapted parametric ones + extras."""
        adapted = [
            constraint_from_parametric(
                reduced,
                name=f"{self.name}-pctl-{index}",
                safety_margin=self.safety_margin,
            )
            for index, reduced in enumerate(self.parametric_constraints())
        ]
        return adapted + self.constraints

    def stacked_kernel(self):
        """One fused kernel over every parametric constraint (memoised).

        The rows of the
        :class:`~repro.symbolic.compile.StackedConstraintKernel` follow
        :meth:`parametric_constraints` order — the same order
        :meth:`solver_constraints` adapts them in, which is what lets
        :meth:`NonlinearProgram.solve` line the kernel rows up with the
        stackable constraints.  Memoised through the problem's
        :class:`~repro.checking.cache.CheckCache`, so same-fingerprint
        service jobs (and warm stores) share one compiled stack.
        Returns ``None`` when there are no parametric constraints.
        """
        reduced = self.parametric_constraints()
        if not reduced:
            return None
        return get_cache(self.cache).stacked_kernel(reduced)

    # ------------------------------------------------------------------
    # Hook dispatch (with the DTMC/MDP defaults)
    # ------------------------------------------------------------------
    def run_check(self) -> bool:
        """Whether the requirement already holds without any repair."""
        if self.check is not None:
            return bool(self.check())
        if self.original is not None and self.formula is not None:
            return cached_check(
                self.original, self.formula, engine=self.engine, cache=self.cache
            ).holds
        return False

    def run_region(self):
        """A proof that the repair region holds no repair (``None`` if
        no hook or the check is inconclusive)."""
        if self.region is None:
            return None
        return self.region()

    def run_instantiate(self, assignment):
        """The repaired artifact at ``assignment`` (``None`` if no hook)."""
        if self.instantiate is None:
            return None
        return self.instantiate(assignment)

    def run_verify(self, artifact) -> bool:
        """Concrete re-verification of the repaired artifact."""
        if self.verify is not None:
            return bool(self.verify(artifact))
        if self.formula is not None and artifact is not None:
            return cached_check(
                artifact, self.formula, engine=self.engine, cache=self.cache
            ).holds
        return True

    def run_epsilon(self, artifact) -> float:
        """The flavour's post-repair bound (0.0 when not defined)."""
        if self.epsilon is None or artifact is None:
            return 0.0
        return float(self.epsilon(artifact))


def _resolve_cost(cost):
    # Lazy import: repro.core imports the flavour modules, which import
    # this package — resolving at construction time avoids the cycle.
    from repro.core.costs import resolve_cost

    return resolve_cost(cost)


def _resolve_cost_gradient(cost):
    from repro.core.costs import resolve_cost_gradient

    return resolve_cost_gradient(cost)
