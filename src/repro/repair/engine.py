"""The single repair driver.

Every repair flavour used to re-implement the same steps; they now
live here exactly once:

1. **already-satisfied short-circuit** — concrete pre-check of the
   original artifact (memoised);
2. **region check** — the flavour's ``region`` hook bounds the checked
   quantity over the whole repair region
   (:mod:`repro.repair.region`); a proved infeasibility returns before
   any elimination, kernel compilation or NLP solve;
3. **cached parametric elimination** — each
   :class:`~repro.repair.problem.ParametricSpec` reduces to a rational
   constraint through the :class:`~repro.checking.cache.CheckCache`;
4. **multi-start NLP solve** — :class:`repro.optimize.NonlinearProgram`
   over the problem's variables, cost and constraints;
5. **concrete re-verification** — instantiate the artifact at the
   solution and re-check it exactly;
6. **ε-bound computation** — the flavour's post-repair bound
   (Proposition 1's ε-bisimulation for Model Repair).

The driver returns a neutral :class:`EngineOutcome`; flavour builders
wrap it into their public result classes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.checking.cache import get_cache
from repro.optimize import NonlinearProgram

from repro.repair.problem import RepairProblem

_ELIMINATION_STAT_KEYS = (
    "elimination_states",
    "elimination_fill_in",
    "elimination_reuse_hits",
    "elimination_ms",
)


def _elimination_deltas(before: Dict[str, int], after: Dict[str, int]):
    """Nonzero elimination-counter movement between two cache snapshots."""
    return {
        key: int(after.get(key, 0) - before.get(key, 0))
        for key in _ELIMINATION_STAT_KEYS
        if after.get(key, 0) != before.get(key, 0)
    }


class EngineOutcome:
    """What :func:`solve_repair` hands back to the flavour builders."""

    def __init__(
        self,
        status: str,
        assignment: Dict[str, float],
        objective_value: float,
        artifact=None,
        epsilon: float = 0.0,
        verified: bool = False,
        message: str = "",
        solver_stats: Optional[Dict[str, int]] = None,
        proof=None,
    ):
        self.status = status
        self.assignment = dict(assignment)
        self.objective_value = objective_value
        self.artifact = artifact
        self.epsilon = epsilon
        self.verified = verified
        self.message = message
        self.solver_stats = dict(solver_stats or {})
        #: The :class:`~repro.repair.region.RegionProof` behind a proved
        #: ``infeasible`` (``None`` for every other outcome).
        self.proof = proof

    def __repr__(self) -> str:
        return (
            f"EngineOutcome(status={self.status!r}, "
            f"objective={self.objective_value:.6g}, "
            f"verified={self.verified})"
        )


def solve_repair(
    problem: RepairProblem,
    extra_starts: int = 8,
    seed: int = 0,
) -> EngineOutcome:
    """Run the full repair pipeline on a declarative problem.

    The NLP solve reads every parametric constraint through one
    CheckCache-memoized
    :class:`~repro.symbolic.compile.StackedConstraintKernel` (warm store
    = zero compilations).
    """
    cache = get_cache(problem.cache)
    stats_before = cache.stats()
    if problem.run_check():
        return EngineOutcome(
            status="already_satisfied",
            assignment=problem.initial_assignment(),
            objective_value=0.0,
            artifact=problem.original,
            epsilon=0.0,
            verified=True,
            message=problem.already_satisfied_message,
        )
    if not problem.variables:
        return EngineOutcome(
            status="infeasible",
            assignment={},
            objective_value=0.0,
            message=problem.no_variable_message,
        )
    proof = problem.run_region()
    if proof is not None:
        return EngineOutcome(
            status="infeasible",
            assignment={},
            objective_value=0.0,
            message=proof.describe(),
            proof=proof,
        )
    program = NonlinearProgram(
        variables=problem.variables,
        objective=problem.cost,
        objective_gradient=problem.cost_gradient,
        constraints=problem.solver_constraints(),
    )
    solved = program.solve(
        extra_starts=extra_starts,
        seed=seed,
        stacked=problem.stacked_kernel(),
    )
    if not solved.feasible:
        artifact = (
            problem.run_instantiate(solved.assignment)
            if problem.instantiate_when_infeasible
            else None
        )
        stats = dict(solved.solver_stats)
        stats.update(_elimination_deltas(stats_before, cache.stats()))
        return EngineOutcome(
            status="infeasible",
            assignment=solved.assignment,
            objective_value=solved.objective_value,
            artifact=artifact,
            message=solved.message,
            solver_stats=stats,
        )
    artifact = problem.run_instantiate(solved.assignment)
    stats = dict(solved.solver_stats)
    stats.update(_elimination_deltas(stats_before, cache.stats()))
    return EngineOutcome(
        status="repaired",
        assignment=solved.assignment,
        objective_value=solved.objective_value,
        artifact=artifact,
        epsilon=problem.run_epsilon(artifact),
        verified=problem.run_verify(artifact),
        message=solved.message,
        solver_stats=stats,
    )
