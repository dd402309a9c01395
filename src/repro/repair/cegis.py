"""Counterexample-guided inductive repair (the sixth flavour).

Every other repair materializes *one* global constraint by eliminating
the full parametric chain — fine at the paper's 17-variable WSN
instances, hopeless at hundreds of variables, where elimination cost
dominates the solve.  Following "Model Repair Revamped" (Češka, Dehnert,
Jansen, Junges, Katoen), :class:`CegisRepair` never builds the global
constraint up front.  Instead it grows a working set of *local*
constraints driven by counterexamples:

0. **region check** — once, on the full problem: the base problem's
   ``region`` hook (:mod:`repro.repair.region`) bounds the property
   over the whole repair region; a proved infeasibility returns before
   any localization;
1. **concrete check** — model-check the current candidate's concrete
   chain with the sparse engine (memoised);
2. **localize** — on violation, extract a smallest counterexample
   (:mod:`repro.checking.counterexample`) and eliminate only the
   evidence-touched subchain via
   :func:`repro.checking.parametric.restricted_constraint` — a
   sub-stochastic truncation whose constraint is a *relaxation* of the
   full one (sound: it never cuts off true repairs);
3. **re-solve** — add the local constraint to the working set and run
   the shared :func:`~repro.repair.engine.solve_repair` NLP over it;
4. **tighten** — when the candidate still violates the *full* formula
   and the last elimination was already expensive (past
   ``tighten_after_seconds``), steer the newest local constraint's
   bound onto the boundary proportionally to the observed overshoot
   (cheap re-solves, no new elimination) instead of paying an even
   costlier elimination over a wider corridor;
5. **iterate** — the engine's own concrete re-verification decides
   termination; otherwise the violating artifact seeds the next
   counterexample.

Progress is guaranteed per iteration: a localized constraint is only
accepted when it *cuts off* the current candidate (its margin there is
negative — always true for a complete counterexample, whose evidence
mass already exceeds the bound inside the truncation); when evidence
cannot be localized (budget-cut search, unsupported direction such as
``G`` or lower bounds, parametric rewards) the loop degrades to the
global elimination for that iteration and records the fallback — never
a silent wrong answer.

See ``docs/cegis_repair.md`` for the soundness argument and scaling
numbers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Set

from repro.checking.cache import cached_check, get_cache
from repro.checking.counterexample import counterexample, strongest_evidence_paths
from repro.checking.parametric import (
    EliminationSnapshot,
    ParametricConstraint,
    label_satisfaction_set,
    restricted_constraint,
)
from repro.logic.pctl import ProbabilisticOperator, RewardOperator, Until
from repro.mdp.model import DTMC
from repro.repair.engine import solve_repair
from repro.repair.problem import ParametricSpec
from repro.repair.region import RegionProof
from repro.repair.results import RepairResult

#: Default bound on check → localize → solve rounds.
DEFAULT_MAX_ITERATIONS = 10
#: Default path cap handed to the counterexample searches.
DEFAULT_MAX_COUNTEREXAMPLE_PATHS = 10_000
#: Default prefix-expansion budget for the counterexample searches.
DEFAULT_MAX_EXPANSIONS = 200_000
#: Default bound on inner bound-tightening re-solves per iteration.
DEFAULT_MAX_TIGHTENINGS = 6
#: Elimination wall-clock past which the loop stops widening the
#: corridor and steers the newest constraint's bound instead.  Below
#: it, corridor growth is cheap and converges to the *exact* global
#: optimum; past it, each further elimination multiplies the cost, so
#: the loop trades a bounded objective overshoot for termination.
DEFAULT_TIGHTEN_AFTER_SECONDS = 3.0
#: Relative interior margin the tightening loop steers the full value
#: to — just inside the bound, so the concrete re-verification passes
#: while the objective stays within float noise of the true optimum.
_TIGHTEN_TARGET_GAP = 2e-5
#: A verified candidate within this relative gap of the bound is "at
#: the boundary" — no further relax-back rounds are worth a solve.
_TIGHTEN_ACCEPT_GAP = 1e-4
#: Tightened bounds never drop below this fraction of the formula
#: bound; past it the response is clearly not proportional.
_TIGHTEN_FLOOR = 1e-3
#: Evidence-count schedule for reward localization: start here and
#: multiply per growth round until the truncation's value at the
#: candidate exceeds the bound (or the paths run out).
_REWARD_EVIDENCE_START = 8
_REWARD_EVIDENCE_GROWTH = 4


class CegisIteration:
    """One check → localize → solve round of the CEGIS loop."""

    def __init__(
        self,
        index: int,
        kind: str,
        counterexample_paths: int = 0,
        counterexample_states: int = 0,
        restriction_size: int = 0,
        evidence_mass: float = 0.0,
        evidence_complete: bool = False,
        fallback_reason: Optional[str] = None,
        localize_seconds: float = 0.0,
        solve_seconds: float = 0.0,
        tightenings: int = 0,
        status: str = "",
        elimination_states: int = 0,
        elimination_ms: int = 0,
        elimination_resumed: bool = False,
    ):
        self.index = int(index)
        #: ``"localized"`` or ``"global"`` (the fallback).
        self.kind = str(kind)
        self.counterexample_paths = int(counterexample_paths)
        self.counterexample_states = int(counterexample_states)
        self.restriction_size = int(restriction_size)
        self.evidence_mass = float(evidence_mass)
        self.evidence_complete = bool(evidence_complete)
        self.fallback_reason = fallback_reason
        self.localize_seconds = float(localize_seconds)
        self.solve_seconds = float(solve_seconds)
        #: Inner bound-tightening re-solves run inside this iteration.
        self.tightenings = int(tightenings)
        self.status = str(status)
        #: States eliminated / wall-clock spent localizing this round,
        #: and whether the round reused a prior corridor elimination
        #: (exact cache hit or snapshot resume) instead of starting from
        #: scratch.
        self.elimination_states = int(elimination_states)
        self.elimination_ms = int(elimination_ms)
        self.elimination_resumed = bool(elimination_resumed)

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "counterexample_paths": self.counterexample_paths,
            "counterexample_states": self.counterexample_states,
            "restriction_size": self.restriction_size,
            "evidence_mass": self.evidence_mass,
            "evidence_complete": self.evidence_complete,
            "fallback_reason": self.fallback_reason,
            "localize_seconds": self.localize_seconds,
            "solve_seconds": self.solve_seconds,
            "tightenings": self.tightenings,
            "status": self.status,
            "elimination_states": self.elimination_states,
            "elimination_ms": self.elimination_ms,
            "elimination_resumed": self.elimination_resumed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CegisIteration":
        return cls(
            index=payload["index"],
            kind=payload["kind"],
            counterexample_paths=payload.get("counterexample_paths", 0),
            counterexample_states=payload.get("counterexample_states", 0),
            restriction_size=payload.get("restriction_size", 0),
            evidence_mass=payload.get("evidence_mass", 0.0),
            evidence_complete=payload.get("evidence_complete", False),
            fallback_reason=payload.get("fallback_reason"),
            localize_seconds=payload.get("localize_seconds", 0.0),
            solve_seconds=payload.get("solve_seconds", 0.0),
            tightenings=payload.get("tightenings", 0),
            status=payload.get("status", ""),
            elimination_states=payload.get("elimination_states", 0),
            elimination_ms=payload.get("elimination_ms", 0),
            elimination_resumed=payload.get("elimination_resumed", False),
        )

    def __repr__(self) -> str:
        return (
            f"CegisIteration({self.index}, kind={self.kind!r}, "
            f"paths={self.counterexample_paths}, "
            f"restriction={self.restriction_size})"
        )


class CegisRepairResult(RepairResult):
    """Outcome of a counterexample-guided repair.

    Carries the shared :class:`~repro.repair.RepairResult` fields plus:

    Attributes
    ----------
    iterations:
        Check → localize → solve rounds actually run.
    constraints_added:
        Size of the final working constraint set.
    counterexample_states:
        Total evidence states across all counterexamples (the summed
        telemetry counter).
    fallbacks:
        Iterations that degraded to the global elimination.
    iteration_log:
        The per-iteration :class:`CegisIteration` records (diagnostics
        and timings).
    repaired_model:
        The repaired chain (the original when already satisfied,
        ``None`` when infeasible).
    perturbation_bound:
        Proposition 1's ε-bisimulation bound from the wrapped flavour
        (0 when it defines none).
    proof:
        The :class:`~repro.repair.region.RegionProof` when the region
        check proved the problem infeasible, else ``None``.
    """

    flavor = "cegis"

    def __init__(
        self,
        status: str,
        assignment: Optional[Mapping[str, float]] = None,
        objective_value: float = 0.0,
        verified: bool = False,
        iterations: int = 0,
        constraints_added: int = 0,
        counterexample_states: int = 0,
        fallbacks: int = 0,
        iteration_log: Optional[List[CegisIteration]] = None,
        repaired_model: Optional[DTMC] = None,
        perturbation_bound: float = 0.0,
        message: str = "",
        solver_stats: Optional[Mapping[str, int]] = None,
        proof: Optional[RegionProof] = None,
    ):
        super().__init__(
            status=status,
            assignment=assignment,
            objective_value=objective_value,
            verified=verified,
            message=message,
            solver_stats=solver_stats,
        )
        self.iterations = int(iterations)
        self.constraints_added = int(constraints_added)
        self.counterexample_states = int(counterexample_states)
        self.fallbacks = int(fallbacks)
        self.iteration_log = list(iteration_log or [])
        self.repaired_model = repaired_model
        self.perturbation_bound = float(perturbation_bound)
        self.proof = proof

    def extra_payload(self) -> Dict:
        from repro.io.json_io import model_to_payload

        return {
            "iterations": self.iterations,
            "constraints_added": self.constraints_added,
            "counterexample_states": self.counterexample_states,
            "fallbacks": self.fallbacks,
            "iteration_log": [record.to_dict() for record in self.iteration_log],
            "perturbation_bound": self.perturbation_bound,
            "repaired_model": (
                None
                if self.repaired_model is None
                else model_to_payload(self.repaired_model)
            ),
            "proof": None if self.proof is None else self.proof.to_dict(),
        }

    @classmethod
    def _from_payload(cls, payload: Mapping) -> "CegisRepairResult":
        from repro.io.json_io import model_from_payload

        repaired = payload.get("repaired_model")
        proof = payload.get("proof")
        return cls(
            status=payload["status"],
            assignment=payload.get("assignment", {}),
            objective_value=payload.get("objective_value", 0.0),
            verified=payload.get("verified", False),
            iterations=payload.get("iterations", 0),
            constraints_added=payload.get("constraints_added", 0),
            counterexample_states=payload.get("counterexample_states", 0),
            fallbacks=payload.get("fallbacks", 0),
            iteration_log=[
                CegisIteration.from_dict(record)
                for record in payload.get("iteration_log", [])
            ],
            repaired_model=(
                None if repaired is None else model_from_payload(repaired)
            ),
            perturbation_bound=payload.get("perturbation_bound", 0.0),
            message=payload.get("message", ""),
            solver_stats=payload.get("solver_stats", {}),
            proof=None if proof is None else RegionProof.from_dict(proof),
        )

    def _repr_extra(self) -> str:
        return (
            f"iterations={self.iterations}, "
            f"constraints={self.constraints_added}"
        )

    def describe(self) -> str:
        return (
            f"status={self.status}, iterations={self.iterations}, "
            f"constraints={self.constraints_added}, "
            f"fallbacks={self.fallbacks}"
        )


class _Localization:
    """What one localization round produced."""

    def __init__(
        self,
        constraint,
        kind: str,
        paths: int = 0,
        states: int = 0,
        mass: float = 0.0,
        complete: bool = False,
        fallback_reason: Optional[str] = None,
        snapshot: Optional[EliminationSnapshot] = None,
    ):
        self.constraint = constraint
        self.kind = kind
        self.paths = paths
        self.states = states
        self.mass = mass
        self.complete = complete
        self.fallback_reason = fallback_reason
        #: The corridor's partial elimination, for the next (wider) round.
        self.snapshot = snapshot


class CegisRepair:
    """Counterexample-guided repair over any single-spec builder.

    ``base`` is any flavour builder exposing ``.formula`` and
    ``.problem()`` whose single parametric side condition should be
    localized instead of globally eliminated — in this codebase
    :class:`~repro.core.model_repair.ModelRepair` and
    :class:`~repro.core.data_repair.DataRepair`.

    Examples
    --------
    >>> from repro.casestudies import wsn
    >>> cegis = CegisRepair(wsn.model_repair_problem(40))
    >>> result = cegis.repair()  # doctest: +SKIP
    """

    def __init__(
        self,
        base,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        max_counterexample_paths: int = DEFAULT_MAX_COUNTEREXAMPLE_PATHS,
        max_expansions: int = DEFAULT_MAX_EXPANSIONS,
        max_tightenings: int = DEFAULT_MAX_TIGHTENINGS,
        tighten_after_seconds: float = DEFAULT_TIGHTEN_AFTER_SECONDS,
        incremental: bool = True,
        order: str = "min-degree",
    ):
        if max_iterations < 1:
            raise ValueError("need at least one CEGIS iteration")
        if not hasattr(base, "problem") or getattr(base, "formula", None) is None:
            raise TypeError(
                "CegisRepair wraps a builder with .problem() and .formula "
                "(e.g. ModelRepair or DataRepair)"
            )
        self.base = base
        self.max_iterations = int(max_iterations)
        self.max_counterexample_paths = int(max_counterexample_paths)
        self.max_expansions = int(max_expansions)
        self.max_tightenings = int(max_tightenings)
        self.tighten_after_seconds = float(tighten_after_seconds)
        #: Resume each round's corridor elimination from the previous
        #: round's :class:`~repro.checking.parametric.EliminationSnapshot`
        #: (``False`` re-eliminates every corridor from scratch — kept
        #: for benchmarking the incremental path against its baseline).
        self.incremental = bool(incremental)
        #: Elimination order for the corridor reductions.
        self.order = str(order)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def for_chain(
        chain: DTMC,
        formula,
        controllable_states=None,
        max_perturbation: Optional[float] = None,
        cost="frobenius",
        engine: str = "sparse",
        **cegis_options,
    ) -> "CegisRepair":
        """Edge-wise CEGIS model repair (mirrors ``ModelRepair.for_chain``)."""
        from repro.core.model_repair import ModelRepair

        base = ModelRepair.for_chain(
            chain,
            formula,
            controllable_states=controllable_states,
            max_perturbation=max_perturbation,
            cost=cost,
            engine=engine,
        )
        return CegisRepair(base, **cegis_options)

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def _global_fallback(self, spec, cache, reason: str) -> _Localization:
        return _Localization(
            constraint=spec.reduced(cache),
            kind="global",
            fallback_reason=reason,
        )

    def _localize(
        self,
        spec: ParametricSpec,
        formula,
        violating: DTMC,
        candidate: Mapping[str, float],
        restriction: Set,
        cache,
        snapshot: Optional[EliminationSnapshot] = None,
    ) -> _Localization:
        """A working-set constraint that cuts off ``candidate``.

        Grows ``restriction`` (in place, monotone across iterations)
        with the evidence-touched states and eliminates only that
        subchain — resuming from ``snapshot`` (the previous round's
        partial elimination) so the wider corridor only pays for its
        newly admitted states.  Falls back to the global elimination —
        annotated, never silent — when the evidence cannot be localized.
        """
        model = spec.resolve_model()
        if isinstance(formula, ProbabilisticOperator):
            return self._localize_probability(
                spec, model, formula, violating, candidate, restriction,
                cache, snapshot,
            )
        if isinstance(formula, RewardOperator):
            return self._localize_reward(
                spec, model, formula, violating, candidate, restriction,
                cache, snapshot,
            )
        return self._global_fallback(spec, cache, "unsupported-formula")

    def _localize_probability(
        self, spec, model, formula, violating, candidate, restriction, cache,
        snapshot=None,
    ) -> _Localization:
        try:
            evidence = counterexample(
                violating,
                formula,
                max_paths=self.max_counterexample_paths,
                max_expansions=self.max_expansions,
            )
        except ValueError:
            # Lower bounds / bounded until / G: no finite-path evidence.
            return self._global_fallback(spec, cache, "unsupported-direction")
        if not evidence.complete:
            return self._global_fallback(spec, cache, "evidence-budget")
        restriction |= evidence.touched_states()
        if len(restriction) >= len(model.states):
            # The evidence corridor covers the whole chain: the
            # "restricted" elimination would be the full one — reuse
            # the shared (cached) global constraint instead.
            return self._global_fallback(spec, cache, "restriction-covers-model")
        try:
            constraint, snapshot = restricted_constraint(
                model,
                formula,
                restriction,
                cache=cache,
                order=self.order,
                snapshot=snapshot,
                with_snapshot=True,
            )
        except (ValueError, TypeError):
            return self._global_fallback(spec, cache, "unsupported-direction")
        if constraint.fast_margin(candidate) >= 0.0:
            # Cannot happen for a complete counterexample up to float
            # rounding; refuse to add a constraint that would stall.
            return self._global_fallback(spec, cache, "no-cut")
        return _Localization(
            constraint=constraint,
            kind="localized",
            paths=len(evidence),
            states=len(evidence.touched_states()),
            mass=evidence.total_probability,
            complete=True,
            snapshot=snapshot,
        )

    def _localize_reward(
        self, spec, model, formula, violating, candidate, restriction, cache,
        snapshot=None,
    ) -> _Localization:
        if formula.comparison not in ("<", "<="):
            return self._global_fallback(spec, cache, "unsupported-direction")
        targets = set(
            label_satisfaction_set(
                violating.states, violating.labels, formula.path.right
            )
        )
        count = _REWARD_EVIDENCE_START
        evidence = None
        previous_size = -1
        while count <= self.max_counterexample_paths:
            evidence = strongest_evidence_paths(
                violating,
                targets,
                count=count,
                max_expansions=self.max_expansions,
            )
            restriction |= {
                state for path, _ in evidence for state in path
            }
            if len(restriction) >= len(model.states):
                # The evidence corridor covers the whole chain — the
                # "restricted" elimination would be the full one; reuse
                # the shared (cached) global constraint instead.
                return self._global_fallback(
                    spec, cache, "restriction-covers-model"
                )
            if len(restriction) == previous_size:
                # More paths added no new states: re-eliminating the
                # same truncation cannot change the margin verdict.
                if evidence.complete and len(evidence) < count:
                    break
                count *= _REWARD_EVIDENCE_GROWTH
                continue
            previous_size = len(restriction)
            try:
                constraint, snapshot = restricted_constraint(
                    model,
                    formula,
                    restriction,
                    cache=cache,
                    order=self.order,
                    snapshot=snapshot,
                    with_snapshot=True,
                )
            except (ValueError, TypeError):
                return self._global_fallback(spec, cache, "unsupported-reward")
            if constraint.fast_margin(candidate) < 0.0:
                # The truncation already accumulates more reward than the
                # bound at the candidate: the local constraint cuts it off.
                return _Localization(
                    constraint=constraint,
                    kind="localized",
                    paths=len(evidence),
                    states=len(restriction),
                    mass=evidence.total_probability,
                    complete=evidence.complete,
                    snapshot=snapshot,
                )
            if evidence.complete and len(evidence) < count:
                # Every until-satisfying path is already in the
                # restriction, yet the truncated reward stays under the
                # bound — the gap lives in the escaping mass.
                break
            count *= _REWARD_EVIDENCE_GROWTH
        return self._global_fallback(spec, cache, "evidence-budget")

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _working_problem(self, working):
        """A fresh copy of the base problem solving the working set only."""
        problem = self.base.problem()
        problem.parametric = list(working)
        # The concrete pre-check and the region check already ran on the
        # full problem; rounds and tightenings must not repeat them.
        problem.check = lambda: False
        problem.region = None
        return problem

    def _tighten(
        self,
        formula,
        engine: str,
        cache,
        working,
        record: CegisIteration,
        outcome,
        solver_totals: Dict[str, int],
        extra_starts: int,
        seed: int,
    ):
        """Steer the newest local constraint's bound onto the boundary.

        The working-set constraints are *relaxations*, so a candidate
        can satisfy them all while the full formula still fails — the
        truncation's escaped mass is unaccounted for.  The loop normally
        answers with a wider corridor, which converges to the exact
        global optimum; once an elimination has cost more than
        ``tighten_after_seconds``, the next one would cost a multiple of
        that, so instead this tightens the newest constraint's bound
        proportionally to the observed overshoot ``β ← β · target/value``
        and re-solves (cheap — no new elimination).  The full value
        responds near-proportionally to the corridor bound, so one or
        two re-solves land the candidate just inside the bound;
        over-tightened (verified but deep-interior) candidates are
        relaxed back toward the boundary the same way.  The price is a
        bounded objective overshoot: the corridor constraint concentrates
        the repair on corridor parameters, whereas the true optimum
        spreads it — the verified candidate is feasible but a few
        percent above the global optimum at worst.

        Tightened constraints are **not** relaxations, so an infeasible
        tightened solve proves nothing — the loop reverts and falls
        through to the outer corridor-widening; ``infeasible`` is only
        ever reported from a solve over the untightened working set.
        """
        bound = getattr(formula, "bound", None)
        comparison = getattr(formula, "comparison", "")
        if bound is None or comparison not in ("<", "<="):
            return outcome
        bound = float(bound)
        if bound <= 0.0:
            return outcome
        target = bound * (1.0 - _TIGHTEN_TARGET_GAP)
        floor = bound * _TIGHTEN_FLOOR
        base_constraint = working[-1]
        beta = float(base_constraint.bound)
        # Bracket the verified/unverified boundary in corridor-bound
        # space: ``beta_hi`` is the tightest bound whose solve still
        # failed full verification, ``beta_lo`` the loosest bound whose
        # solve verified.  The proportional update ``β · target/value``
        # is the first guess (the full value responds near-proportionally
        # to the corridor bound while the solver stays in one basin), but
        # multi-start re-solves can hop basins, making value(β)
        # discontinuous — guesses falling outside the bracket are
        # replaced by its midpoint, so the loop converges onto the
        # cheapest verified candidate instead of chasing a broken
        # proportionality.
        beta_hi = beta
        beta_lo = None
        best = None
        current = outcome

        def resolve(next_beta: float, shift: int):
            tightened = list(working)
            tightened[-1] = ParametricConstraint(
                base_constraint.function, base_constraint.comparison, next_beta
            )
            started = time.perf_counter()
            attempt = solve_repair(
                self._working_problem(tightened),
                extra_starts=extra_starts,
                seed=seed + shift,
            )
            record.solve_seconds += time.perf_counter() - started
            record.tightenings += 1
            for key, count in attempt.solver_stats.items():
                solver_totals[key] = solver_totals.get(key, 0) + int(count)
            return attempt

        while record.tightenings < self.max_tightenings:
            artifact = current.artifact
            if not isinstance(artifact, DTMC):
                break
            value = cached_check(
                artifact, formula, engine=engine, cache=cache
            ).value
            if value is None or value <= 0.0:
                break
            if current.verified:
                if best is None or current.objective_value < best.objective_value:
                    best = current
                if value >= bound * (1.0 - _TIGHTEN_ACCEPT_GAP):
                    break
                beta_lo = beta if beta_lo is None else max(beta_lo, beta)
            else:
                beta_hi = min(beta_hi, beta)
            next_beta = beta * (target / value)
            if beta_lo is not None and not (beta_lo < next_beta < beta_hi):
                if beta_hi - beta_lo <= abs(beta_hi) * 1e-9:
                    break  # bracket exhausted — the boundary is resolved
                next_beta = 0.5 * (beta_lo + beta_hi)
            if next_beta < floor or abs(next_beta - beta) <= abs(beta) * 1e-12:
                break
            beta = next_beta
            attempt = resolve(beta, 0)
            if (
                attempt.status == "repaired"
                and not attempt.verified
                and record.tightenings < self.max_tightenings
            ):
                # When the working problem has symmetric optima (the
                # corridor polynomial often is symmetric in its
                # parameters while the full chain is not), the solver's
                # tie-break decides which equal-cost candidate comes
                # back — and only some of them verify.  One re-solve
                # with a shifted start pool breaks the tie the other
                # way; accept it only at equal-or-better cost.
                nudge = resolve(beta, 1)
                if (
                    nudge.status == "repaired"
                    and nudge.verified
                    and nudge.objective_value
                    <= attempt.objective_value * (1.0 + 1e-9) + 1e-12
                ):
                    attempt = nudge
            if attempt.status != "repaired":
                break
            current = attempt
        if best is not None and (
            not current.verified
            or best.objective_value < current.objective_value
        ):
            current = best
        record.status = current.status
        return current

    def repair(self, extra_starts: int = 8, seed: int = 0) -> CegisRepairResult:
        """Run the check → localize → solve loop to a verdict."""
        base_problem = self.base.problem()
        specs = [
            entry
            for entry in base_problem.parametric
            if isinstance(entry, ParametricSpec)
        ]
        if len(specs) != 1:
            raise TypeError(
                "CegisRepair localizes exactly one parametric side "
                f"condition; the base problem has {len(specs)}"
            )
        spec = specs[0]
        formula = spec.formula
        cache = base_problem.cache
        engine = getattr(base_problem, "engine", "sparse") or "sparse"
        if base_problem.run_check():
            return CegisRepairResult(
                status="already_satisfied",
                assignment=base_problem.initial_assignment(),
                objective_value=0.0,
                verified=True,
                repaired_model=(
                    base_problem.original
                    if isinstance(base_problem.original, DTMC)
                    else None
                ),
                message=base_problem.already_satisfied_message,
            )
        if not base_problem.variables:
            return CegisRepairResult(
                status="infeasible",
                assignment={},
                message=base_problem.no_variable_message,
            )
        proof = base_problem.run_region()
        if proof is not None:
            return CegisRepairResult(
                status="infeasible",
                assignment={},
                message=proof.describe(),
                proof=proof,
            )

        candidate = base_problem.initial_assignment()
        violating = (
            base_problem.original
            if isinstance(base_problem.original, DTMC)
            else base_problem.run_instantiate(candidate)
        )
        if not isinstance(violating, DTMC):
            raise TypeError(
                "CegisRepair needs a concrete DTMC to extract "
                "counterexamples from (original or instantiate hook)"
            )

        working: List = []
        records: List[CegisIteration] = []
        restriction: Set = set()
        solver_totals: Dict[str, int] = {}
        total_states = 0
        fallbacks = 0
        last_outcome = None
        snapshot: Optional[EliminationSnapshot] = None
        cache_obj = get_cache(cache)
        for index in range(1, self.max_iterations + 1):
            started = time.perf_counter()
            stats_before = cache_obj.stats()
            localization = self._localize(
                spec,
                formula,
                violating,
                candidate,
                restriction,
                cache,
                snapshot if self.incremental else None,
            )
            stats_after = cache_obj.stats()
            localize_seconds = time.perf_counter() - started
            if self.incremental and localization.snapshot is not None:
                snapshot = localization.snapshot
            elimination_deltas = {
                key: stats_after.get(key, 0) - stats_before.get(key, 0)
                for key in (
                    "elimination_states",
                    "elimination_fill_in",
                    "elimination_reuse_hits",
                    "elimination_ms",
                )
            }
            for key, delta in elimination_deltas.items():
                if delta:
                    solver_totals[key] = solver_totals.get(key, 0) + int(delta)
            working.append(localization.constraint)
            total_states += localization.states
            if localization.kind == "global":
                fallbacks += 1
            started = time.perf_counter()
            outcome = solve_repair(
                self._working_problem(working),
                extra_starts=extra_starts,
                seed=seed,
            )
            solve_seconds = time.perf_counter() - started
            last_outcome = outcome
            for key, value in outcome.solver_stats.items():
                solver_totals[key] = solver_totals.get(key, 0) + int(value)
            records.append(
                CegisIteration(
                    index=index,
                    kind=localization.kind,
                    counterexample_paths=localization.paths,
                    counterexample_states=localization.states,
                    restriction_size=len(restriction),
                    evidence_mass=localization.mass,
                    evidence_complete=localization.complete,
                    fallback_reason=localization.fallback_reason,
                    localize_seconds=localize_seconds,
                    solve_seconds=solve_seconds,
                    status=outcome.status,
                    elimination_states=elimination_deltas["elimination_states"],
                    elimination_ms=elimination_deltas["elimination_ms"],
                    elimination_resumed=(
                        elimination_deltas["elimination_reuse_hits"] > 0
                    ),
                )
            )
            if (
                outcome.status == "repaired"
                and not outcome.verified
                and isinstance(outcome.artifact, DTMC)
                and localize_seconds >= self.tighten_after_seconds
            ):
                outcome = self._tighten(
                    formula,
                    engine,
                    cache,
                    working,
                    records[-1],
                    outcome,
                    solver_totals,
                    extra_starts,
                    seed,
                )
                last_outcome = outcome
            if outcome.status == "infeasible":
                # The working set is a relaxation of the full problem,
                # but the NLP finding no feasible point in it is a local
                # failure, not a proof (the region check above is the
                # only proof this loop gives).
                return CegisRepairResult(
                    status="infeasible",
                    assignment=outcome.assignment,
                    objective_value=outcome.objective_value,
                    verified=False,
                    iterations=index,
                    constraints_added=len(working),
                    counterexample_states=total_states,
                    fallbacks=fallbacks,
                    iteration_log=records,
                    message=(
                        f"{outcome.message} (working-set NLP found no "
                        "feasible point; not a proof)"
                    ),
                    solver_stats=solver_totals,
                )
            candidate = outcome.assignment
            if outcome.verified:
                # The engine re-checked the concrete artifact against the
                # *full* formula — the CEGIS termination certificate.
                localized = len(working) - fallbacks
                return CegisRepairResult(
                    status="repaired",
                    assignment=outcome.assignment,
                    objective_value=outcome.objective_value,
                    verified=True,
                    iterations=index,
                    constraints_added=len(working),
                    counterexample_states=total_states,
                    fallbacks=fallbacks,
                    iteration_log=records,
                    repaired_model=(
                        outcome.artifact
                        if isinstance(outcome.artifact, DTMC)
                        else None
                    ),
                    perturbation_bound=outcome.epsilon,
                    message=(
                        f"cegis verified after {index} iteration(s): "
                        f"{localized} localized + {fallbacks} global "
                        "constraint(s)"
                    ),
                    solver_stats=solver_totals,
                )
            if not isinstance(outcome.artifact, DTMC):
                # Nothing concrete to extract the next counterexample
                # from — surface the engine outcome, annotated.
                return CegisRepairResult(
                    status=outcome.status,
                    assignment=outcome.assignment,
                    objective_value=outcome.objective_value,
                    verified=outcome.verified,
                    iterations=index,
                    constraints_added=len(working),
                    counterexample_states=total_states,
                    fallbacks=fallbacks,
                    iteration_log=records,
                    perturbation_bound=outcome.epsilon,
                    message=outcome.message or "no artifact to localize",
                    solver_stats=solver_totals,
                )
            violating = outcome.artifact

        # Budget exhausted: honest partial answer, never a silent pass.
        return CegisRepairResult(
            status="repaired",
            assignment=last_outcome.assignment,
            objective_value=last_outcome.objective_value,
            verified=False,
            iterations=self.max_iterations,
            constraints_added=len(working),
            counterexample_states=total_states,
            fallbacks=fallbacks,
            iteration_log=records,
            repaired_model=(
                last_outcome.artifact
                if isinstance(last_outcome.artifact, DTMC)
                else None
            ),
            perturbation_bound=last_outcome.epsilon,
            message=(
                f"candidate still violates the property after "
                f"{self.max_iterations} iteration(s)"
            ),
            solver_stats=solver_totals,
        )
