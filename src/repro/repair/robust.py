"""Robust repair over interval uncertainty sets (the fifth flavour).

The paper repairs a single nominal model, but learned transition
probabilities are exactly where point estimates are least trustworthy.
Following the robust-MDP line of work (Puggelli et al.; Suilen et al.,
"Robust MDPs: A Place Where AI and Formal Methods Meet"),
:class:`RobustRepair` strengthens any model/data-repair builder so the
result satisfies ``φ`` for *every* chain in the ±ε interval ball around
the repaired model, not just the nominal instantiation:

1. **robust pre-check** — the adversarial (robust) solve of
   :mod:`repro.mdp.interval` on the ε-ball around the original model; a
   robustly-satisfied original short-circuits the solve;
2. **nominal solve** — the wrapped builder's
   :class:`~repro.repair.RepairProblem` runs through the shared engine,
   with the concrete re-verification hook replaced by the robust solve
   over the interval set (never sampling);
3. **certificate** — a :class:`RobustCertificate` records the
   worst-case value and signed margin over the uncertainty set, plus
   nature's extremal member chain as a counterexample witness when
   verification fails;
4. **outer tightening loop** — when the nominal repair is not robust,
   the constraint bound is tightened by the measured shortfall (times a
   safety factor) and the problem re-solved, a bounded number of times.

Graceful degradation, never a silent pass: the robust solve runs under
a sweep cap with divergence detection and falls back to the nominal
check with ``robust=False`` (and a ``fallback_reason``) when it cannot
certify — the service layer surfaces those via the
``robust_vi_iterations`` / ``robust_fallbacks`` telemetry counters.

See ``docs/robust_repair.md`` for the certificate semantics and the
full fallback ladder.
"""

from __future__ import annotations

import copy
from typing import Dict, Mapping, Optional

from repro.checking.cache import cached_check
from repro.logic.pctl import (
    ProbabilisticOperator,
    RewardOperator,
    TrueFormula,
    Until,
    check_comparison,
)
from repro.mdp.interval import IntervalDTMC
from repro.mdp.model import DTMC
from repro.repair.engine import solve_repair
from repro.repair.results import RepairResult

#: Default interval half-width of the uncertainty ball.
DEFAULT_EPSILON = 0.01
#: Default bound on constraint-tightening re-solves.
DEFAULT_MAX_OUTER_ITERATIONS = 5
#: Default cap on robust-solve Bellman sweeps (well below the
#: module-level ceiling, so a stuck solve degrades instead of spinning).
DEFAULT_VI_MAX_ITERATIONS = 50_000
#: The measured robustness shortfall is multiplied by this factor when
#: tightening, so the loop overshoots slightly instead of creeping.
DEFAULT_TIGHTEN_SAFETY = 1.25


class RobustCertificate:
    """The interval-aware verdict attached to a robust repair.

    Attributes
    ----------
    epsilon:
        Half-width of the interval uncertainty ball.
    robust:
        ``True`` iff the verdict comes from converged robust value
        iteration over the full interval set; ``False`` marks a
        nominal-check fallback (see ``fallback_reason``).
    holds:
        The verdict itself (robust when ``robust``, nominal otherwise).
    value:
        The adversarial (worst-case) quantity at the initial state —
        nominal when ``robust`` is ``False``; ``None`` when even the
        nominal check was non-quantitative.
    margin:
        Signed slack against the bound: positive means the property
        holds with room to spare under every member chain, negative
        measures the worst-case violation.
    vi_iterations / converged:
        Bellman sweeps of the robust solve — nature-strategy picks plus
        the validating sweep — and its convergence (0 / ``False`` on the
        pure-nominal path).
    fallback_reason:
        ``None`` on the robust path; otherwise why robust VI was
        abandoned (``"vi-iteration-cap"``, ``"vi-diverged"``,
        ``"unsupported-formula"``).
    witness:
        Nature's extremal member chain (a concrete :class:`DTMC`)
        witnessing the worst case when verification fails; not part of
        :meth:`to_dict` — results serialise it separately.
    """

    def __init__(
        self,
        epsilon: float,
        robust: bool,
        holds: bool,
        value: Optional[float],
        bound: float,
        comparison: str,
        margin: Optional[float],
        vi_iterations: int = 0,
        converged: bool = False,
        fallback_reason: Optional[str] = None,
        witness: Optional[DTMC] = None,
    ):
        self.epsilon = float(epsilon)
        self.robust = bool(robust)
        self.holds = bool(holds)
        self.value = None if value is None else float(value)
        self.bound = float(bound)
        self.comparison = str(comparison)
        self.margin = None if margin is None else float(margin)
        self.vi_iterations = int(vi_iterations)
        self.converged = bool(converged)
        self.fallback_reason = fallback_reason
        self.witness = witness

    def to_dict(self) -> Dict:
        return {
            "epsilon": self.epsilon,
            "robust": self.robust,
            "holds": self.holds,
            "value": self.value,
            "bound": self.bound,
            "comparison": self.comparison,
            "margin": self.margin,
            "vi_iterations": self.vi_iterations,
            "converged": self.converged,
            "fallback_reason": self.fallback_reason,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RobustCertificate":
        return cls(
            epsilon=payload["epsilon"],
            robust=payload["robust"],
            holds=payload["holds"],
            value=payload.get("value"),
            bound=payload["bound"],
            comparison=payload["comparison"],
            margin=payload.get("margin"),
            vi_iterations=payload.get("vi_iterations", 0),
            converged=payload.get("converged", False),
            fallback_reason=payload.get("fallback_reason"),
        )

    def __repr__(self) -> str:
        margin = "None" if self.margin is None else f"{self.margin:.6g}"
        return (
            f"RobustCertificate(robust={self.robust}, holds={self.holds}, "
            f"margin={margin}, epsilon={self.epsilon:.6g})"
        )


# ----------------------------------------------------------------------
# Robust verification (the engine's run_verify hook)
# ----------------------------------------------------------------------
def _reachability_form(chain: DTMC, formula):
    """``(targets, avoid, kind)`` for the supported P/R fragment.

    ``avoid`` is the ``¬φ1 ∧ ¬φ2`` region of a ``P ⋈ b [φ1 U φ2]``
    formula — made absorbing before robust VI so until semantics are
    exact, not approximated by plain reachability.
    """
    from repro.checking.parametric import label_satisfaction_set

    if isinstance(formula, ProbabilisticOperator):
        path = formula.path
        if not isinstance(path, Until) or path.step_bound is not None:
            raise TypeError("robust verification supports unbounded until")
        targets = set(
            label_satisfaction_set(chain.states, chain.labels, path.right)
        )
        avoid = set()
        if not isinstance(path.left, TrueFormula):
            left = set(
                label_satisfaction_set(chain.states, chain.labels, path.left)
            )
            avoid = set(chain.states) - left - targets
        return targets, avoid, "probability"
    if isinstance(formula, RewardOperator):
        targets = set(
            label_satisfaction_set(
                chain.states, chain.labels, formula.path.right
            )
        )
        return targets, set(), "reward"
    raise TypeError("robust verification expects a top-level P or R operator")


def _with_absorbing(interval_chain: IntervalDTMC, absorbing) -> IntervalDTMC:
    """A copy of the interval chain with the given states made absorbing."""
    intervals = {
        state: ({state: (1.0, 1.0)} if state in absorbing else dict(row))
        for state, row in interval_chain.intervals.items()
    }
    return IntervalDTMC(
        states=interval_chain.states,
        intervals=intervals,
        initial_state=interval_chain.initial_state,
        labels=interval_chain.labels,
        state_rewards=interval_chain.state_rewards,
    )


def _nominal_fallback(
    artifact: DTMC,
    formula,
    epsilon: float,
    reason: str,
    vi_iterations: int,
    engine: str,
    cache,
) -> RobustCertificate:
    """The bottom rung of the ladder: nominal verdict, ``robust=False``."""
    nominal = cached_check(artifact, formula, engine=engine, cache=cache)
    maximise = formula.comparison in ("<", "<=")
    margin = None
    if nominal.value is not None:
        margin = (
            formula.bound - nominal.value
            if maximise
            else nominal.value - formula.bound
        )
    return RobustCertificate(
        epsilon=epsilon,
        robust=False,
        holds=nominal.holds,
        value=nominal.value,
        bound=formula.bound,
        comparison=formula.comparison,
        margin=margin,
        vi_iterations=vi_iterations,
        converged=False,
        fallback_reason=reason,
    )


def robust_verify(
    artifact: DTMC,
    formula,
    epsilon: float,
    vi_max_iterations: Optional[int] = None,
    vi_tolerance: Optional[float] = None,
    engine: str = "sparse",
    cache=None,
    want_witness: bool = True,
) -> RobustCertificate:
    """Verify ``formula`` against every chain in the ±ε ball.

    Runs the robust (adversarial-nature) solve on
    ``IntervalDTMC.from_dtmc(artifact, epsilon)`` — the adversary
    maximises the checked quantity for upper-bound comparisons and
    minimises it for lower bounds, so ``holds`` quantifies over the
    *whole* uncertainty set.  Degrades per the fallback ladder: an
    unsupported formula, a capped iteration or a divergent sweep drop
    to the exact nominal check with ``robust=False`` — never a silent
    pass, never an exception for these causes.
    """
    if not isinstance(artifact, DTMC):
        raise TypeError("robust verification needs a DTMC artifact")
    try:
        targets, avoid, kind = _reachability_form(artifact, formula)
    except TypeError:
        return _nominal_fallback(
            artifact, formula, epsilon, "unsupported-formula", 0, engine, cache
        )
    interval_chain = IntervalDTMC.from_dtmc(artifact, epsilon)
    if avoid:
        interval_chain = _with_absorbing(interval_chain, avoid)
    maximise = formula.comparison in ("<", "<=")
    if kind == "probability":
        values, report = interval_chain.reachability_values_report(
            targets,
            maximise,
            max_iterations=vi_max_iterations,
            tolerance=vi_tolerance,
        )
    else:
        values, report = interval_chain.expected_reward_values_report(
            targets,
            maximise,
            max_iterations=vi_max_iterations,
            tolerance=vi_tolerance,
        )
    if not report.converged:
        reason = "vi-diverged" if report.diverged else "vi-iteration-cap"
        return _nominal_fallback(
            artifact,
            formula,
            epsilon,
            reason,
            report.iterations,
            engine,
            cache,
        )
    value = values[interval_chain.initial_state]
    holds = check_comparison(formula.comparison, value, formula.bound)
    margin = formula.bound - value if maximise else value - formula.bound
    witness = None
    if want_witness and not holds:
        witness = interval_chain.extremal_chain(values, maximise)
    return RobustCertificate(
        epsilon=epsilon,
        robust=True,
        holds=holds,
        value=value,
        bound=formula.bound,
        comparison=formula.comparison,
        margin=margin,
        vi_iterations=report.iterations,
        converged=True,
        witness=witness,
    )


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
class RobustRepairResult(RepairResult):
    """Outcome of a robust repair attempt.

    Carries the shared :class:`~repro.repair.RepairResult` fields plus:

    Attributes
    ----------
    robust:
        ``True`` iff the final verdict came from converged robust value
        iteration over the full interval set (``False`` marks the
        annotated nominal fallback — or an infeasible problem where no
        artifact existed to certify).
    epsilon:
        Half-width of the uncertainty ball the repair was certified
        against.
    certificate:
        The final :class:`RobustCertificate` (``None`` when no check
        ran, e.g. immediately-infeasible problems).
    repaired_model:
        The repaired chain (the original when already robust, ``None``
        when infeasible).
    witness:
        Nature's extremal member chain when robust verification failed.
    outer_iterations:
        Constraint-tightening rounds actually solved.
    vi_iterations:
        Total robust-solve sweeps across pre-check and every round.
    perturbation_bound:
        Proposition 1's ε-bisimulation bound from the wrapped flavour
        (0 when it defines none).
    """

    flavor = "robust"

    def __init__(
        self,
        status: str,
        assignment: Optional[Mapping[str, float]] = None,
        objective_value: float = 0.0,
        verified: bool = False,
        robust: bool = False,
        epsilon: float = 0.0,
        certificate: Optional[RobustCertificate] = None,
        repaired_model: Optional[DTMC] = None,
        witness: Optional[DTMC] = None,
        outer_iterations: int = 0,
        vi_iterations: int = 0,
        perturbation_bound: float = 0.0,
        message: str = "",
        solver_stats: Optional[Mapping[str, int]] = None,
    ):
        super().__init__(
            status=status,
            assignment=assignment,
            objective_value=objective_value,
            verified=verified,
            message=message,
            solver_stats=solver_stats,
        )
        self.robust = bool(robust)
        self.epsilon = float(epsilon)
        self.certificate = certificate
        self.repaired_model = repaired_model
        self.witness = witness
        self.outer_iterations = int(outer_iterations)
        self.vi_iterations = int(vi_iterations)
        self.perturbation_bound = float(perturbation_bound)

    def extra_payload(self) -> Dict:
        from repro.io.json_io import model_to_payload

        return {
            "robust": self.robust,
            "epsilon": self.epsilon,
            "outer_iterations": self.outer_iterations,
            "vi_iterations": self.vi_iterations,
            "perturbation_bound": self.perturbation_bound,
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
            "repaired_model": (
                None
                if self.repaired_model is None
                else model_to_payload(self.repaired_model)
            ),
            "witness": (
                None if self.witness is None else model_to_payload(self.witness)
            ),
        }

    @classmethod
    def _from_payload(cls, payload: Mapping) -> "RobustRepairResult":
        from repro.io.json_io import model_from_payload

        certificate = payload.get("certificate")
        repaired = payload.get("repaired_model")
        witness = payload.get("witness")
        return cls(
            status=payload["status"],
            assignment=payload.get("assignment", {}),
            objective_value=payload.get("objective_value", 0.0),
            verified=payload.get("verified", False),
            robust=payload.get("robust", False),
            epsilon=payload.get("epsilon", 0.0),
            certificate=(
                None
                if certificate is None
                else RobustCertificate.from_dict(certificate)
            ),
            repaired_model=(
                None if repaired is None else model_from_payload(repaired)
            ),
            witness=None if witness is None else model_from_payload(witness),
            outer_iterations=payload.get("outer_iterations", 0),
            vi_iterations=payload.get("vi_iterations", 0),
            perturbation_bound=payload.get("perturbation_bound", 0.0),
            message=payload.get("message", ""),
            solver_stats=payload.get("solver_stats", {}),
        )

    def _repr_extra(self) -> str:
        return f"robust={self.robust}, epsilon={self.epsilon:.6g}"

    def describe(self) -> str:
        margin = (
            "n/a"
            if self.certificate is None or self.certificate.margin is None
            else f"{self.certificate.margin:.6g}"
        )
        return (
            f"status={self.status}, robust={self.robust}, margin={margin}"
        )


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
class RobustRepair:
    """Wrap a repair builder so its result is certified over an ε-ball.

    ``base`` is any flavour builder exposing ``.formula`` and
    ``.problem()`` whose instantiated artifact is a chain — in this
    codebase :class:`~repro.core.model_repair.ModelRepair` and
    :class:`~repro.core.data_repair.DataRepair`.  ``epsilon`` is the
    half-width of the interval uncertainty ball the repaired model must
    survive.

    Examples
    --------
    >>> from repro.casestudies import wsn
    >>> robust = RobustRepair(wsn.model_repair_problem(60), epsilon=0.01)
    >>> result = robust.repair()  # doctest: +SKIP
    """

    def __init__(
        self,
        base,
        epsilon: float = DEFAULT_EPSILON,
        max_outer_iterations: int = DEFAULT_MAX_OUTER_ITERATIONS,
        vi_max_iterations: int = DEFAULT_VI_MAX_ITERATIONS,
        vi_tolerance: Optional[float] = None,
        tighten_safety: float = DEFAULT_TIGHTEN_SAFETY,
    ):
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if not hasattr(base, "problem") or getattr(base, "formula", None) is None:
            raise TypeError(
                "RobustRepair wraps a builder with .problem() and .formula "
                "(e.g. ModelRepair or DataRepair)"
            )
        self.base = base
        self.epsilon = float(epsilon)
        self.max_outer_iterations = int(max_outer_iterations)
        self.vi_max_iterations = vi_max_iterations
        self.vi_tolerance = vi_tolerance
        self.tighten_safety = float(tighten_safety)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def for_chain(
        chain: DTMC,
        formula,
        epsilon: float = DEFAULT_EPSILON,
        controllable_states=None,
        max_perturbation: Optional[float] = None,
        cost="frobenius",
        engine: str = "sparse",
        **robust_options,
    ) -> "RobustRepair":
        """Edge-wise robust model repair (mirrors ``ModelRepair.for_chain``)."""
        from repro.core.model_repair import ModelRepair

        base = ModelRepair.for_chain(
            chain,
            formula,
            controllable_states=controllable_states,
            max_perturbation=max_perturbation,
            cost=cost,
            engine=engine,
        )
        return RobustRepair(base, epsilon=epsilon, **robust_options)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _verify_hook(self, holder: Dict) -> "callable":
        """A run_verify replacement: robust VI against the *original*
        formula, certificate side-channelled through ``holder``."""
        engine = getattr(self.base, "engine", "sparse")
        cache = getattr(self.base, "cache", None)

        def verify(artifact) -> bool:
            certificate = robust_verify(
                artifact,
                self.base.formula,
                self.epsilon,
                vi_max_iterations=self.vi_max_iterations,
                vi_tolerance=self.vi_tolerance,
                engine=engine,
                cache=cache,
            )
            holder["certificate"] = certificate
            return certificate.holds

        return verify

    def _tightened_formula(self, slack: float):
        """The original formula with its bound tightened by ``slack``."""
        formula = self.base.formula
        direction = -1.0 if formula.comparison in ("<", "<=") else 1.0
        bound = formula.bound + direction * slack
        if isinstance(formula, ProbabilisticOperator):
            bound = min(1.0, max(0.0, bound))
            return ProbabilisticOperator(formula.comparison, bound, formula.path)
        if isinstance(formula, RewardOperator):
            return RewardOperator(
                formula.comparison, bound, formula.path, formula.label
            )
        raise TypeError("robust repair expects a top-level P or R operator")

    def _tightened_problem(self, slack: float):
        if slack <= 0.0:
            builder = self.base
        else:
            # The flavour builders read ``self.formula`` when building
            # their problem, so a shallow copy with a tightened formula
            # yields the tightened constraint set — elimination included.
            builder = copy.copy(self.base)
            builder.formula = self._tightened_formula(slack)
        problem = builder.problem()
        # The robust pre-check already ran (and failed) on the original
        # artifact; the engine's nominal short-circuit must not let a
        # nominally-satisfying-but-not-robust original skip the solve.
        problem.check = lambda: False
        return problem

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def repair(
        self, extra_starts: int = 8, seed: int = 0
    ) -> RobustRepairResult:
        """Robust pre-check → (solve → robust verify → tighten)* loop."""
        base_problem = self.base.problem()
        total_vi = 0
        pre_certificate = None
        if isinstance(base_problem.original, DTMC):
            engine = getattr(self.base, "engine", "sparse")
            cache = getattr(self.base, "cache", None)
            pre_certificate = robust_verify(
                base_problem.original,
                self.base.formula,
                self.epsilon,
                vi_max_iterations=self.vi_max_iterations,
                vi_tolerance=self.vi_tolerance,
                engine=engine,
                cache=cache,
            )
            total_vi += pre_certificate.vi_iterations
            if pre_certificate.holds:
                robust = pre_certificate.robust
                message = (
                    "original model already satisfies the property "
                    + (
                        f"robustly (±{self.epsilon:g})"
                        if robust
                        else "nominally (robust check fell back: "
                        f"{pre_certificate.fallback_reason})"
                    )
                )
                return RobustRepairResult(
                    status="already_satisfied",
                    assignment=base_problem.initial_assignment(),
                    objective_value=0.0,
                    verified=True,
                    robust=robust,
                    epsilon=self.epsilon,
                    certificate=pre_certificate,
                    repaired_model=base_problem.original,
                    outer_iterations=0,
                    vi_iterations=total_vi,
                    message=message,
                )

        solver_totals: Dict[str, int] = {}
        slack = 0.0
        feasible_slack = 0.0
        infeasible_slack = None
        best = None  # (outcome, certificate) of the last non-robust repair
        outer = 0
        while outer < self.max_outer_iterations:
            outer += 1
            problem = self._tightened_problem(slack)
            holder: Dict = {}
            problem.verify = self._verify_hook(holder)
            outcome = solve_repair(problem, extra_starts=extra_starts, seed=seed)
            for key, value in outcome.solver_stats.items():
                solver_totals[key] = solver_totals.get(key, 0) + int(value)
            if outcome.status == "infeasible":
                if best is None:
                    return RobustRepairResult(
                        status="infeasible",
                        assignment=outcome.assignment,
                        objective_value=outcome.objective_value,
                        verified=False,
                        robust=False,
                        epsilon=self.epsilon,
                        certificate=pre_certificate,
                        outer_iterations=outer,
                        vi_iterations=total_vi,
                        message=outcome.message,
                        solver_stats=solver_totals,
                    )
                # Tightening overshot the feasible region: back off
                # toward the largest slack that still solved.
                infeasible_slack = slack
                slack = 0.5 * (feasible_slack + infeasible_slack)
                continue
            certificate = holder.get("certificate")
            if certificate is None:
                # The engine only skips run_verify when instantiate
                # produced no artifact; treat as a degraded outcome.
                return RobustRepairResult(
                    status=outcome.status,
                    assignment=outcome.assignment,
                    objective_value=outcome.objective_value,
                    verified=outcome.verified,
                    robust=False,
                    epsilon=self.epsilon,
                    outer_iterations=outer,
                    vi_iterations=total_vi,
                    perturbation_bound=outcome.epsilon,
                    message=outcome.message or "no artifact to certify",
                    solver_stats=solver_totals,
                )
            total_vi += certificate.vi_iterations
            if not certificate.robust:
                # Fallback ladder bottom: nominal verdict, annotated.
                return RobustRepairResult(
                    status="repaired",
                    assignment=outcome.assignment,
                    objective_value=outcome.objective_value,
                    verified=certificate.holds,
                    robust=False,
                    epsilon=self.epsilon,
                    certificate=certificate,
                    repaired_model=(
                        outcome.artifact
                        if isinstance(outcome.artifact, DTMC)
                        else None
                    ),
                    outer_iterations=outer,
                    vi_iterations=total_vi,
                    perturbation_bound=outcome.epsilon,
                    message=(
                        "robust verification degraded to the nominal check "
                        f"({certificate.fallback_reason})"
                    ),
                    solver_stats=solver_totals,
                )
            if certificate.holds:
                rounds = (
                    "" if outer == 1 else f" after {outer - 1} tightening round(s)"
                )
                return RobustRepairResult(
                    status="repaired",
                    assignment=outcome.assignment,
                    objective_value=outcome.objective_value,
                    verified=True,
                    robust=True,
                    epsilon=self.epsilon,
                    certificate=certificate,
                    repaired_model=(
                        outcome.artifact
                        if isinstance(outcome.artifact, DTMC)
                        else None
                    ),
                    outer_iterations=outer,
                    vi_iterations=total_vi,
                    perturbation_bound=outcome.epsilon,
                    message=f"robustly verified at ±{self.epsilon:g}{rounds}",
                    solver_stats=solver_totals,
                )
            best = (outcome, certificate)
            feasible_slack = slack
            shortfall = max(0.0, -(certificate.margin or 0.0))
            # Always make progress, even when the margin rounds to zero.
            slack += shortfall * self.tighten_safety + 1e-9
            if infeasible_slack is not None:
                # Stay inside the bracket a previous overshoot revealed.
                slack = min(slack, 0.5 * (feasible_slack + infeasible_slack))

        outcome, certificate = best
        message = (
            f"robust verification still failing after "
            f"{self.max_outer_iterations} tightening round(s) "
            f"(margin={certificate.margin:.6g})"
        )
        return self._failed_result(
            outcome, certificate, outer, total_vi, solver_totals, message
        )

    def _failed_result(
        self, outcome, certificate, outer, total_vi, solver_totals, message
    ) -> RobustRepairResult:
        """A repaired-but-not-robust result carrying the witness."""
        return RobustRepairResult(
            status="repaired",
            assignment=outcome.assignment,
            objective_value=outcome.objective_value,
            verified=False,
            robust=True,
            epsilon=self.epsilon,
            certificate=certificate,
            repaired_model=(
                outcome.artifact if isinstance(outcome.artifact, DTMC) else None
            ),
            witness=certificate.witness,
            outer_iterations=outer,
            vi_iterations=total_vi,
            perturbation_bound=outcome.epsilon,
            message=message,
            solver_stats=solver_totals,
        )
