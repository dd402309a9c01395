"""Data Repair (Definition 3, Equations 7–15).

A machine-teaching problem: perturb the dataset ``D`` (by dropping
traces) so that the model re-learned from the perturbed data satisfies
``φ``, at minimal teaching effort:

    min  E_T(D, D') = ‖p‖²            (Eqs. 7, 11: perturbation effort)
    s.t. ML(D') |= φ                  (Eqs. 8, 12)
         ML = regularised MLE          (Eqs. 9–10, 13–14: inner problem,
                                        solved in closed form)

The inner maximum-likelihood problem has a closed-form solution whose
transition probabilities are *rational functions* of the per-group drop
probabilities ``p_g`` (see :func:`repro.learning.mle.parametric_mle_dtmc`),
so the outer problem reduces — exactly as Proposition 3 states — to the
same :class:`~repro.repair.RepairProblem` shape as Model Repair, with
the drop probabilities as the decision variables.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence

from repro.checking.cache import CheckCache
from repro.core.costs import frobenius_cost
from repro.data.dataset import TraceDataset
from repro.learning.mle import (
    learn_dtmc,
    parametric_augment_mle_dtmc,
    parametric_mle_dtmc,
)
from repro.logic.pctl import StateFormula
from repro.mdp.model import DTMC
from repro.optimize import Variable
from repro.repair import ParametricSpec, RepairProblem, RepairResult, solve_repair

State = Hashable
Assignment = Dict[str, float]

_MAX_DROP = 1.0 - 1e-6


class DataRepairResult(RepairResult):
    """Outcome of a Data Repair attempt.

    Carries the shared :class:`~repro.repair.RepairResult` fields plus:

    Attributes
    ----------
    drop_probabilities:
        Per-group drop probability ``p_g`` (the repair; an alias of the
        base ``assignment``).  In ``"augment"`` mode these are the
        duplication weights ``w_g`` instead.
    repaired_model:
        The chain learned from the repaired data distribution.
    expected_dropped:
        Expected number of traces removed (added, in ``"augment"``
        mode).
    effort:
        The teaching-effort objective ``Σ p_g²`` at the solution (an
        alias of the base ``objective_value``).
    """

    flavor = "data"

    def __init__(
        self,
        status: str,
        drop_probabilities: Mapping[str, float],
        repaired_model: Optional[DTMC],
        expected_dropped: float,
        effort: float,
        verified: bool,
        message: str = "",
        solver_stats: Optional[Mapping[str, int]] = None,
    ):
        super().__init__(
            status=status,
            assignment=drop_probabilities,
            objective_value=effort,
            verified=verified,
            message=message,
            solver_stats=solver_stats,
        )
        self.repaired_model = repaired_model
        self.expected_dropped = expected_dropped

    @property
    def drop_probabilities(self) -> Dict[str, float]:
        """The per-group repair vector (alias of ``assignment``)."""
        return self.assignment

    @property
    def effort(self) -> float:
        """The teaching-effort objective (alias of ``objective_value``)."""
        return self.objective_value

    def extra_payload(self) -> Dict:
        from repro.io.json_io import model_to_payload

        return {
            "drop_probabilities": {
                str(name): float(value)
                for name, value in self.drop_probabilities.items()
            },
            "expected_dropped": float(self.expected_dropped),
            "effort": float(self.effort),
            "repaired_model": (
                None
                if self.repaired_model is None
                else model_to_payload(self.repaired_model)
            ),
        }

    @classmethod
    def _from_payload(cls, payload: Mapping) -> "DataRepairResult":
        from repro.io.json_io import model_from_payload

        repaired = payload.get("repaired_model")
        return cls(
            status=payload["status"],
            drop_probabilities=payload.get("drop_probabilities", {}),
            repaired_model=(
                None if repaired is None else model_from_payload(repaired)
            ),
            expected_dropped=payload.get("expected_dropped", 0.0),
            effort=payload.get("effort", 0.0),
            verified=payload.get("verified", False),
            message=payload.get("message", ""),
            solver_stats=payload.get("solver_stats", {}),
        )

    def _repr_extra(self) -> str:
        probs = {k: round(v, 6) for k, v in self.drop_probabilities.items()}
        return f"drops={probs}, expected_dropped={self.expected_dropped:.3g}"

    def describe(self) -> str:
        return (
            f"status={self.status}, "
            f"expected_dropped={self.expected_dropped:.3g}"
        )


class DataRepair:
    """A configured Data Repair problem; call :meth:`repair` to solve.

    Parameters
    ----------
    dataset:
        Grouped traces.  Only groups with ``droppable=True`` receive a
        drop parameter; the rest are pinned (the paper's reliable
        points, ``p_i = 1`` in its keep-convention).
    formula:
        The PCTL property the re-learned model must satisfy.
    initial_state:
        Initial state for the learned chain.
    states / labels / state_rewards:
        Model structure for the learned chain (labels drive the PCTL
        atoms, rewards drive ``R`` properties).
    effort:
        The outer objective over drop probabilities; defaults to
        :func:`~repro.core.costs.frobenius_cost`, ``Σ p_g²`` (the
        paper's ``‖p‖²`` with the keep/drop convention folded in), whose
        analytic gradient the NLP uses.
    max_drop:
        Upper bound on every drop probability (< 1 keeps the learned
        chain's structure intact — Equation 6's analogue).
    mode:
        ``"drop"`` (the paper's main formulation: group ``g`` kept with
        weight ``1 − p_g``) or ``"augment"`` (the paper's "data points
        being added" variant: group ``g`` duplicated with weight
        ``1 + w_g``, ``0 ≤ w_g ≤ max_augment``).
    max_augment:
        Upper bound on the duplication weights in ``"augment"`` mode.
    """

    def __init__(
        self,
        dataset: TraceDataset,
        formula: StateFormula,
        initial_state: State,
        states: Optional[Sequence[State]] = None,
        labels: Optional[Mapping[State, Iterable[str]]] = None,
        state_rewards: Optional[Mapping[State, float]] = None,
        effort: Optional[Callable[[Assignment], float]] = None,
        max_drop: float = _MAX_DROP,
        mode: str = "drop",
        max_augment: float = 4.0,
        cache: Optional[CheckCache] = None,
        engine: str = "sparse",
    ):
        if mode not in ("drop", "augment"):
            raise ValueError(f"unknown Data Repair mode {mode!r}")
        self.mode = mode
        if max_augment <= 0:
            raise ValueError("max_augment must be positive")
        self.max_augment = float(max_augment)
        self.dataset = dataset
        self.formula = formula
        self.initial_state = initial_state
        self.states = list(states) if states is not None else dataset.states()
        if initial_state not in set(self.states):
            self.states.append(initial_state)
        self.labels = labels
        self.state_rewards = state_rewards
        self.effort = effort or frobenius_cost
        if not 0 < max_drop < 1:
            raise ValueError("max_drop must lie strictly between 0 and 1")
        self.max_drop = max_drop
        #: Memo for the symbolic closed form and concrete re-checks;
        #: ``None`` selects the process-wide cache.  The parametric MLE
        #: model is rebuilt per call, but its content fingerprint is
        #: unchanged, so the elimination still runs only once.
        self.cache = cache
        #: Numeric engine for the concrete pre-check and re-verification.
        self.engine = engine

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def learned_model(self) -> DTMC:
        """``ML(D)`` — the chain learned from the unrepaired data."""
        return learn_dtmc(
            self.dataset.all_traces(),
            initial_state=self.initial_state,
            states=self.states,
            labels=self.labels,
            state_rewards=self.state_rewards,
        )

    def parametric_model(self):
        """``ML(D_p)`` symbolically, as a function of the repair vector."""
        if self.mode == "augment":
            weight_parameters = {
                name: f"weight_{name}"
                for name in self.dataset.droppable_groups()
            }
            return parametric_augment_mle_dtmc(
                grouped_counts=self.dataset.grouped_counts(),
                initial_state=self.initial_state,
                states=self.states,
                weight_parameters=weight_parameters,
                labels=self.labels,
                state_rewards=self.state_rewards,
            )
        drop_parameters = {
            name: f"drop_{name}" for name in self.dataset.droppable_groups()
        }
        return parametric_mle_dtmc(
            grouped_counts=self.dataset.grouped_counts(),
            initial_state=self.initial_state,
            states=self.states,
            drop_parameters=drop_parameters,
            labels=self.labels,
            state_rewards=self.state_rewards,
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _parameter_prefix(self) -> str:
        return "weight_" if self.mode == "augment" else "drop_"

    def problem(self) -> RepairProblem:
        """The declarative :class:`~repro.repair.RepairProblem`.

        Proposition 3 in the shared core's terms: per-group drop (or
        duplication) probabilities as variables, the parametric MLE
        chain's ``ML(D_p) |= φ`` as the side condition, teaching effort
        as the cost.
        """
        prefix = self._parameter_prefix()
        upper = self.max_augment if self.mode == "augment" else self.max_drop
        variables = [
            Variable(f"{prefix}{name}", 0.0, upper, initial=0.0)
            for name in self.dataset.droppable_groups()
        ]
        return RepairProblem(
            name="data-repair",
            variables=variables,
            cost=self.effort,
            parametric=[ParametricSpec(self.parametric_model, self.formula)],
            original=self.learned_model(),
            formula=self.formula,
            instantiate=lambda assignment: self.parametric_model().instantiate(
                assignment
            ),
            already_satisfied_message=(
                "model learned from the original data already satisfies φ"
            ),
            no_variable_message="no group is droppable",
            cache=self.cache,
            engine=self.engine,
        )

    def repair(self, extra_starts: int = 8, seed: int = 0) -> DataRepairResult:
        """Run the full Data Repair pipeline (learn → reduce → optimise)
        through the shared driver (:func:`repro.repair.solve_repair`)."""
        outcome = solve_repair(
            self.problem(), extra_starts=extra_starts, seed=seed
        )
        prefix = self._parameter_prefix()
        drop_probabilities = (
            {}
            if outcome.status == "already_satisfied"
            else {
                name: outcome.assignment[f"{prefix}{name}"]
                for name in self.dataset.droppable_groups()
                if f"{prefix}{name}" in outcome.assignment
            }
        )
        return DataRepairResult(
            status=outcome.status,
            drop_probabilities=drop_probabilities,
            repaired_model=outcome.artifact,
            expected_dropped=self.dataset.expected_dropped(drop_probabilities),
            effort=outcome.objective_value,
            verified=outcome.verified,
            message=outcome.message,
            solver_stats=outcome.solver_stats,
        )
