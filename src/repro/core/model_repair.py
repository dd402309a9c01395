"""Model Repair (Definition 1, Equations 1–6).

Given a chain ``M`` that violates a PCTL property ``φ``, find the
smallest perturbation ``Z`` of the transition probabilities such that
``M_Z |= φ``:

    min  g(Z)                                   (Eq. 1, 4)
    s.t. M_Z |= φ                               (Eq. 2 → 5 via parametric
                                                 model checking)
         P(i,j) + Z(i,j) = 0  iff  P(i,j) = 0   (Eq. 3: structure
                                                 preserved)
         0 < P(i,j) + Z(i,j) < 1                (Eq. 6: stochasticity)

Two ways to define the feasible repair space ``Feas_MP`` (each also
defines the region the engine's region check bounds the property over,
see :mod:`repro.repair.region`):

* :meth:`ModelRepair.for_chain` — one perturbation variable per
  controllable edge, with each controllable row's last edge dependent so
  the row keeps summing to 1 (the generic ``Z`` matrix of Section IV-A).
* :meth:`ModelRepair.from_parametric` — a hand-built parametric chain
  with shared correction parameters (the WSN case study's ``p`` on
  field/station nodes and ``q`` on interior nodes).

The solve itself — pre-check, cached elimination, multi-start NLP,
re-verification, ε-bound — lives in :mod:`repro.repair`; this module
only *builds* the :class:`~repro.repair.RepairProblem`.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from repro.checking.cache import CheckCache
from repro.checking.parametric import (
    ParametricConstraint,
    ParametricDTMC,
)
from repro.core.costs import frobenius_cost, resolve_cost
from repro.logic.pctl import StateFormula
from repro.mdp.bisimulation import perturbation_bound
from repro.mdp.model import DTMC
from repro.optimize import Constraint, Variable
from repro.repair import ParametricSpec, RepairProblem, RepairResult, solve_repair
from repro.repair.region import (
    IntervalRegion,
    LiftedRegion,
    RegionProof,
    region_proof,
)
from repro.symbolic import Polynomial

State = Hashable
Assignment = Dict[str, float]

_DEFAULT_MARGIN = 1e-6


class ModelRepairResult(RepairResult):
    """Outcome of a Model Repair attempt.

    Carries the shared :class:`~repro.repair.RepairResult` fields
    (``status``, ``assignment``, ``objective_value``, ``verified``,
    ``message``, ``solver_stats``, ``feasible``) plus:

    Attributes
    ----------
    repaired_model:
        The repaired chain (the original when already satisfied,
        ``None`` when infeasible).
    epsilon:
        Proposition 1's ε-bisimulation bound between original and
        repaired model (0 when no repair was needed).
    proof:
        The :class:`~repro.repair.region.RegionProof` when the region
        check proved the problem infeasible, else ``None``.
    """

    flavor = "model"

    def __init__(
        self,
        status: str,
        repaired_model: Optional[DTMC],
        assignment: Assignment,
        objective_value: float,
        epsilon: float,
        verified: bool,
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
        self.repaired_model = repaired_model
        self.epsilon = epsilon
        self.proof = proof

    def extra_payload(self) -> Dict:
        from repro.io.json_io import model_to_payload

        return {
            "epsilon": float(self.epsilon),
            "repaired_model": (
                None
                if self.repaired_model is None
                else model_to_payload(self.repaired_model)
            ),
            "proof": None if self.proof is None else self.proof.to_dict(),
        }

    @classmethod
    def _from_payload(cls, payload: Mapping) -> "ModelRepairResult":
        from repro.io.json_io import model_from_payload

        repaired = payload.get("repaired_model")
        proof = payload.get("proof")
        return cls(
            status=payload["status"],
            repaired_model=(
                None if repaired is None else model_from_payload(repaired)
            ),
            assignment=payload.get("assignment", {}),
            objective_value=payload.get("objective_value", 0.0),
            epsilon=payload.get("epsilon", 0.0),
            verified=payload.get("verified", False),
            message=payload.get("message", ""),
            solver_stats=payload.get("solver_stats", {}),
            proof=None if proof is None else RegionProof.from_dict(proof),
        )

    def _repr_extra(self) -> str:
        return f"epsilon={self.epsilon:.6g}"

    def describe(self) -> str:
        return f"status={self.status}, epsilon={self.epsilon:.6g}"


class ModelRepair:
    """A configured Model Repair problem; call :meth:`repair` to solve.

    Use the :meth:`for_chain` / :meth:`from_parametric` constructors
    rather than ``__init__`` directly.
    """

    def __init__(
        self,
        original: DTMC,
        formula: StateFormula,
        parametric_model: ParametricDTMC,
        variables: Sequence[Variable],
        cost: Callable[[Assignment], float],
        extra_constraints: Sequence[Constraint] = (),
        cache: Optional[CheckCache] = None,
        engine: str = "sparse",
        *,
        region,
    ):
        self.original = original
        self.formula = formula
        self.parametric_model = parametric_model
        self.variables = list(variables)
        self.cost = cost
        self.extra_constraints = list(extra_constraints)
        #: Memo for the symbolic closed form and concrete re-checks;
        #: ``None`` selects the process-wide cache, so repeated
        #: :meth:`repair` calls on unchanged inputs run exactly one
        #: parametric state elimination.
        self.cache = cache
        #: Numeric engine for the concrete pre-check and re-verification.
        self.engine = engine
        #: The repair region (:mod:`repro.repair.region`) the engine's
        #: region check bounds the property over: the exact interval
        #: rows of :meth:`for_chain`, the parameter-lifted box of
        #: :meth:`from_parametric`.
        self.region = region

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def for_chain(
        chain: DTMC,
        formula: StateFormula,
        controllable_states: Optional[Sequence[State]] = None,
        max_perturbation: Optional[float] = None,
        cost="frobenius",
        margin: float = _DEFAULT_MARGIN,
        engine: str = "sparse",
    ) -> "ModelRepair":
        """Edge-wise repair of selected rows.

        Parameters
        ----------
        controllable_states:
            States whose outgoing distribution may be perturbed (default:
            every state with ≥ 2 successors).  For a row with successors
            ``t_1 … t_k`` the variables are ``z_{s→t_1} … z_{s→t_{k−1}}``
            and the last edge absorbs ``−Σ z`` to keep the row
            stochastic (Proposition 1's row-sum-zero ``Z``).
        max_perturbation:
            Optional bound ``|Z(i,j)| ≤ δ`` defining a small
            neighbourhood of repairs (the paper's "only consider small
            perturbations").
        cost:
            ``g(Z)``: a callable over the *variable* assignment, or one
            of ``"frobenius"`` / ``"l1"`` / ``"max"``.  Named costs are
            applied to the full ``Z`` row including the dependent entry.
        """
        if controllable_states is None:
            controllable_states = [
                s for s in chain.states if len(chain.transitions[s]) >= 2
            ]
        controllable = [
            s for s in controllable_states if len(chain.transitions[s]) >= 2
        ]
        if not controllable:
            raise ValueError("no controllable state has two or more successors")

        variables: List[Variable] = []
        extra_constraints: List[Constraint] = []
        transitions: Dict[State, Dict[State, object]] = {
            s: dict(row) for s, row in chain.transitions.items()
        }
        dependent_terms: List[List[str]] = []
        for state in controllable:
            successors = sorted(chain.transitions[state], key=str)
            row_vars: List[str] = []
            for target in successors[:-1]:
                name = f"z_{chain.index[state]}_{chain.index[target]}"
                base = chain.probability(state, target)
                lower = -base + margin
                upper = 1.0 - base - margin
                if max_perturbation is not None:
                    lower = max(lower, -max_perturbation)
                    upper = min(upper, max_perturbation)
                variables.append(Variable(name, lower, upper, initial=0.0))
                transitions[state][target] = base + Polynomial.variable(name)
                row_vars.append(name)
            last = successors[-1]
            last_base = chain.probability(state, last)
            dependent = Polynomial.constant(last_base)
            for name in row_vars:
                dependent = dependent - Polynomial.variable(name)
            transitions[state][last] = dependent
            dependent_terms.append(row_vars)
            # The dependent entry p_last − Σz stays in [margin, 1 −
            # margin] and, with a perturbation bound, its change −Σz in
            # [−δ, δ]: linear rows, which the NLP solves as one
            # constant-jacobian block.
            down = {n: -1.0 for n in row_vars}
            up = {n: 1.0 for n in row_vars}
            row = f"row_{chain.index[state]}"
            extra_constraints.append(
                Constraint.from_linear(
                    down, last_base - margin, name=f"{row}_lower"
                )
            )
            extra_constraints.append(
                Constraint.from_linear(
                    up, 1.0 - last_base - margin, name=f"{row}_upper"
                )
            )
            if max_perturbation is not None:
                extra_constraints.append(
                    Constraint.from_linear(
                        down, max_perturbation, name=f"{row}_delta_lower"
                    )
                )
                extra_constraints.append(
                    Constraint.from_linear(
                        up, max_perturbation, name=f"{row}_delta_upper"
                    )
                )

        parametric = ParametricDTMC(
            states=chain.states,
            transitions=transitions,
            initial_state=chain.initial_state,
            labels=chain.labels,
            state_rewards=chain.state_rewards,
        )

        if callable(cost):
            cost_function = cost
        else:
            base_cost = resolve_cost(cost)

            def cost_function(assignment: Assignment) -> float:
                # Named costs act on the full Z matrix: free variables
                # plus each controllable row's dependent entry −Σ z.
                full = dict(assignment)
                for i, names in enumerate(dependent_terms):
                    full[f"_dependent_{i}"] = -sum(assignment[n] for n in names)
                return base_cost(full)

            base_quadratic = getattr(base_cost, "quadratic", None)
            if base_quadratic is not None:

                def cost_quadratic(order: Sequence[str]):
                    # Q = Mᵀ Q_full M, where M maps the free variables
                    # to the full Z row: identity on the free entries,
                    # then one −1 row per dependent entry.
                    index = {name: k for k, name in enumerate(order)}
                    lift = np.zeros(
                        (len(order) + len(dependent_terms), len(order))
                    )
                    lift[: len(order)] = np.eye(len(order))
                    for i, names in enumerate(dependent_terms):
                        for name in names:
                            lift[len(order) + i, index[name]] = -1.0
                    full_order = list(order) + [
                        f"_dependent_{i}" for i in range(len(dependent_terms))
                    ]
                    return lift.T @ base_quadratic(full_order) @ lift

                cost_function.quadratic = cost_quadratic

        return ModelRepair(
            original=chain,
            formula=formula,
            parametric_model=parametric,
            variables=variables,
            cost=cost_function,
            extra_constraints=extra_constraints,
            engine=engine,
            region=IntervalRegion(chain, controllable, max_perturbation, margin),
        )

    @staticmethod
    def for_mdp_under_policy(
        mdp,
        policy,
        formula: StateFormula,
        controllable_states: Optional[Sequence[State]] = None,
        max_perturbation: Optional[float] = None,
        cost="frobenius",
    ) -> "MDPPolicyRepair":
        """Repair an MDP's transitions for a fixed deterministic policy.

        The MDP + policy induce a chain; that chain is repaired
        edge-wise and the repaired rows are written back into the rows
        of the *chosen* actions (other actions are untouched), mirroring
        the paper's remark that the application decides "which part of
        the ... controller can be modified".  The returned helper's
        :meth:`MDPPolicyRepair.repair` yields both the chain-level
        result and the repaired MDP.
        """
        from repro.mdp.policy import DeterministicPolicy

        if not isinstance(policy, DeterministicPolicy):
            raise TypeError("MDP repair needs a deterministic policy")
        induced = mdp.induced_dtmc(policy)
        chain_repair = ModelRepair.for_chain(
            induced,
            formula,
            controllable_states=controllable_states,
            max_perturbation=max_perturbation,
            cost=cost,
        )
        return MDPPolicyRepair(mdp, policy, chain_repair)

    @staticmethod
    def from_parametric(
        chain: DTMC,
        formula: StateFormula,
        parametric_model: ParametricDTMC,
        variables: Sequence[Variable],
        cost: Callable[[Assignment], float] = frobenius_cost,
        extra_constraints: Sequence[Constraint] = (),
        engine: str = "sparse",
    ) -> "ModelRepair":
        """Repair with a hand-built parametric model.

        ``parametric_model`` must instantiate to ``chain`` when every
        variable is at its ``initial`` value (checked at solve time for
        the zero assignment when possible).  This is the WSN-style
        shared-parameter repair.
        """
        return ModelRepair(
            original=chain,
            formula=formula,
            parametric_model=parametric_model,
            variables=variables,
            cost=cost,
            extra_constraints=extra_constraints,
            engine=engine,
            region=LiftedRegion(parametric_model, variables),
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def problem(self) -> RepairProblem:
        """The declarative :class:`~repro.repair.RepairProblem`.

        Definition 1 in the shared core's terms: edge perturbations as
        variables, ``M_Z |= φ`` as the parametric side condition, row
        bounds as extra constraints, Proposition 1's ε-bisimulation as
        the bound hook.
        """
        return RepairProblem(
            name="model-repair",
            variables=self.variables,
            cost=self.cost,
            parametric=[ParametricSpec(self.parametric_model, self.formula)],
            constraints=self.extra_constraints,
            original=self.original,
            formula=self.formula,
            region=lambda: region_proof(self.region, self.formula, self.cache),
            instantiate=self.parametric_model.instantiate,
            epsilon=lambda repaired: perturbation_bound(self.original, repaired),
            already_satisfied_message=(
                "original model already satisfies the property"
            ),
            cache=self.cache,
            engine=self.engine,
        )

    def constraint(self) -> ParametricConstraint:
        """Deprecated: the reduced constraint ``f(v) ⋈ b`` (Prop. 2).

        Use ``problem().parametric_constraints()[0]``; kept as a shim
        for callers of the pre-engine API.
        """
        warnings.warn(
            "ModelRepair.constraint() is deprecated; use "
            "ModelRepair.problem().parametric_constraints()[0] instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.problem().parametric_constraints()[0]

    def repair(
        self, extra_starts: int = 8, seed: int = 0
    ) -> ModelRepairResult:
        """Run the full Model Repair pipeline (the shared driver):

        pre-check → region check → cached elimination → multi-start
        NLP → concrete re-verification → ε-bound
        (:func:`repro.repair.solve_repair`).
        """
        outcome = solve_repair(
            self.problem(), extra_starts=extra_starts, seed=seed
        )
        return ModelRepairResult(
            status=outcome.status,
            repaired_model=outcome.artifact,
            assignment=outcome.assignment,
            objective_value=outcome.objective_value,
            epsilon=outcome.epsilon,
            verified=outcome.verified,
            message=outcome.message,
            solver_stats=outcome.solver_stats,
            proof=outcome.proof,
        )


class MDPPolicyRepair:
    """Repair of an MDP's chosen-action rows under a fixed policy.

    Produced by :meth:`ModelRepair.for_mdp_under_policy`; not built
    directly.
    """

    def __init__(self, mdp, policy, chain_repair: ModelRepair):
        self.mdp = mdp
        self.policy = policy
        self.chain_repair = chain_repair

    def repair(self, extra_starts: int = 8, seed: int = 0):
        """Run the chain repair and write repaired rows back to the MDP.

        Returns ``(repaired_mdp, ModelRepairResult)``; when the chain
        repair is infeasible the original MDP is returned unchanged.
        """
        result = self.chain_repair.repair(extra_starts=extra_starts, seed=seed)
        if not result.feasible or result.repaired_model is None:
            return self.mdp, result
        repaired_chain = result.repaired_model
        updates = {}
        for state in self.mdp.states:
            action = self.policy[state]
            updates[state] = {action: dict(repaired_chain.transitions[state])}
        return self.mdp.with_transitions(updates), result
