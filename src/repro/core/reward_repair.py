"""Reward Repair (Definition 2, Section IV-C, Equations 16–18).

Two complementary solvers, both used by the paper:

``RewardRepair.project``
    The posterior-regularisation route (Proposition 4).  Build the
    MaxEnt trajectory distribution ``P`` of the learned reward
    (Equation 16), project it onto the rule-satisfying subspace —
    ``Q(U) ∝ P(U)·exp(−Σ λ[1−φ(U)])`` — and re-estimate a linear reward
    whose MaxEnt distribution matches ``Q``.
``RewardRepair.q_constrained``
    The direct projection used in the car case study (Section V-B):
    ``min ‖Δθ‖  s.t.  Q(S1, 1) > Q(S1, 0)`` — minimally move the reward
    weights so the optimal policy's state-action preferences respect the
    safety constraint.  This is the NLP route, run through the shared
    :mod:`repro.repair` driver; the projection routes use gradient
    fitting instead and bypass the NLP entirely.  The Q-function is
    lowered once onto the MDP's stacked-choice arrays
    (:class:`LoweredQ`), so every iterate costs one array value
    iteration and the constraints carry an exact envelope gradient.
"""

from __future__ import annotations

from typing import Dict, Hashable, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.checking.matrix import get_mdp_matrix
from repro.core.costs import frobenius_cost
from repro.learning.irl import FeatureMap
from repro.learning.posterior_regularization import (
    fit_reward_to_distribution,
    project_distribution,
)
from repro.learning.trajectory_distribution import TrajectoryDistribution
from repro.logic.rules import Rule, all_satisfied
from repro.mdp.model import MDP
from repro.mdp.policy import DeterministicPolicy
from repro.mdp.solvers import DEFAULT_MAX_ITERATIONS, q_values, value_iteration
from repro.optimize import Constraint, Variable
from repro.optimize.nlp import FEASIBILITY_TOLERANCE
from repro.repair import RepairProblem, RepairResult, solve_repair

State = Hashable
Action = Hashable


class QValueConstraint(NamedTuple):
    """Require ``Q(state, preferred) > Q(state, dispreferred) + margin``."""

    state: State
    preferred: Action
    dispreferred: Action
    margin: float = 1e-3


#: Sup-norm stop of the value iterations behind Q-constraints (the
#: lowered NLP evaluations and the dictionary re-check alike).
_Q_TOLERANCE = 1e-9


class LoweredQ:
    """``Q(s, a)`` of a linear reward ``θᵀf(s)`` as a function of θ.

    Built once per repair from the MDP's stacked-choice CSR view
    (:func:`~repro.checking.matrix.get_mdp_matrix`) and the state×feature
    matrix Φ.  Action rewards are kept and the base MDP's state rewards
    are replaced by Φθ: the model :meth:`RewardRepair.mdp_with` builds,
    without building it.  The last evaluation is memoised on θ's bytes,
    so every Q-constraint and gradient at one iterate shares one value
    iteration.
    """

    def __init__(self, mdp: MDP, features: FeatureMap, discount: float):
        if not 0 < discount <= 1:
            raise ValueError("discount must be in (0, 1]")
        matrix = get_mdp_matrix(mdp)
        self.discount = discount
        self.P = matrix.P
        self.row_groups = matrix.row_groups
        self.owner = np.repeat(
            np.arange(matrix.num_states), np.diff(matrix.row_groups)
        )
        self.action_rewards = (
            matrix.choice_rewards - matrix.state_rewards[self.owner]
        )
        self.phi = np.array([features(s) for s in matrix.states])
        self._rows = {
            (matrix.states[owner], action): row
            for row, (owner, action) in enumerate(
                zip(self.owner, matrix.choice_actions)
            )
        }
        self._last: Optional[Tuple[bytes, list]] = None

    def choice(self, state: State, action: Action) -> int:
        """The row of the ``(state, action)`` choice."""
        return self._rows[(state, action)]

    def q(self, theta: np.ndarray) -> np.ndarray:
        """Per-choice Q-values at θ."""
        return self._evaluation(theta)[0]

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """``∂Q/∂θ`` at θ: one row per choice, one column per feature.

        Envelope theorem: with π greedy at θ and ``c`` the action
        rewards, ``V = (I − γP_π)⁻¹(Φθ + c_π)`` locally, so
        ``∂V/∂θ = (I − γP_π)⁻¹Φ`` (one sparse solve, the k feature
        columns as right-hand sides) and ``∂Q/∂θ = Φ[owner] + γ·P·∂V/∂θ``.
        Exact wherever the greedy action is unique; needs ``discount < 1``
        (at γ = 1, ``I − P_π`` can be singular).
        """
        entry = self._evaluation(theta)
        if entry[1] is None:
            rows = self._greedy_rows(entry[0])
            system = sparse.identity(len(rows), format="csc") - (
                self.discount * self.P[rows].tocsc()
            )
            dv = splu(system).solve(self.phi)
            entry[1] = self.phi[self.owner] + self.discount * (self.P @ dv)
        return entry[1]

    def _evaluation(self, theta: np.ndarray) -> list:
        """``[Q, ∂Q/∂θ or None]`` at θ, memoised on θ's bytes.

        Threads solving the same problem share this memo; the entry is
        swapped as one tuple, so a race costs a recomputation, never
        another θ's values.
        """
        theta = np.ascontiguousarray(theta, dtype=float)
        key = theta.tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        entry = [self._value_iteration(theta), None]
        self._last = (key, entry)
        return entry

    def _value_iteration(self, theta: np.ndarray) -> np.ndarray:
        """Q from Jacobi value iteration, stopped as :func:`value_iteration`
        stops: zero start, sup-norm change below the tolerance, same cap."""
        rewards = (self.phi @ theta)[self.owner] + self.action_rewards
        starts = self.row_groups[:-1]
        values = np.zeros(len(starts))
        for _ in range(DEFAULT_MAX_ITERATIONS):
            updated = np.maximum.reduceat(
                rewards + self.discount * (self.P @ values), starts
            )
            delta = np.max(np.abs(updated - values))
            values = updated
            if delta < _Q_TOLERANCE:
                break
        return rewards + self.discount * (self.P @ values)

    def _greedy_rows(self, q: np.ndarray) -> np.ndarray:
        """The row :func:`~repro.mdp.solvers.greedy_policy` picks per state.

        Its tie rule, vectorised over states: walk each state's actions
        in enumeration order, moving only to one that beats the current
        best by more than 1e-12.
        """
        starts = self.row_groups[:-1]
        counts = np.diff(self.row_groups)
        best = starts.copy()
        for offset in range(1, int(counts.max())):
            live = np.flatnonzero(counts > offset)
            rows = starts[live] + offset
            better = q[rows] > q[best[live]] + 1e-12
            best[live[better]] = rows[better]
        return best


class RewardRepairResult(RepairResult):
    """Outcome of a Reward Repair.

    Carries the shared :class:`~repro.repair.RepairResult` fields (the
    ``assignment`` is the weight delta ``Δθ`` component-wise) plus:

    Attributes
    ----------
    theta_before / theta_after:
        Reward weight vectors (learned vs. repaired).
    rewards_after:
        Repaired per-state rewards ``θ'ᵀ f(s)``.
    policy_before / policy_after:
        Optimal deterministic policies of the MDP under each reward.
    repaired_mdp:
        The MDP carrying the repaired reward.
    diagnostics:
        Solver- and projection-specific numbers (e.g. rule-violation
        probability before/after the projection).
    """

    flavor = "reward"

    def __init__(
        self,
        theta_before: np.ndarray,
        theta_after: np.ndarray,
        rewards_after: Dict[State, float],
        policy_before: DeterministicPolicy,
        policy_after: DeterministicPolicy,
        repaired_mdp: MDP,
        feasible: bool,
        diagnostics: Optional[Dict[str, float]] = None,
        solver_stats: Optional[Dict[str, int]] = None,
        verified: Optional[bool] = None,
        message: str = "",
    ):
        theta_before = np.asarray(theta_before, dtype=float)
        theta_after = np.asarray(theta_after, dtype=float)
        diagnostics = dict(diagnostics or {})
        delta = theta_after - theta_before
        objective = diagnostics.get("objective", float(delta @ delta))
        super().__init__(
            status="repaired" if feasible else "infeasible",
            assignment={f"d{i}": float(x) for i, x in enumerate(delta)},
            objective_value=float(objective),
            verified=bool(feasible) if verified is None else bool(verified),
            message=message,
            solver_stats=solver_stats,
        )
        self.theta_before = theta_before
        self.theta_after = theta_after
        self.rewards_after = dict(rewards_after)
        self.policy_before = policy_before
        self.policy_after = policy_after
        self.repaired_mdp = repaired_mdp
        self.diagnostics = diagnostics

    def theta_delta(self) -> np.ndarray:
        """The repair ``θ' − θ``."""
        return self.theta_after - self.theta_before

    def extra_payload(self) -> Dict:
        from repro.io.json_io import model_to_payload

        return {
            "theta_before": [float(x) for x in self.theta_before],
            "theta_after": [float(x) for x in self.theta_after],
            "rewards_after": {
                str(s): float(r) for s, r in self.rewards_after.items()
            },
            "policy_before": {
                str(s): str(a) for s, a in self.policy_before.mapping.items()
            },
            "policy_after": {
                str(s): str(a) for s, a in self.policy_after.mapping.items()
            },
            "repaired_mdp": (
                None
                if self.repaired_mdp is None
                else model_to_payload(self.repaired_mdp)
            ),
            "diagnostics": {
                str(k): float(v) for k, v in self.diagnostics.items()
            },
        }

    @classmethod
    def _from_payload(cls, payload) -> "RewardRepairResult":
        from repro.io.json_io import model_from_payload

        repaired = payload.get("repaired_mdp")
        return cls(
            theta_before=payload.get("theta_before", []),
            theta_after=payload.get("theta_after", []),
            rewards_after=payload.get("rewards_after", {}),
            policy_before=DeterministicPolicy(payload.get("policy_before", {})),
            policy_after=DeterministicPolicy(payload.get("policy_after", {})),
            repaired_mdp=(
                None if repaired is None else model_from_payload(repaired)
            ),
            feasible=payload.get("feasible", payload["status"] != "infeasible"),
            diagnostics=payload.get("diagnostics", {}),
            solver_stats=payload.get("solver_stats", {}),
            verified=payload.get("verified"),
            message=payload.get("message", ""),
        )

    def _repr_extra(self) -> str:
        return (
            f"theta_before={np.array2string(self.theta_before, precision=3)}, "
            f"theta_after={np.array2string(self.theta_after, precision=3)}"
        )

    def describe(self) -> str:
        return (
            f"status={self.status}, "
            f"theta' {[round(float(t), 3) for t in self.theta_after]}"
        )


class RewardRepair:
    """Reward Repair on an MDP with linear-in-features rewards.

    Parameters
    ----------
    mdp:
        The dynamics (rewards on the object are ignored; θ defines them).
    features:
        State feature map ``f``.
    discount:
        Discount used when extracting optimal policies and Q-values.
    """

    def __init__(self, mdp: MDP, features: FeatureMap, discount: float = 0.95):
        self.mdp = mdp
        self.features = features
        self.discount = discount

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def rewards_for(self, theta: np.ndarray) -> Dict[State, float]:
        """``{s: θᵀ f(s)}``."""
        return {s: float(self.features(s) @ theta) for s in self.mdp.states}

    def mdp_with(self, theta: np.ndarray) -> MDP:
        """The MDP with state rewards set from θ."""
        return self.mdp.with_rewards(state_rewards=self.rewards_for(theta))

    def optimal_policy(self, theta: np.ndarray) -> DeterministicPolicy:
        """The optimal deterministic policy under θ's reward."""
        _, policy = value_iteration(self.mdp_with(theta), discount=self.discount)
        return policy

    # ------------------------------------------------------------------
    # Proposition 4: posterior-regularised projection
    # ------------------------------------------------------------------
    def project(
        self,
        theta: np.ndarray,
        rules: Sequence[Rule],
        horizon: int,
        stop_states: Optional[Set[State]] = None,
        learning_rate: float = 0.05,
        max_iterations: int = 400,
    ) -> RewardRepairResult:
        """Repair by projecting the trajectory distribution (Prop. 4).

        Steps: build ``P`` from θ (Equation 16) → closed-form projection
        ``Q`` → moment-match a new θ' to ``Q``.  Diagnostics record the
        probability mass on rule-violating trajectories before and after
        the projection and under the re-estimated reward.
        """
        theta = np.asarray(theta, dtype=float)
        rewards = self.rewards_for(theta)
        p_dist = TrajectoryDistribution.from_maxent(
            self.mdp, rewards, horizon, stop_states=stop_states
        )
        q_dist = project_distribution(p_dist, rules)

        def violating(distribution: TrajectoryDistribution) -> float:
            return distribution.event_probability(
                lambda u: not all_satisfied(rules, u)
            )

        theta_after, rewards_after = fit_reward_to_distribution(
            self.mdp,
            self.features,
            q_dist,
            horizon,
            stop_states=stop_states,
            initial_theta=theta,
            learning_rate=learning_rate,
            max_iterations=max_iterations,
        )
        refit_dist = TrajectoryDistribution.from_maxent(
            self.mdp, rewards_after, horizon, stop_states=stop_states
        )
        repaired = self.mdp.with_rewards(state_rewards=rewards_after)
        return RewardRepairResult(
            theta_before=theta,
            theta_after=theta_after,
            rewards_after=rewards_after,
            policy_before=self.optimal_policy(theta),
            policy_after=self.optimal_policy(theta_after),
            repaired_mdp=repaired,
            feasible=True,
            diagnostics={
                "violation_probability_before": violating(p_dist),
                "violation_probability_projected": violating(q_dist),
                "violation_probability_after": violating(refit_dist),
                "kl_q_from_p": q_dist.kl_divergence(p_dist),
            },
        )

    def project_sampled(
        self,
        theta: np.ndarray,
        rules: Sequence[Rule],
        horizon: int,
        samples: int = 2_000,
        seed: Optional[int] = None,
        learning_rate: float = 0.05,
        max_iterations: int = 200,
    ) -> RewardRepairResult:
        """Proposition 4 repair for models too large to enumerate.

        Same contract as :meth:`project`, but the projection target
        ``E_Q[f]`` is estimated from Metropolis-sampled trajectories
        with importance weights ``exp(−Σλ[1−φ(U)])`` — the paper's
        "samples of trajectories drawn from the MDP using Gibbs
        sampling" route.  Diagnostics carry the sampled violation
        estimate instead of exact probabilities.
        """
        from repro.learning.posterior_regularization import (
            fit_reward_to_sampled_projection,
            sampled_projection_feature_expectation,
        )

        from repro.learning.trajectory_distribution import (
            MetropolisTrajectorySampler,
        )
        from repro.logic.rules import all_satisfied

        theta = np.asarray(theta, dtype=float)
        rewards = self.rewards_for(theta)
        sampler = MetropolisTrajectorySampler(
            self.mdp, rewards, horizon, seed=seed
        )
        draws = sampler.sample(samples)
        violation_before = sum(
            1 for u in draws if not all_satisfied(rules, u)
        ) / len(draws)
        _, violation_projected = sampled_projection_feature_expectation(
            self.mdp, self.features, rewards, rules, horizon,
            samples=samples, seed=seed,
        )
        theta_after, rewards_after = fit_reward_to_sampled_projection(
            self.mdp,
            self.features,
            rewards,
            rules,
            horizon,
            samples=samples,
            seed=seed,
            initial_theta=theta,
            learning_rate=learning_rate,
            max_iterations=max_iterations,
        )
        repaired = self.mdp.with_rewards(state_rewards=rewards_after)
        return RewardRepairResult(
            theta_before=theta,
            theta_after=theta_after,
            rewards_after=rewards_after,
            policy_before=self.optimal_policy(theta),
            policy_after=self.optimal_policy(theta_after),
            repaired_mdp=repaired,
            feasible=True,
            diagnostics={
                "violation_probability_before": violation_before,
                "violation_probability_projected": violation_projected,
                "sampled": 1.0,
                "samples": float(samples),
            },
        )

    # ------------------------------------------------------------------
    # Car case study: Q-value-constrained minimal reward change
    # ------------------------------------------------------------------
    def q_problem(
        self,
        theta: np.ndarray,
        constraints: Sequence[QValueConstraint],
        delta_bound: float = 2.0,
    ) -> RepairProblem:
        """The declarative :class:`~repro.repair.RepairProblem`.

        Definition 2's Q-route in the shared core's terms: the weight
        deltas ``d_i`` as variables, each Q-value preference as an exact
        constraint, ``‖Δθ‖²`` as the cost.  Q is recomputed by value
        iteration at every candidate θ+Δ on :class:`LoweredQ`'s arrays
        (not a local linearisation) and, for ``discount < 1``, carries
        its envelope gradient.  The verify hook re-checks θ′ on the
        dictionary model.
        """
        theta = np.asarray(theta, dtype=float)
        dimension = self.features.dimension
        variables = [
            Variable(f"d{i}", -delta_bound, delta_bound, initial=0.0)
            for i in range(dimension)
        ]
        lowered = LoweredQ(self.mdp, self.features, self.discount)

        def theta_at(assignment: Dict[str, float]) -> np.ndarray:
            return theta + np.array(
                [assignment[f"d{i}"] for i in range(dimension)]
            )

        def q_constraint(spec: QValueConstraint) -> Constraint:
            preferred = lowered.choice(spec.state, spec.preferred)
            dispreferred = lowered.choice(spec.state, spec.dispreferred)

            def margin(assignment: Dict[str, float]) -> float:
                q = lowered.q(theta_at(assignment))
                return q[preferred] - q[dispreferred] - spec.margin

            def gradient(assignment: Dict[str, float]) -> Dict[str, float]:
                jacobian = lowered.jacobian(theta_at(assignment))
                row = jacobian[preferred] - jacobian[dispreferred]
                return {f"d{i}": float(x) for i, x in enumerate(row)}

            return Constraint(
                margin,
                name=f"Q({spec.state},{spec.preferred})"
                f">Q({spec.state},{spec.dispreferred})",
                gradient=gradient if self.discount < 1 else None,
            )

        def verify(theta_after: np.ndarray) -> bool:
            # Independent of the lowered arrays: the dictionary model,
            # value iteration and Q-function at θ′.
            candidate = self.mdp_with(theta_after)
            values, _ = value_iteration(
                candidate, discount=self.discount, tolerance=_Q_TOLERANCE
            )
            q = q_values(candidate, values, discount=self.discount)
            for spec in constraints:
                gap = (
                    q[(spec.state, spec.preferred)]
                    - q[(spec.state, spec.dispreferred)]
                )
                if gap <= 0 or gap - spec.margin < -FEASIBILITY_TOLERANCE:
                    return False
            return True

        return RepairProblem(
            name="reward-repair",
            variables=variables,
            cost=frobenius_cost,
            constraints=[q_constraint(spec) for spec in constraints],
            # Report the least-infeasible θ′ for diagnostics either way.
            instantiate=theta_at,
            verify=verify,
            instantiate_when_infeasible=True,
        )

    def q_constrained(
        self,
        theta: np.ndarray,
        constraints: Sequence[QValueConstraint],
        delta_bound: float = 2.0,
        extra_starts: int = 6,
        seed: int = 0,
    ) -> RewardRepairResult:
        """Repair by ``min ‖Δθ‖² s.t. Q(s, a⁺) > Q(s, a⁻) + margin``,
        run through the shared driver (:func:`repro.repair.solve_repair`)."""
        theta = np.asarray(theta, dtype=float)
        outcome = solve_repair(
            self.q_problem(theta, constraints, delta_bound=delta_bound),
            extra_starts=extra_starts,
            seed=seed,
        )
        theta_after = np.asarray(outcome.artifact, dtype=float)
        rewards_after = self.rewards_for(theta_after)
        repaired = self.mdp.with_rewards(state_rewards=rewards_after)
        return RewardRepairResult(
            theta_before=theta,
            theta_after=theta_after,
            rewards_after=rewards_after,
            policy_before=self.optimal_policy(theta),
            policy_after=self.optimal_policy(theta_after),
            repaired_mdp=repaired,
            feasible=outcome.status == "repaired",
            diagnostics={"objective": outcome.objective_value},
            solver_stats=outcome.solver_stats,
            verified=outcome.verified,
            message=outcome.message,
        )
