"""Reward Repair's lowered Q-constraints against the dictionary oracle.

:class:`repro.core.reward_repair.LoweredQ` evaluates ``Q(s, a)`` of a
linear reward ``θᵀf(s)`` on the MDP's stacked-choice arrays, and its
envelope jacobian feeds SLSQP analytic constraint gradients.  The
oracle is the dictionary path the lowering replaces inside the NLP:
:meth:`RewardRepair.mdp_with` + :func:`value_iteration` +
:func:`q_values`.  The models are the car case study, the shortcut MDP
and a stochastic, cyclic MDP with action rewards *and* base state
rewards (which θ must replace while the action rewards stay).
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.casestudies import car
from repro.core import QValueConstraint, RewardRepair
from repro.core.reward_repair import LoweredQ
from repro.learning.irl import TabularFeatureMap
from repro.mdp import MDP
from repro.mdp.solvers import q_values, value_iteration
from repro.optimize import NonlinearProgram

DISCOUNT = 0.9

#: E6's objective before the lowering (dictionary Q, finite differences).
E6_OBJECTIVE = 0.004568969869221738


def cyclic_repair() -> RewardRepair:
    mdp = MDP(
        states=["a", "b", "c", "d"],
        transitions={
            "a": {"x": {"a": 0.3, "b": 0.7}, "y": {"c": 1.0}},
            "b": {
                "x": {"a": 0.5, "c": 0.5},
                "y": {"b": 0.2, "d": 0.8},
                "z": {"a": 1.0},
            },
            "c": {"x": {"d": 1.0}, "y": {"a": 0.4, "b": 0.3, "c": 0.3}},
            "d": {"x": {"a": 0.6, "d": 0.4}},
        },
        initial_state="a",
        state_rewards={"a": 5.0, "b": -3.0, "c": 0.5, "d": 2.0},
        action_rewards={
            ("a", "y"): 0.25,
            ("b", "z"): -0.4,
            ("c", "x"): 0.1,
            ("d", "x"): 0.05,
        },
    )
    features = TabularFeatureMap(
        {
            "a": [1.0, 0.0, 0.5],
            "b": [0.0, 1.0, -0.5],
            "c": [0.5, 0.5, 0.0],
            "d": [0.0, -1.0, 1.0],
        }
    )
    return RewardRepair(mdp, features, discount=DISCOUNT)


@pytest.fixture(params=["car", "shortcut", "cyclic"])
def repair(request, shortcut_mdp, shortcut_features):
    if request.param == "car":
        return RewardRepair(
            car.build_car_mdp(), car.car_features(), discount=car.DISCOUNT
        )
    if request.param == "shortcut":
        return RewardRepair(shortcut_mdp, shortcut_features, discount=DISCOUNT)
    return cyclic_repair()


def lowered_for(repair: RewardRepair) -> LoweredQ:
    return LoweredQ(repair.mdp, repair.features, repair.discount)


def seeded_thetas(repair: RewardRepair, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(count, repair.features.dimension))


def dictionary_q(repair: RewardRepair, theta: np.ndarray):
    candidate = repair.mdp_with(theta)
    values, _ = value_iteration(
        candidate, discount=repair.discount, tolerance=1e-9
    )
    return q_values(candidate, values, discount=repair.discount)


def greedy_gap(repair: RewardRepair, lowered: LoweredQ, q: np.ndarray) -> float:
    """Smallest best-minus-runner-up Q gap over states with two actions."""
    gaps = []
    for state in repair.mdp.states:
        values = sorted(
            (q[lowered.choice(state, a)] for a in repair.mdp.actions(state)),
            reverse=True,
        )
        if len(values) > 1:
            gaps.append(values[0] - values[1])
    return min(gaps)


class TestLoweredQ:
    def test_matches_dictionary_q(self, repair):
        lowered = lowered_for(repair)
        for theta in seeded_thetas(repair, 17):
            q = lowered.q(theta)
            for (state, action), expected in dictionary_q(repair, theta).items():
                assert q[lowered.choice(state, action)] == pytest.approx(
                    expected, abs=1e-9
                )

    def test_action_rewards_kept_state_rewards_replaced(self):
        repair = cyclic_repair()
        lowered = lowered_for(repair)
        # θ = 0 zeroes every state reward, the base MDP's included, so
        # only the action rewards are left to earn.
        q = lowered.q(np.zeros(repair.features.dimension))
        action_only = repair.mdp.with_rewards(
            state_rewards={s: 0.0 for s in repair.mdp.states}
        )
        values, _ = value_iteration(
            action_only, discount=DISCOUNT, tolerance=1e-9
        )
        with_base, _ = value_iteration(repair.mdp, discount=DISCOUNT)
        base_q = q_values(repair.mdp, with_base, discount=DISCOUNT)
        for key, value in q_values(action_only, values, DISCOUNT).items():
            row = lowered.choice(*key)
            assert q[row] == pytest.approx(value, abs=1e-9)
            assert abs(q[row] - base_q[key]) > 0.1
        assert np.abs(q).max() > 0.05

    def test_memoised_per_theta(self, repair):
        lowered = lowered_for(repair)
        theta = seeded_thetas(repair, 1)[0]
        assert lowered.q(theta) is lowered.q(theta.copy())
        assert lowered.jacobian(theta) is lowered.jacobian(theta.copy())

    def test_memo_shared_across_threads(self):
        # Multi-start solves share one LoweredQ across a thread pool:
        # interleaved iterates must never read another θ's evaluation.
        repair = cyclic_repair()
        thetas = seeded_thetas(repair, 8, seed=2)
        reference = []
        for theta in thetas:
            fresh = lowered_for(repair)
            reference.append((fresh.q(theta), fresh.jacobian(theta)))
        shared = lowered_for(repair)

        def rounds(theta):
            return [(shared.q(theta), shared.jacobian(theta)) for _ in range(25)]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(rounds, thetas, timeout=60))
        finally:
            sys.setswitchinterval(previous)
        for (q, jacobian), rounds in zip(reference, results):
            for got_q, got_jacobian in rounds:
                np.testing.assert_array_equal(got_q, q)
                np.testing.assert_array_equal(got_jacobian, jacobian)

    def test_envelope_gradient_matches_central_differences(self, repair):
        lowered = lowered_for(repair)
        step = 1e-7
        checked = 0
        for theta in seeded_thetas(repair, 40, seed=1):
            if greedy_gap(repair, lowered, lowered.q(theta)) <= 1e-6:
                continue
            jacobian = lowered.jacobian(theta)
            for i in range(repair.features.dimension):
                offset = np.zeros_like(theta)
                offset[i] = step
                central = (
                    lowered.q(theta + offset) - lowered.q(theta - offset)
                ) / (2 * step)
                np.testing.assert_allclose(
                    jacobian[:, i], central, rtol=1e-6, atol=1e-6
                )
            checked += 1
        assert checked >= 10


    def test_kink_takes_greedy_policy_piece(self):
        # At θ = (1, 1) both fork actions tie with different slopes;
        # the jacobian is the slope of the action greedy_policy picks
        # (the first in enumeration order), seen from the predecessor.
        mdp = MDP(
            states=["pre", "fork", "left", "right", "end"],
            transitions={
                "pre": {"go": {"fork": 1.0}},
                "fork": {"a": {"left": 1.0}, "b": {"right": 1.0}},
                "left": {"go": {"end": 1.0}},
                "right": {"go": {"end": 1.0}},
                "end": {"go": {"end": 1.0}},
            },
            initial_state="pre",
        )
        features = TabularFeatureMap(
            {
                "pre": [0.0, 0.0],
                "fork": [0.0, 0.0],
                "left": [1.0, 0.0],
                "right": [0.0, 1.0],
                "end": [0.0, 0.0],
            }
        )
        repair = RewardRepair(mdp, features, discount=DISCOUNT)
        theta = np.array([1.0, 1.0])
        assert repair.optimal_policy(theta)["fork"] == "a"
        lowered = lowered_for(repair)
        q = lowered.q(theta)
        assert q[lowered.choice("fork", "a")] == q[lowered.choice("fork", "b")]
        np.testing.assert_allclose(
            lowered.jacobian(theta)[lowered.choice("pre", "go")],
            [DISCOUNT**2, 0.0],
        )


class TestQProblem:
    def test_undiscounted_keeps_verdict_without_gradient(
        self, shortcut_mdp, shortcut_features
    ):
        theta = np.array([0.5, 1.0])
        spec = [QValueConstraint("start", "around", "shortcut", margin=1e-3)]
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=1.0)
        discounted_repair = RewardRepair(
            shortcut_mdp, shortcut_features, discount=DISCOUNT
        )
        problem = repair.q_problem(theta, spec)
        assert all(c.gradient is None for c in problem.constraints)
        problem = discounted_repair.q_problem(theta, spec)
        assert all(c.gradient is not None for c in problem.constraints)
        undiscounted = repair.q_constrained(theta, spec)
        discounted = discounted_repair.q_constrained(theta, spec)
        assert undiscounted.status == discounted.status == "repaired"
        assert undiscounted.verified and discounted.verified
        assert undiscounted.policy_after["start"] == "around"

    def test_verify_rejects_violated_preference(
        self, shortcut_mdp, shortcut_features
    ):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        theta = np.array([0.5, 1.0])
        problem = repair.q_problem(
            theta, [QValueConstraint("start", "around", "shortcut")]
        )
        # The learned θ prefers the shortcut: no repair happened.
        assert not problem.run_verify(theta)
        # A weight that makes the detour strictly better passes.
        assert problem.run_verify(np.array([-0.5, 1.0]))
        # With no margin, a tie passes the tolerance but is no preference.
        tie = repair.q_problem(
            theta, [QValueConstraint("start", "around", "shortcut", margin=0.0)]
        )
        assert not tie.run_verify(np.array([0.0, 1.0]))
        assert tie.run_verify(np.array([-1e-3, 1.0]))

    def test_verify_rejects_margin_shortfall(
        self, shortcut_mdp, shortcut_features
    ):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        problem = repair.q_problem(
            np.array([0.5, 1.0]),
            [QValueConstraint("start", "around", "shortcut", margin=0.5)],
        )
        # Q(start, around) − Q(start, shortcut) = −0.9·θ₀: 0.09 > 0 here,
        # but short of the 0.5 margin by far more than the tolerance.
        assert not problem.run_verify(np.array([-0.1, 1.0]))
        assert problem.run_verify(np.array([-0.6, 1.0]))

    def test_no_mdp_built_inside_the_solve(
        self, monkeypatch, shortcut_mdp, shortcut_features
    ):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        built = []
        solve_builds = []
        real_init = MDP.__init__
        real_solve = NonlinearProgram.solve

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        def counting_solve(self, *args, **kwargs):
            before = len(built)
            outcome = real_solve(self, *args, **kwargs)
            solve_builds.append(len(built) - before)
            return outcome

        monkeypatch.setattr(MDP, "__init__", counting_init)
        monkeypatch.setattr(NonlinearProgram, "solve", counting_solve)
        result = repair.q_constrained(
            np.array([0.5, 1.0]),
            [QValueConstraint("start", "around", "shortcut")],
        )
        assert result.verified
        assert solve_builds == [0]
        # verify, policy_before, policy_after and the repaired MDP.
        assert len(built) == 4


class TestCarRegression:
    def test_e6_objective_policy_and_evaluations(self):
        mdp = car.build_car_mdp()
        repair = RewardRepair(mdp, car.car_features(), discount=car.DISCOUNT)
        result = repair.q_constrained(
            np.asarray(car.PAPER_LEARNED_THETA, dtype=float),
            [QValueConstraint("S1", car.LEFT, car.FORWARD)],
        )
        assert result.status == "repaired"
        assert result.verified
        assert result.objective_value == pytest.approx(E6_OBJECTIVE, rel=1e-9)
        assert result.policy_after["S1"] == car.LEFT
        # 1,585 with finite-differenced dictionary Q-constraints.
        assert result.solver_stats["function_evaluations"] <= 100
