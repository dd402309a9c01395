"""Unit tests for Reward Repair (Definition 2, Section IV-C)."""

import numpy as np
import pytest

from repro.core import QValueConstraint, RewardRepair
from repro.logic.ltl import LGlobally, state_atom
from repro.logic.rules import LtlRule


UNSAFE_THETA = np.array([0.5, 1.0])  # positive weight on the shortcut


class TestQConstrained:
    def test_unsafe_before_repair(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        policy = repair.optimal_policy(UNSAFE_THETA)
        assert policy["start"] == "shortcut"

    def test_repair_flips_preference(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        result = repair.q_constrained(
            UNSAFE_THETA,
            [QValueConstraint("start", "around", "shortcut", margin=1e-3)],
        )
        assert result.feasible
        assert result.policy_before["start"] == "shortcut"
        assert result.policy_after["start"] == "around"

    def test_repair_is_small(self, shortcut_mdp, shortcut_features):
        """min ||Δθ|| should not move θ more than needed (≈ the gap)."""
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        result = repair.q_constrained(
            UNSAFE_THETA,
            [QValueConstraint("start", "around", "shortcut", margin=1e-3)],
        )
        # Brute hand repair: drop the shortcut weight by 0.5 (cost 0.25).
        assert float(np.sum(result.theta_delta() ** 2)) <= 0.25 + 1e-2

    def test_repaired_mdp_carries_rewards(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        result = repair.q_constrained(
            UNSAFE_THETA, [QValueConstraint("start", "around", "shortcut")]
        )
        assert result.repaired_mdp.state_rewards == result.rewards_after

    def test_infeasible_with_tiny_delta_bound(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        result = repair.q_constrained(
            UNSAFE_THETA,
            [QValueConstraint("start", "around", "shortcut", margin=0.5)],
            delta_bound=1e-4,
        )
        assert not result.feasible


class TestProjection:
    def test_projection_reduces_violation(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        rule = LtlRule(LGlobally(~state_atom("danger")), weight=30.0)
        result = repair.project(
            UNSAFE_THETA,
            [rule],
            horizon=3,
            stop_states={"end"},
            learning_rate=0.2,
            max_iterations=150,
        )
        d = result.diagnostics
        assert d["violation_probability_projected"] < d[
            "violation_probability_before"
        ]
        assert d["violation_probability_after"] < d["violation_probability_before"]
        assert d["kl_q_from_p"] >= 0.0

    def test_projected_rewards_disfavour_danger(
        self, shortcut_mdp, shortcut_features
    ):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        rule = LtlRule(LGlobally(~state_atom("danger")), weight=30.0)
        result = repair.project(
            UNSAFE_THETA, [rule], horizon=3, stop_states={"end"},
            learning_rate=0.2, max_iterations=150,
        )
        # The shortcut feature weight must drop.
        assert result.theta_after[0] < result.theta_before[0]

    def test_theta_delta(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        rule = LtlRule(LGlobally(~state_atom("danger")), weight=10.0)
        result = repair.project(
            UNSAFE_THETA, [rule], horizon=3, stop_states={"end"},
            max_iterations=20,
        )
        assert result.theta_delta() == pytest.approx(
            result.theta_after - result.theta_before
        )


class TestSampledProjection:
    def test_sampled_route_matches_exact_direction(
        self, shortcut_mdp, shortcut_features
    ):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        rule = LtlRule(LGlobally(~state_atom("danger")), weight=30.0)
        exact = repair.project(
            UNSAFE_THETA, [rule], horizon=3, stop_states={"end"},
            learning_rate=0.2, max_iterations=120,
        )
        sampled = repair.project_sampled(
            UNSAFE_THETA, [rule], horizon=3, samples=2500, seed=2,
            learning_rate=0.2, max_iterations=120,
        )
        # Both push the shortcut feature weight down.
        assert sampled.theta_after[0] < sampled.theta_before[0]
        assert np.sign(sampled.theta_delta()[0]) == np.sign(
            exact.theta_delta()[0]
        )

    def test_sampled_diagnostics(self, shortcut_mdp, shortcut_features):
        repair = RewardRepair(shortcut_mdp, shortcut_features, discount=0.9)
        rule = LtlRule(LGlobally(~state_atom("danger")), weight=30.0)
        result = repair.project_sampled(
            UNSAFE_THETA, [rule], horizon=3, samples=1500, seed=4,
            max_iterations=40,
        )
        d = result.diagnostics
        assert d["sampled"] == 1.0
        assert 0.0 <= d["violation_probability_projected"] <= d[
            "violation_probability_before"
        ]
