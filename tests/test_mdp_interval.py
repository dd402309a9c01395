"""Tests for interval chains and the robustness certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking import DTMCModelChecker
from repro.logic import parse_pctl
from repro.logic.pctl import AtomicProposition, Eventually
from repro.mdp import (
    DTMC,
    IntervalDTMC,
    ModelValidationError,
    chain_dtmc,
    random_dtmc,
    robustness_certificate,
)


class TestConstruction:
    def test_row_feasibility_enforced(self):
        with pytest.raises(ModelValidationError):
            IntervalDTMC(
                states=["a"],
                intervals={"a": {"a": (0.2, 0.4)}},  # cannot sum to 1
                initial_state="a",
            )

    def test_bad_interval_rejected(self):
        with pytest.raises(ModelValidationError):
            IntervalDTMC(
                states=["a"],
                intervals={"a": {"a": (0.6, 0.4)}},
                initial_state="a",
            )

    def test_from_dtmc_clamps(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.5)
        lower, upper = interval.intervals["start"]["good"]
        assert lower == pytest.approx(0.1)
        assert upper == pytest.approx(1.0)

    def test_from_dtmc_near_deterministic_chain(self):
        # A learned chain can carry probabilities a hair above 1.0 from
        # float error; the ε-ball must clamp into [0, 1] instead of
        # producing an inverted or infeasible interval.
        chain = DTMC(
            states=["a", "b"],
            transitions={"a": {"b": 1.0 + 5e-10}, "b": {"b": 1.0}},
            initial_state="a",
        )
        for epsilon in (0.0, 0.01):
            interval = IntervalDTMC.from_dtmc(chain, epsilon=epsilon)
            lower, upper = interval.intervals["a"]["b"]
            assert 0.0 <= lower <= upper <= 1.0
            assert interval.contains(chain)

    def test_from_dtmc_keeps_structural_zeros(self, two_path_chain):
        # The ε-ball widens existing edges only; absent transitions stay
        # structurally impossible rather than gaining mass.
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.1)
        for state, row in two_path_chain.transitions.items():
            assert set(interval.intervals[state]) == set(row)

    def test_epsilon_ball_pins_explicit_zero(self):
        from repro.mdp.interval import _epsilon_ball_row

        ball = _epsilon_ball_row({"a": 0.0, "b": 1.0}, epsilon=0.05)
        assert ball["a"] == (0.0, 0.0)
        assert ball["b"] == (0.95, 1.0)

    def test_contains_original_and_perturbations(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.05)
        assert interval.contains(two_path_chain)
        nudged = two_path_chain.with_transitions(
            {"start": {"good": 0.63, "bad": 0.27, "start": 0.1}}
        )
        assert interval.contains(nudged)
        far = two_path_chain.with_transitions(
            {"start": {"good": 0.8, "bad": 0.1, "start": 0.1}}
        )
        assert not interval.contains(far)


class TestRobustReachability:
    def test_degenerate_interval_equals_concrete(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.0)
        exact = DTMCModelChecker(two_path_chain).path_probabilities(
            Eventually(AtomicProposition("safe"))
        )[two_path_chain.initial_state]
        assert interval.reachability_probability(
            {"good"}, maximise=True
        ) == pytest.approx(exact)
        assert interval.reachability_probability(
            {"good"}, maximise=False
        ) == pytest.approx(exact)

    def test_min_below_max(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.05)
        low = interval.reachability_probability({"good"}, maximise=False)
        high = interval.reachability_probability({"good"}, maximise=True)
        assert low < high

    def test_hand_computed_bounds(self):
        # start: good in [0.4,0.6], bad in [0.4,0.6]; one step decides.
        interval = IntervalDTMC(
            states=["start", "good", "bad"],
            intervals={
                "start": {"good": (0.4, 0.6), "bad": (0.4, 0.6)},
                "good": {"good": (1.0, 1.0)},
                "bad": {"bad": (1.0, 1.0)},
            },
            initial_state="start",
            labels={"good": {"safe"}},
        )
        assert interval.reachability_probability({"good"}, True) == pytest.approx(0.6)
        assert interval.reachability_probability({"good"}, False) == pytest.approx(0.4)

    @given(st.integers(0, 500), st.floats(0.0, 0.05))
    @settings(max_examples=15, deadline=None)
    def test_interval_bounds_bracket_members(self, seed, epsilon):
        """Any concrete chain inside the intervals has its reachability
        between the robust min and max."""
        chain = random_dtmc(5, seed=seed, num_labels=1)
        atoms = sorted(chain.atoms())
        if not atoms:
            return
        targets = set(chain.states_with_atom(atoms[0]))
        if not targets:
            return
        interval = IntervalDTMC.from_dtmc(chain, epsilon)
        exact = DTMCModelChecker(chain).path_probabilities(
            Eventually(AtomicProposition(atoms[0]))
        )[chain.initial_state]
        low = interval.reachability_probability(targets, maximise=False)
        high = interval.reachability_probability(targets, maximise=True)
        assert low - 1e-7 <= exact <= high + 1e-7


class TestRobustReward:
    def test_degenerate_equals_concrete(self, simple_chain):
        interval = IntervalDTMC.from_dtmc(simple_chain, epsilon=0.0)
        assert interval.expected_reward({4}, maximise=True) == pytest.approx(
            4 / 0.8
        )

    def test_worst_case_exceeds_best_case(self):
        chain = chain_dtmc(4, forward_probability=0.6)
        interval = IntervalDTMC.from_dtmc(chain, epsilon=0.05)
        worst = interval.expected_reward({3}, maximise=True)
        best = interval.expected_reward({3}, maximise=False)
        assert best < 3 / 0.6 < worst

    def test_infinite_when_adversary_blocks(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.0)
        assert interval.expected_reward({"good"}, maximise=True) == np.inf


class TestVIReports:
    def test_reachability_report_converges(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.05)
        values, report = interval.reachability_values_report(
            {"good"}, maximise=True
        )
        assert report.converged and not report.diverged
        assert report.iterations > 0
        assert values["good"] == pytest.approx(1.0)

    def test_reachability_report_respects_cap(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.05)
        _values, report = interval.reachability_values_report(
            {"good"}, maximise=True, max_iterations=1
        )
        assert not report.converged
        assert report.iterations == 1

    def test_reward_report_converges(self, simple_chain):
        interval = IntervalDTMC.from_dtmc(simple_chain, epsilon=0.0)
        values, report = interval.expected_reward_values_report(
            {4}, maximise=True
        )
        assert report.converged and not report.diverged
        assert values[simple_chain.initial_state] == pytest.approx(4 / 0.8)

    def test_report_round_trips_to_dict(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.0)
        _values, report = interval.reachability_values_report(
            {"good"}, maximise=False
        )
        payload = report.to_dict()
        assert set(payload) == {
            "iterations", "converged", "residual", "diverged"
        }


class TestExtremalChain:
    def test_extremal_chain_attains_robust_bound(self, two_path_chain):
        interval = IntervalDTMC.from_dtmc(two_path_chain, epsilon=0.05)
        values = interval.reachability_values({"good"}, maximise=True)
        witness = interval.extremal_chain(values, maximise=True)
        exact = DTMCModelChecker(witness).path_probabilities(
            Eventually(AtomicProposition("safe"))
        )[witness.initial_state]
        assert exact == pytest.approx(values[interval.initial_state], abs=1e-6)
        assert interval.contains(witness)


class TestRobustnessCertificate:
    def test_certificate_holds_for_slack_property(self, simple_chain):
        # E = 5 attempts; bound 10 survives small perturbations.
        assert robustness_certificate(
            simple_chain, parse_pctl('R<=10 [ F "goal" ]'), epsilon=0.02
        )

    def test_certificate_fails_on_tight_property(self, simple_chain):
        # Bound 5 is exactly the nominal value — any adverse drift breaks it.
        assert not robustness_certificate(
            simple_chain, parse_pctl('R<=5 [ F "goal" ]'), epsilon=0.02
        )

    def test_probability_certificate(self, two_path_chain):
        formula = parse_pctl('P>=0.55 [ F "safe" ]')
        assert robustness_certificate(two_path_chain, formula, epsilon=0.01)
        tight = parse_pctl('P>=0.66 [ F "safe" ]')
        assert not robustness_certificate(two_path_chain, tight, epsilon=0.05)

    def test_repaired_model_certificate_story(self):
        """Repair to slack below the bound, then certify the slack."""
        from repro.core import ModelRepair

        chain = chain_dtmc(5, forward_probability=0.5)
        result = ModelRepair.for_chain(
            chain, parse_pctl('R<=5.5 [ F "goal" ]')
        ).repair()
        assert result.status == "repaired"
        # The repair lands near the bound; certify against a looser one.
        assert robustness_certificate(
            result.repaired_model, parse_pctl('R<=7 [ F "goal" ]'), epsilon=0.01
        )

    def test_unsupported_formula_rejected(self, two_path_chain):
        with pytest.raises(TypeError):
            robustness_certificate(
                two_path_chain, parse_pctl("safe"), epsilon=0.01
            )


class TestIntervalMDP:
    from repro.mdp import IntervalMDP  # noqa: PLC0415 — scoped import

    def build(self):
        from repro.mdp import IntervalMDP

        return IntervalMDP(
            states=["s", "goal", "trap"],
            intervals={
                "s": {
                    "risky": {
                        "goal": (0.6, 0.9),
                        "trap": (0.1, 0.4),
                    },
                    "steady": {
                        "goal": (0.7, 0.7),
                        "trap": (0.3, 0.3),
                    },
                },
                "goal": {"stay": {"goal": (1.0, 1.0)}},
                "trap": {"stay": {"trap": (1.0, 1.0)}},
            },
            initial_state="s",
            labels={"goal": {"goal"}},
        )

    def test_pessimistic_nature_prefers_steady(self):
        imdp = self.build()
        # Against worst-case nature, risky yields 0.6 < steady's 0.7.
        value = imdp.reachability_probability(
            {"goal"}, controller_maximises=True, nature_maximises=False
        )
        assert value == pytest.approx(0.7)

    def test_optimistic_nature_prefers_risky(self):
        imdp = self.build()
        value = imdp.reachability_probability(
            {"goal"}, controller_maximises=True, nature_maximises=True
        )
        assert value == pytest.approx(0.9)

    def test_minimising_controller(self):
        imdp = self.build()
        value = imdp.reachability_probability(
            {"goal"}, controller_maximises=False, nature_maximises=False
        )
        assert value == pytest.approx(0.6)

    def test_from_mdp_degenerate_matches_mdp_checker(self, two_action_mdp):
        from repro.checking import MDPModelChecker
        from repro.logic.pctl import AtomicProposition, Eventually
        from repro.mdp import IntervalMDP

        imdp = IntervalMDP.from_mdp(two_action_mdp, epsilon=0.0)
        pmax = MDPModelChecker(two_action_mdp).path_probabilities(
            Eventually(AtomicProposition("goal")), maximise=True
        )["s"]
        robust = imdp.reachability_probability(
            {"goal"}, controller_maximises=True, nature_maximises=False
        )
        assert robust == pytest.approx(pmax)

    def test_uncertainty_widens_the_band(self, two_action_mdp):
        from repro.mdp import IntervalMDP

        tight = IntervalMDP.from_mdp(two_action_mdp, epsilon=0.0)
        loose = IntervalMDP.from_mdp(two_action_mdp, epsilon=0.05)
        assert loose.reachability_probability(
            {"goal"}, True, False
        ) <= tight.reachability_probability({"goal"}, True, False) + 1e-9
        assert loose.reachability_probability(
            {"goal"}, True, True
        ) >= tight.reachability_probability({"goal"}, True, True) - 1e-9

    def test_infeasible_row_rejected(self):
        from repro.mdp import IntervalMDP, ModelValidationError

        with pytest.raises(ModelValidationError):
            IntervalMDP(
                states=["a"],
                intervals={"a": {"act": {"a": (0.1, 0.2)}}},
                initial_state="a",
            )

    def test_state_without_actions_rejected(self):
        from repro.mdp import IntervalMDP, ModelValidationError

        with pytest.raises(ModelValidationError):
            IntervalMDP(states=["a"], intervals={}, initial_state="a")


class TestNatureStrategyIteration:
    """Edge cases of the exact solver that random chains rarely hit."""

    def test_reward_min_on_zero_reward_cycle_follows_rmin(self):
        # Nature may cycle a -> b -> a forever at zero cost, but every
        # path that reaches t pays 1 on e.  Rmin ranges over strategies
        # that reach the target, so the value is 1, not the least
        # fixpoint 0 value iteration converges to.
        interval = IntervalDTMC(
            states=["a", "b", "e", "t"],
            intervals={
                "a": {"b": (0.0, 1.0), "e": (0.0, 1.0)},
                "b": {"a": (1.0, 1.0)},
                "e": {"t": (1.0, 1.0)},
                "t": {"t": (1.0, 1.0)},
            },
            initial_state="a",
            state_rewards={"e": 1.0},
        )
        values, report = interval.expected_reward_values_report(
            {"t"}, maximise=False
        )
        assert report.converged and not report.diverged
        assert values["a"] == pytest.approx(1.0)
        assert values["b"] == pytest.approx(1.0)
        witness = interval.extremal_chain(values, maximise=False)
        assert witness.probability("a", "e") == pytest.approx(1.0)

    def test_tied_rows_keep_their_strategy(self):
        # The first pick sends c through g1 (reward 5) rather than the
        # free detour g2 -> h, so c switches in round two.  Meanwhile a
        # is tied between b and e; switching a on that tie would close
        # the zero-reward cycle a <-> b and leave a singular system.
        interval = IntervalDTMC(
            states=["a", "b", "e", "c", "g1", "g2", "h", "t"],
            intervals={
                "a": {"b": (0.0, 1.0), "e": (0.0, 1.0)},
                "b": {"a": (1.0, 1.0)},
                "e": {"t": (1.0, 1.0)},
                "c": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)},
                "g1": {"t": (1.0, 1.0)},
                "g2": {"h": (1.0, 1.0)},
                "h": {"t": (1.0, 1.0)},
            },
            initial_state="c",
            state_rewards={"e": 1.0, "g1": 5.0},
        )
        values, report = interval.expected_reward_values_report(
            {"t"}, maximise=False
        )
        assert report.converged and not report.diverged
        assert report.iterations == 3  # first pick, one switch, validation
        assert values["c"] == pytest.approx(0.0)
        assert values["a"] == pytest.approx(1.0)

    def test_min_reachability_sees_a_trap_hidden_by_ties(self):
        # u1 and u2 can bounce between each other forever, so nature's
        # minimum is 0 even though a tied first pick routes both to t.
        interval = IntervalDTMC(
            states=["u1", "u2", "x", "y", "t"],
            intervals={
                "u1": {"x": (0.0, 1.0), "u2": (0.0, 1.0)},
                "u2": {"y": (0.0, 1.0), "u1": (0.0, 1.0)},
                "x": {"t": (1.0, 1.0)},
                "y": {"t": (1.0, 1.0)},
            },
            initial_state="u1",
        )
        values, report = interval.reachability_values_report(
            {"t"}, maximise=False
        )
        assert report.converged
        assert values["u1"] == pytest.approx(0.0)
        assert interval.reachability_probability({"t"}, True) == pytest.approx(
            1.0
        )

    def test_sweeps_counted_and_single_sweep_never_certifies(self):
        interval = IntervalDTMC.from_dtmc(chain_dtmc(6, 0.7), epsilon=0.05)
        _values, report = interval.expected_reward_values_report(
            {5}, maximise=True
        )
        assert report.converged and 2 <= report.iterations <= 10
        assert report.residual <= 1e-10
        _values, capped = interval.expected_reward_values_report(
            {5}, maximise=True, max_iterations=1
        )
        assert capped.iterations == 1 and not capped.converged
