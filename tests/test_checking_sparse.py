"""Sparse-vs-dense engine equivalence, cache behaviour, and bug fixes.

The sparse CSR engine of :mod:`repro.checking.matrix` must produce
*identical* verdicts and probabilities (to 1e-10 absolute) as the dense
dictionary reference on the case-study models and random models.  This
suite is the build's safety net for the vectorised backend — the
repo-level conftest fails the run if it is skipped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.casestudies.car import build_car_mdp
from repro.casestudies.wsn import attempts_property, build_wsn_chain, build_wsn_mdp
from repro.checking import (
    CheckCache,
    DTMCModelChecker,
    MDPModelChecker,
    cached_check,
    model_fingerprint,
    parametric_fingerprint,
)
from repro.checking.cache import get_cache
from repro.checking.graph import (
    backward_reachable,
    bottom_strongly_connected_components,
    prob0A_states,
    prob0E_states,
    prob1A_states,
    prob1E_states,
    prob0_states,
    prob1_states,
    strongly_connected_components,
)
from repro.checking.matrix import get_dtmc_matrix, get_mdp_matrix
from repro.checking.parametric import ParametricDTMC, analysis_count
from repro.logic import parse_pctl
from repro.mdp import random_dtmc, random_mdp
from repro.symbolic import Polynomial

TOLERANCE = 1e-10

WSN_DTMC_FORMULAS = [
    'P>=0.5 [ F "delivered" ]',
    'P>=0.1 [ F<=6 "delivered" ]',
    'P>=0.5 [ X "delivered" ]',
    'P>=0.5 [ G !"delivered" ]',
    'S>=0.5 [ "delivered" ]',
    "R<=10 [ C<=5 ]",
]

RANDOM_DTMC_FORMULAS = [
    'P>=0.5 [ F "l0" ]',
    'P>=0.5 [ "l0" U "l1" ]',
    'P>=0.2 [ "l0" U<=4 "l1" ]',
    'P>=0.5 [ X "l1" ]',
    'S>=0.3 [ "l0" ]',
    'R<=3 [ F "l1" ]',
]

CAR_MDP_FORMULAS = [
    'P<=0.5 [ F "unsafe" ]',
    'P>=0.1 [ F "target" ]',
    'P<=0.5 [ F<=4 "collision" ]',
    'P>=0.0 [ X "rightlane" ]',
    'P>=0.5 [ G !"unsafe" ]',
    "R<=10 [ C<=5 ]",
    'R<=100 [ F "target" ]',
]

RANDOM_MDP_FORMULAS = [
    'P<=0.5 [ F "l0" ]',
    'P>=0.1 [ "l0" U "l1" ]',
    'P<=0.9 [ "l0" U<=3 "l1" ]',
    'P>=0.0 [ X "l1" ]',
    "R<=10 [ C<=4 ]",
    'R<=50 [ F "l0" ]',
]


def _labelled_random_mdp(num_states, seed):
    """:func:`random_mdp` with parity labels (the builder emits none)."""
    from repro.mdp.model import MDP

    bare = random_mdp(num_states, seed=seed)
    labels = {
        state: {"l0"} if index % 2 == 0 else {"l1"}
        for index, state in enumerate(bare.states)
    }
    return MDP(
        states=bare.states,
        transitions={
            state: {
                action: dict(row)
                for action, row in bare.transitions[state].items()
            }
            for state in bare.states
        },
        initial_state=bare.initial_state,
        state_rewards=dict(bare.state_rewards),
        labels=labels,
    )


def _assert_values_close(dense_values, sparse_values, atol=TOLERANCE):
    assert set(dense_values) == set(sparse_values)
    for state, dense_value in dense_values.items():
        sparse_value = sparse_values[state]
        if np.isinf(dense_value) or np.isinf(sparse_value):
            assert dense_value == sparse_value, state
        else:
            assert abs(dense_value - sparse_value) <= atol, (
                state,
                dense_value,
                sparse_value,
            )


def _assert_dtmc_equivalent(chain, formula_text):
    formula = parse_pctl(formula_text)
    dense = DTMCModelChecker(chain, engine="dense").check(formula)
    sparse = DTMCModelChecker(chain, engine="sparse").check(formula)
    assert dense.holds == sparse.holds
    assert dense.satisfaction_set == sparse.satisfaction_set
    if dense.values is not None:
        _assert_values_close(dense.values, sparse.values)


def _assert_mdp_equivalent(mdp, formula_text, atol=TOLERANCE):
    formula = parse_pctl(formula_text)
    dense = MDPModelChecker(mdp, engine="dense").check(formula)
    sparse = MDPModelChecker(mdp, engine="sparse").check(formula)
    assert dense.holds == sparse.holds
    assert dense.satisfaction_set == sparse.satisfaction_set
    if dense.values is not None:
        _assert_values_close(dense.values, sparse.values, atol=atol)


class TestDTMCEquivalence:
    @pytest.mark.parametrize("formula_text", WSN_DTMC_FORMULAS)
    def test_wsn_chain(self, formula_text):
        chain = build_wsn_chain(size=3)
        _assert_dtmc_equivalent(chain, formula_text)

    def test_wsn_attempts_reward(self):
        chain = build_wsn_chain(size=4)
        _assert_dtmc_equivalent(chain, str(attempts_property(30)))

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 668])
    @pytest.mark.parametrize("formula_text", RANDOM_DTMC_FORMULAS)
    def test_random_chains(self, seed, formula_text):
        chain = random_dtmc(8, seed=seed)
        _assert_dtmc_equivalent(chain, formula_text)

    def test_two_path_chain(self, two_path_chain):
        for formula_text in (
            'P>=0.6 [ F "safe" ]',
            'P<=0.4 [ F "unsafe" ]',
            'R<=2 [ F "safe" ]',
            'S>=0.5 [ "safe" ]',
        ):
            _assert_dtmc_equivalent(two_path_chain, formula_text)


class TestMDPEquivalence:
    @pytest.mark.parametrize("formula_text", CAR_MDP_FORMULAS)
    def test_car_mdp(self, formula_text):
        _assert_mdp_equivalent(build_car_mdp(), formula_text)

    def test_wsn_mdp(self):
        mdp = build_wsn_mdp(size=3)
        _assert_mdp_equivalent(mdp, 'P>=0.1 [ F "delivered" ]')
        _assert_mdp_equivalent(mdp, 'P<=0.9 [ F<=5 "delivered" ]')

    @pytest.mark.parametrize("seed", [0, 3, 11, 99])
    @pytest.mark.parametrize("formula_text", RANDOM_MDP_FORMULAS)
    def test_random_mdps(self, seed, formula_text):
        mdp = _labelled_random_mdp(7, seed=seed)
        # Reward value iteration is iterative in BOTH engines; the dense
        # Gauss-Seidel stop criterion alone is 1e-10, so the cross-engine
        # gap on adversarially slow-mixing random models can exceed the
        # 1e-10 budget that the case-study models meet.
        atol = 5e-9 if formula_text.startswith("R<=50") else TOLERANCE
        _assert_mdp_equivalent(mdp, formula_text, atol=atol)

    def test_two_action_mdp(self, two_action_mdp):
        for formula_text in (
            'P>=0.5 [ F "goal" ]',
            'P<=0.95 [ F "goal" ]',
            'P<=0.5 [ F<=1 "goal" ]',
        ):
            _assert_mdp_equivalent(two_action_mdp, formula_text)


class TestGraphEquivalence:
    @pytest.mark.parametrize("seed", [0, 5, 17, 123])
    def test_dtmc_qualitative_sets(self, seed):
        chain = random_dtmc(9, seed=seed)
        atoms = sorted(chain.atoms())
        targets = set(chain.states_with_atom(atoms[0]))
        allowed = set(chain.states_with_atom(atoms[-1])) | targets
        for kwargs in ({}, {"allowed": allowed}):
            assert prob0_states(
                chain, targets, engine="sparse", **kwargs
            ) == prob0_states(chain, targets, engine="dense", **kwargs)
            assert prob1_states(
                chain, targets, engine="sparse", **kwargs
            ) == prob1_states(chain, targets, engine="dense", **kwargs)
        assert backward_reachable(
            chain, targets, engine="sparse"
        ) == backward_reachable(chain, targets, engine="dense")
        assert backward_reachable(
            chain, targets, through=allowed, engine="sparse"
        ) == backward_reachable(chain, targets, through=allowed, engine="dense")

    @pytest.mark.parametrize("seed", [0, 5, 17, 123])
    def test_mdp_qualitative_sets(self, seed):
        mdp = _labelled_random_mdp(8, seed=seed)
        targets = set(mdp.states_with_atom("l0"))
        for function in (
            prob0A_states,
            prob0E_states,
            prob1A_states,
            prob1E_states,
        ):
            assert function(mdp, targets, engine="sparse") == function(
                mdp, targets, engine="dense"
            ), function.__name__

    @pytest.mark.parametrize("seed", [0, 2, 31, 77])
    def test_scc_decomposition(self, seed):
        chain = random_dtmc(10, seed=seed)
        dense = strongly_connected_components(chain, engine="dense")
        sparse = strongly_connected_components(chain, engine="sparse")
        assert set(dense) == set(sparse)
        # Both orders must be reverse-topological: edges leaving a
        # component may only point at earlier-listed components.
        for components in (dense, sparse):
            position = {}
            for rank, component in enumerate(components):
                for state in component:
                    position[state] = rank
            for state in chain.states:
                for target in chain.successors(state):
                    if position[target] != position[state]:
                        assert position[target] < position[state]
        assert set(
            bottom_strongly_connected_components(chain, engine="dense")
        ) == set(bottom_strongly_connected_components(chain, engine="sparse"))

    def test_unknown_engine_rejected(self, two_path_chain):
        with pytest.raises(ValueError, match="unknown engine"):
            prob0_states(two_path_chain, {"good"}, engine="cuda")
        with pytest.raises(ValueError, match="unknown engine"):
            DTMCModelChecker(two_path_chain, engine="cuda")


class TestMatrixAndCache:
    def test_matrix_memoised_on_model(self, two_path_chain):
        assert get_dtmc_matrix(two_path_chain) is get_dtmc_matrix(two_path_chain)

    def test_mdp_matrix_memoised(self, two_action_mdp):
        assert get_mdp_matrix(two_action_mdp) is get_mdp_matrix(two_action_mdp)

    def test_fingerprint_content_addressed(self):
        a = random_dtmc(6, seed=4)
        b = random_dtmc(6, seed=4)
        c = random_dtmc(6, seed=5)
        assert model_fingerprint(a) == model_fingerprint(b)
        assert model_fingerprint(a) != model_fingerprint(c)

    def test_fingerprint_sees_rewards(self, two_path_chain):
        bumped = two_path_chain.with_rewards({"start": 2.0})
        assert model_fingerprint(two_path_chain) != model_fingerprint(bumped)

    def test_get_or_compute_hits_and_misses(self):
        cache = CheckCache()
        assert cache.get_or_compute(("k",), lambda: 1) == 1
        assert cache.get_or_compute(("k",), lambda: 2) == 1
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        cache.clear()
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)

    def test_cached_check_reuses_result(self, two_path_chain):
        cache = CheckCache()
        formula = parse_pctl('P>=0.6 [ F "safe" ]')
        first = cached_check(two_path_chain, formula, cache=cache)
        second = cached_check(two_path_chain, formula, cache=cache)
        assert first is second
        assert cache.hits == 1

    def test_parametric_constraint_memoised(self):
        p = Polynomial.variable("p")
        model = ParametricDTMC(
            states=["a", "b", "c"],
            transitions={
                "a": {"b": p, "a": 1 - p},
                "b": {"c": 1},
                "c": {"c": 1},
            },
            initial_state="a",
            labels={"c": {"done"}},
        )
        formula = parse_pctl('P>=0.5 [ F "done" ]')
        cache = CheckCache()
        before = analysis_count()
        first = cache.parametric_constraint(model, formula)
        second = cache.parametric_constraint(model, formula)
        assert first is second
        assert analysis_count() - before == 1
        # A content-identical rebuild still hits the cache.
        rebuilt = ParametricDTMC(
            states=["a", "b", "c"],
            transitions={
                "a": {"b": p, "a": 1 - p},
                "b": {"c": 1},
                "c": {"c": 1},
            },
            initial_state="a",
            labels={"c": {"done"}},
        )
        assert parametric_fingerprint(model) == parametric_fingerprint(rebuilt)
        assert cache.parametric_constraint(rebuilt, formula) is first

    def test_parametric_constraint_shared_across_bounds(self):
        """A tightened bound reuses the elimination, rebound to itself."""
        from repro.checking.parametric import parametric_constraint

        p, q = Polynomial.variable("p"), Polynomial.variable("q")
        model = ParametricDTMC(
            states=["a", "b", "c", "d"],
            transitions={
                "a": {"b": p, "a": 1 - p},
                "b": {"c": q, "d": 1 - q},
                "c": {"c": 1},
                "d": {"a": 1},
            },
            initial_state="a",
            labels={"c": {"done"}},
        )
        cache = CheckCache()
        loose = parse_pctl('P<=0.9 [ F "done" ]')
        tight = parse_pctl('P<=0.7 [ F "done" ]')
        first = cache.parametric_constraint(model, loose)
        second = cache.parametric_constraint(model, tight)
        assert cache.stats()["parametric_eliminations"] == 1
        assert second.function is first.function
        assert second.compiled() is first.compiled()
        assert (second.comparison, second.bound) == ("<=", 0.7)
        assert cache.parametric_constraint(model, loose) is first
        fresh = parametric_constraint(model, tight)
        for point in ({"p": 0.3, "q": 0.2}, {"p": 0.9, "q": 0.6}):
            assert second.margin(point) == pytest.approx(
                fresh.margin(point), abs=1e-12
            )
            assert second.fast_margin(point) == pytest.approx(
                fresh.margin(point), abs=1e-12
            )
            x = np.array([point[name] for name in second.stacked().params])
            assert second.stacked().margins(x)[0] == pytest.approx(
                fresh.margin(point), abs=1e-12
            )

    def test_get_cache_defaults_to_global(self):
        private = CheckCache()
        assert get_cache(private) is private
        assert get_cache(None) is get_cache(None)


class TestRepairCacheReuse:
    def test_model_repair_runs_one_elimination(self):
        from repro.casestudies.wsn import model_repair_problem

        # X=40 needs the NLP; at X=19 the region check proves
        # infeasibility before any elimination runs.
        problem = model_repair_problem(bound=40)
        problem.cache = CheckCache()
        before = analysis_count()
        problem.repair()
        assert analysis_count() - before == 1
        problem.repair()
        assert analysis_count() - before == 1
        assert problem.cache.hits >= 2


class TestParametricAbsorbingStates:
    """Regression: p(s,s) == 1 during elimination raised ZeroDivisionError."""

    def _trap_model(self):
        z = Polynomial.variable("z")
        return ParametricDTMC(
            states=["a", "trap", "goal"],
            transitions={
                "a": {"trap": 0.5, "goal": z},
                "trap": {"trap": 1},
                "goal": {"goal": 1},
            },
            initial_state="a",
            labels={"goal": {"done"}},
        )

    def test_eliminate_survives_absorbing_trap(self):
        function = self._trap_model().reachability_probability(
            {"goal"}, method="eliminate"
        )
        assert float(function.evaluate({"z": 0.3})) == pytest.approx(0.3)

    def test_eliminate_agrees_with_concrete_check(self):
        model = self._trap_model()
        function = model.reachability_probability({"goal"}, method="eliminate")
        assignment = {"z": 0.5}
        concrete = model.instantiate(assignment)
        expected = DTMCModelChecker(concrete).path_probabilities(
            parse_pctl('P>=0 [ F "done" ]').path
        )[concrete.initial_state]
        assert float(function.evaluate(assignment)) == pytest.approx(
            expected, abs=TOLERANCE
        )

    def test_absorbing_initial_state_reachability_is_zero(self):
        z = Polynomial.variable("z")
        model = ParametricDTMC(
            states=["a", "goal"],
            # Structurally the self-loop is exactly 1; the z-edge models a
            # repair candidate that is zero on the valid region.
            transitions={"a": {"a": 1, "goal": z}, "goal": {"goal": 1}},
            initial_state="a",
            labels={"goal": {"done"}},
        )
        function = model.reachability_probability({"goal"}, method="eliminate")
        assert function.is_zero()

    def test_absorbing_initial_state_reward_raises(self):
        z = Polynomial.variable("z")
        model = ParametricDTMC(
            states=["a", "goal"],
            transitions={"a": {"a": 1, "goal": z}, "goal": {"goal": 1}},
            initial_state="a",
            labels={"goal": {"done"}},
            state_rewards={"a": 1},
        )
        with pytest.raises(ValueError, match="infinite"):
            model.expected_reward({"goal"}, method="eliminate")


class TestHMMSamplingDeterminism:
    """Regression: sample() used an unseeded generator by default."""

    def _hmm(self):
        from repro.hmm.model import HMM

        return HMM(
            states=["rain", "sun"],
            symbols=["walk", "shop"],
            initial={"rain": 0.5, "sun": 0.5},
            transitions={
                "rain": {"rain": 0.7, "sun": 0.3},
                "sun": {"rain": 0.4, "sun": 0.6},
            },
            emissions={
                "rain": {"walk": 0.2, "shop": 0.8},
                "sun": {"walk": 0.6, "shop": 0.4},
            },
        )

    def test_default_is_deterministic(self):
        hmm = self._hmm()
        assert hmm.sample(25) == hmm.sample(25)

    def test_seed_parameter_changes_draws(self):
        hmm = self._hmm()
        assert hmm.sample(25, seed=0) == hmm.sample(25)
        assert hmm.sample(50, seed=1) != hmm.sample(50, seed=2)

    def test_explicit_rng_still_threads(self):
        hmm = self._hmm()
        a = hmm.sample(10, np.random.default_rng(3))
        b = hmm.sample(10, np.random.default_rng(3))
        assert a == b


class TestStartPointsWithInfiniteBounds:
    """Regression: infinite bounds were clamped to ±1.0 silently."""

    def test_one_sided_starts_stay_feasible(self, caplog):
        from repro.optimize.nlp import NonlinearProgram, Variable

        program = NonlinearProgram(
            variables=[Variable("z", 2.0, np.inf, initial=3.0)],
            objective=lambda v: (v["z"] - 2.5) ** 2,
        )
        with caplog.at_level("WARNING", logger="repro.optimize.nlp"):
            starts = program._start_points(extra_starts=12, seed=0)
        assert all(start[0] >= 2.0 for start in starts)
        assert any("infinite bound" in record.message for record in caplog.records)
        result = program.solve()
        assert result.feasible
        assert result.assignment["z"] == pytest.approx(2.5, abs=1e-6)

    def test_jitter_centres_on_initial_when_unbounded(self):
        from repro.optimize.nlp import NonlinearProgram, Variable

        program = NonlinearProgram(
            variables=[Variable("w", -np.inf, np.inf, initial=10.0)],
            objective=lambda v: v["w"] ** 2,
        )
        starts = program._start_points(extra_starts=16, seed=1)
        jittered = np.array([start[0] for start in starts[2:]])
        assert (np.abs(jittered - 10.0) <= 1.0 + 1e-12).all()
