"""The region check: soundness, agreement with the NLP, and its memo.

The interval region of ``ModelRepair.for_chain`` is exact, so sampled
repairs never beat its best value and nature's extremal chain attains
it.  The lifted region of ``ModelRepair.from_parametric`` is a sound
bound, so sampled box points never beat it.  Whenever a region proves
infeasibility, the NLP over the same problem's constraints must fail as
well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import wsn
from repro.checking.cache import CheckCache
from repro.checking.mdp import MDPModelChecker
from repro.core import ModelRepair
from repro.core.api import check_model
from repro.corpus import FAMILIES, random_dtmc
from repro.logic import parse_pctl
from repro.logic.pctl import RewardOperator
from repro.mdp import DTMC, MDP
from repro.optimize import NonlinearProgram
from repro.repair import (
    CegisRepair,
    RegionProof,
    RepairResult,
    RobustRepair,
    solve_repair,
)
from repro.repair.robust import _reachability_form

TOLERANCE = 1e-9

MATRIX = (
    ("drone", (8, 12, 16)),
    ("grid", (3, 4, 5)),
    ("network", (3, 4, 5)),
    ("random", (12, 16, 24)),
    ("refuel", (8, 12, 16)),
)


def coin_chain():
    return DTMC(
        states=["s0", "good", "bad"],
        transitions={
            "s0": {"good": 0.5, "bad": 0.5},
            "good": {"good": 1.0},
            "bad": {"bad": 1.0},
        },
        initial_state="s0",
        labels={"good": {"good"}},
    )


def beats(value, best, maximise):
    """Whether ``value`` is strictly better than ``best`` past the tolerance."""
    slack = TOLERANCE * max(1.0, abs(best))
    return value > best + slack if maximise else value < best - slack


def sample_member(interval_chain, rng):
    """A random row-stochastic chain inside the interval chain."""
    transitions = {}
    for state, row in interval_chain.intervals.items():
        targets = list(row)
        probs = np.array([row[t][0] for t in targets])
        slack = np.array([row[t][1] - row[t][0] for t in targets])
        free = 1.0 - probs.sum()
        # A random partial fill, then a greedy fill in random order.
        for greedy in (False, True):
            for i in rng.permutation(len(targets)):
                share = min(slack[i], free) * (1.0 if greedy else rng.random())
                probs[i] += share
                slack[i] -= share
                free -= share
        transitions[state] = {
            t: float(p) for t, p in zip(targets, probs / probs.sum()) if p > 0
        }
    return DTMC(
        states=interval_chain.states,
        transitions=transitions,
        initial_state=interval_chain.initial_state,
        labels=interval_chain.labels,
        state_rewards=interval_chain.state_rewards,
    )


def nlp_feasible(problem) -> bool:
    """The multi-start NLP over the problem's own constraints."""
    program = NonlinearProgram(
        variables=problem.variables,
        objective=problem.cost,
        objective_gradient=problem.cost_gradient,
        constraints=problem.solver_constraints(),
    )
    return program.solve(stacked=problem.stacked_kernel()).feasible


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
class TestIntervalRegionIsExact:
    @settings(max_examples=25, deadline=None)
    @given(
        states=st.integers(4, 9),
        seed=st.integers(0, 10_000),
        delta=st.floats(0.005, 0.4),
        reward=st.booleans(),
        maximise=st.booleans(),
    )
    def test_no_sample_beats_best_and_extremal_attains_it(
        self, states, seed, delta, reward, maximise
    ):
        chain = random_dtmc(states, seed=seed)
        comparison = ">=" if maximise else "<="
        formula = parse_pctl(
            f'R{comparison}1 [ F "goal" | "trap" ]'
            if reward
            else f'P{comparison}0.5 [ F "goal" ]'
        )
        region = ModelRepair.for_chain(
            chain, formula, max_perturbation=delta
        ).region
        best = region.best(formula, maximise)
        assert not math.isnan(best)

        interval_chain = region.interval_chain()
        targets, _avoid, _kind = _reachability_form(interval_chain, formula)
        solve = (
            interval_chain.expected_reward_values_report
            if reward
            else interval_chain.reachability_values_report
        )
        values, _report = solve(targets, maximise, tolerance=0.0)
        assert values[chain.initial_state] == best
        extremal = interval_chain.extremal_chain(values, maximise)
        assert interval_chain.contains(extremal)
        attained = check_model(extremal, formula, engine="dense").value
        if math.isinf(best):
            assert attained == best
        else:
            assert attained == pytest.approx(best, rel=TOLERANCE, abs=TOLERANCE)

        rng = np.random.default_rng(seed)
        for _ in range(10):
            member = sample_member(interval_chain, rng)
            value = check_model(member, formula, engine="dense").value
            assert not beats(value, best, maximise)

    def test_region_matches_nlp_bounds(self):
        """Margins and δ clip the interval rows like the NLP bounds."""
        chain = coin_chain()
        formula = parse_pctl('P<=0.3 [ F "good" ]')
        region = ModelRepair.for_chain(
            chain, formula, max_perturbation=0.6, margin=0.01
        ).region
        row = region.interval_chain().intervals["s0"]
        assert row["good"] == (0.01, 0.99)
        tight = ModelRepair.for_chain(chain, formula, max_perturbation=0.1).region
        assert tight.interval_chain().intervals["s0"]["good"] == (0.4, 0.6)
        assert tight.interval_chain().intervals["good"] == {"good": (1.0, 1.0)}


def lifted_cases():
    yield "wsn", wsn.model_repair_problem(40)
    for size in (3, 4):
        yield f"monitored@{size}", wsn.monitored_repair_problem(0.01, size=size)


def with_comparison(formula, comparison):
    """``formula`` with another comparison (same bound and path)."""
    if isinstance(formula, RewardOperator):
        return RewardOperator(comparison, formula.bound, formula.path, formula.label)
    return type(formula)(comparison, formula.bound, formula.path)


def lifted_mdp(repair):
    """The lifted MDP of a ``from_parametric`` repair as an :class:`MDP`:
    each state's actions are its row at the box corners."""
    model = repair.parametric_model
    return MDP(
        states=model.states,
        transitions={
            state: {
                f"corner{i}": {t: p for t, p in corner.items() if p > 0.0}
                for i, corner in enumerate(
                    repair.region._corner_rows(model.transitions[state])
                )
            }
            for state in model.states
        },
        initial_state=model.initial_state,
        labels=model.labels,
        state_rewards={
            state: float(model.state_rewards[state].constant_value())
            for state in model.states
        },
    )


class TestLiftedRegionIsSound:
    @pytest.mark.parametrize("name", ["wsn", "monitored@3", "monitored@4"])
    @settings(max_examples=15, deadline=None)
    @given(fractions=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
    def test_no_box_point_beats_lifted_best(self, name, fractions):
        repair = dict(lifted_cases())[name]
        formula = repair.formula
        bounds = {
            maximise: repair.region.best(formula, maximise)
            for maximise in (False, True)
        }
        assert not any(math.isnan(b) for b in bounds.values())
        point = {
            v.name: v.lower + fractions[i % len(fractions)] * (v.upper - v.lower)
            for i, v in enumerate(repair.variables)
        }
        member = repair.parametric_model.instantiate(point)
        value = check_model(member, formula, engine="dense").value
        assert not beats(value, bounds[False], maximise=False)
        assert not beats(value, bounds[True], maximise=True)

    @pytest.mark.parametrize("name", ["wsn", "monitored@3", "monitored@4"])
    def test_corner_hulls_bound_the_lifted_mdp(self, name):
        """The interval hulls contain every corner action, so their best
        value is at least as good as the lifted MDP's, which the
        value-iteration MDP checker computes (a universal ``⋈ b`` checks
        the worst scheduler, so ``>=`` gives the minimum and ``<=`` the
        maximum)."""
        repair = dict(lifted_cases())[name]
        mdp = lifted_mdp(repair)
        for maximise, comparison in ((False, ">="), (True, "<=")):
            formula = with_comparison(repair.formula, comparison)
            expected = MDPModelChecker(mdp).check(formula).value
            best = repair.region.best(formula, maximise)
            assert not beats(expected, best, maximise)
            if name != "wsn":  # the monitored hulls lose nothing
                assert best == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_wsn_bound_matches_the_paper_case(self):
        repair = wsn.model_repair_problem(19)
        assert repair.region.best(repair.formula, False) == pytest.approx(
            33.7783, abs=1e-4
        )

    def test_outside_the_fragment_is_inconclusive(self):
        from repro.checking.parametric import ParametricDTMC
        from repro.optimize import Variable
        from repro.symbolic import Polynomial

        p = Polynomial.variable("p")
        squared = ParametricDTMC(
            states=["a", "b"],
            transitions={"a": {"b": p * p, "a": 1 - p * p}, "b": {"b": 1}},
            initial_state="a",
            labels={"b": {"done"}},
        )
        formula = parse_pctl('P<=0.1 [ F "done" ]')
        chain = squared.instantiate({"p": 0.5})
        repair = ModelRepair.from_parametric(
            chain, formula, squared, [Variable("p", 0.1, 0.9, initial=0.5)]
        )
        assert math.isnan(repair.region.best(formula, False))
        assert repair.problem().run_region() is None


# ----------------------------------------------------------------------
# Differential: a proof means the NLP is infeasible too
# ----------------------------------------------------------------------
def differential_cases():
    for name, sizes in MATRIX:
        for size in sizes:
            yield f"{name}@{size}", 0
    for seed in range(1, 10):
        for size in (12, 16, 24):
            yield f"random@{size}", seed


class TestProofImpliesNlpInfeasible:
    @pytest.mark.parametrize("case,seed", list(differential_cases()))
    def test_corpus(self, case, seed):
        name, size = case.split("@")
        family = FAMILIES[name]
        repair = family.repair(int(size), seed, cache=CheckCache())
        repair.cache = CheckCache()
        problem = repair.problem()
        proof = problem.run_region()
        if (case, seed) == ("random@24", 0):
            assert proof is not None and proof.kind == "interval"
        elif seed == 0:
            assert proof is None  # the other matrix points are repaired
        if proof is not None:
            assert not nlp_feasible(problem)

    @pytest.mark.parametrize("bound", [19, 40])
    def test_wsn(self, bound):
        repair = wsn.model_repair_problem(bound)
        repair.cache = CheckCache()
        problem = repair.problem()
        proof = problem.run_region()
        assert (proof is not None) == (bound == 19)
        if proof is not None:
            assert proof.kind == "lifted"
            assert not nlp_feasible(problem)


# ----------------------------------------------------------------------
# The engine, CEGIS and results
# ----------------------------------------------------------------------
class TestProvedInfeasible:
    def test_proof_skips_elimination_and_nlp(self):
        repair = wsn.model_repair_problem(19)
        repair.cache = CheckCache()
        result = repair.repair()
        assert result.status == "infeasible"
        assert result.proof.kind == "lifted"
        assert result.proof.best > result.proof.bound == 19.0
        assert result.message.startswith("proved infeasible")
        assert (result.assignment, result.objective_value) == ({}, 0.0)
        assert result.solver_stats == {}
        assert result.repaired_model is None
        assert repair.cache.stats()["parametric_eliminations"] == 0

    def test_proof_round_trips(self):
        result = ModelRepair.for_chain(
            coin_chain(),
            parse_pctl('P<=0.3 [ F "good" ]'),
            max_perturbation=0.01,
        ).repair()
        assert result.proof.to_dict() == {
            "kind": "interval",
            "best": pytest.approx(0.49),
            "comparison": "<=",
            "bound": 0.3,
        }
        payload = result.to_dict()
        rebuilt = RepairResult.from_dict(payload)
        assert isinstance(rebuilt.proof, RegionProof)
        assert rebuilt.to_dict() == payload

    def test_nlp_infeasible_carries_no_proof(self):
        repair = wsn.model_repair_problem(37)  # lifted 33.78 < 37
        result = repair.repair()
        assert result.status == "infeasible"
        assert result.proof is None
        assert result.to_dict()["proof"] is None

    def test_cegis_proves_before_localizing(self):
        base = wsn.model_repair_problem(19)
        base.cache = CheckCache()
        result = CegisRepair(base).repair(seed=0)
        assert result.status == "infeasible"
        assert result.proof is not None and result.iterations == 0
        assert base.cache.stats()["parametric_eliminations"] == 0
        rebuilt = RepairResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_cegis_rounds_never_rerun_the_region(self):
        base = wsn.monitored_repair_problem(0.02, size=4)
        base.cache = CheckCache()
        result = CegisRepair(base).repair(seed=0)
        assert result.status == "repaired" and result.iterations > 1
        assert base.cache.stats()["region_solves"] == 1
        assert base.cache.stats()["region_hits"] == 0


class TestRegionMemo:
    def test_second_solve_records_no_new_region_solve(self):
        repair = wsn.model_repair_problem(19)
        cache = repair.cache = CheckCache()
        assert solve_repair(repair.problem()).status == "infeasible"
        assert cache.stats()["region_solves"] == 1
        assert solve_repair(repair.problem()).status == "infeasible"
        assert cache.stats()["region_solves"] == 1
        assert cache.stats()["region_hits"] == 1

    def test_bound_is_not_part_of_the_key(self):
        cache = CheckCache()
        for bound in (19, 25, 30):
            repair = wsn.model_repair_problem(bound)
            repair.cache = cache
            assert repair.problem().run_region() is not None
        assert cache.stats()["region_solves"] == 1
        assert cache.stats()["region_hits"] == 2

    def test_robust_repair_records_one_region_solve(self):
        base = wsn.model_repair_problem(45)
        cache = base.cache = CheckCache()
        result = RobustRepair(base, epsilon=0.01).repair()
        assert result.outer_iterations > 1
        assert cache.stats()["region_solves"] == 1
        assert cache.stats()["region_hits"] == result.outer_iterations - 1

    @pytest.mark.parametrize("first", ["s0", "s1"])
    def test_initial_state_is_part_of_the_key(self, first):
        """Two chains that differ only in their initial state share a
        fingerprint; one shared cache must still keep their values
        apart."""
        def chain(initial):
            return DTMC(
                states=["s0", "s1", "good", "bad"],
                transitions={
                    "s0": {"good": 0.5, "bad": 0.5},
                    "s1": {"good": 0.31, "bad": 0.69},
                    "good": {"good": 1.0},
                    "bad": {"bad": 1.0},
                },
                initial_state=initial,
                labels={"good": {"good"}},
            )

        formula = parse_pctl('P<=0.3 [ F "good" ]')
        cache = CheckCache()
        results = {}
        for initial in (first, "s1" if first == "s0" else "s0"):
            repair = ModelRepair.for_chain(
                chain(initial), formula, max_perturbation=0.05
            )
            repair.cache = cache
            results[initial] = repair.repair()
        assert results["s0"].status == "infeasible"
        assert results["s0"].proof.best == pytest.approx(0.45)
        assert results["s1"].status == "repaired"
        assert results["s1"].proof is None
        assert cache.stats()["region_solves"] == 2

    def test_clear_resets_region_counters(self):
        cache = CheckCache()
        repair = wsn.model_repair_problem(19)
        repair.cache = cache
        repair.problem().run_region()
        cache.clear()
        assert cache.stats()["region_solves"] == 0
        assert cache.stats()["region_hits"] == 0
