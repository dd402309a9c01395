"""The global ``gauss`` engine against its two reference algorithms.

``method="gauss"`` first eliminates every constant-row state (the
parametric core reduction) and then runs fraction-free Cramer on what is
left.  Both steps are exact, so the closed form must be *identical* —
``RationalFunction ==``, no tolerance — to

* fraction-free Cramer on the unreduced restricted matrix (the engine
  before the reduction step, rebuilt here from its two building blocks),
  and
* Daws state elimination of every state in min-degree order.

Covered: hypothesis-drawn ``repro.corpus.random_dtmc`` chains with 0–3
perturbed rows under ``F goal``, until with an ``allowed`` set,
``F {goal, trap}`` and ``R [F {goal, trap}]``; the five corpus families
at their smallest size; a parameter-free chain; parametric state rewards
on constant rows; and Data Repair's rational MLE rows (paper E4).  The
reduction also reports its work through the ``CheckCache`` counters.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import wsn
from repro.checking import CheckCache
from repro.checking.parametric import (
    ParametricDTMC,
    label_satisfaction_set,
    parametric_constraint,
)
from repro.corpus import FAMILIES, random_dtmc
from repro.logic.pctl import ProbabilisticOperator, RewardOperator, Until
from repro.symbolic import Polynomial, RationalFunction


def _unreduced_cramer(model, targets, allowed=None, reward=False):
    """Cramer on the full restricted matrix: the engine without reduction."""
    targets = set(targets)
    if model.initial_state in targets:
        return RationalFunction.zero() if reward else RationalFunction.one()
    matrix = model._restricted_matrix(targets, allowed)
    if matrix is None:
        if reward:
            raise ValueError("initial state cannot reach the target")
        return RationalFunction.zero()
    rhs = {}
    for state, row in matrix.items():
        if state in targets:
            continue
        if reward:
            rhs[state] = model.state_rewards[state]
        else:
            mass = RationalFunction.zero()
            for target in targets:
                if target in row:
                    mass = mass + row[target]
            rhs[state] = mass
    return model._cramer_solve(matrix, targets, rhs)


def _query(model, query, method, **kwargs):
    targets, allowed, reward = query
    if reward:
        return model.expected_reward(targets, method=method, **kwargs)
    return model.reachability_probability(
        targets, allowed=allowed, method=method, **kwargs
    )


def _assert_engines_agree(model, query):
    """All three algorithms give the same function, or all reject."""
    targets, allowed, reward = query
    try:
        expected = _unreduced_cramer(model, targets, allowed, reward)
    except ValueError:
        with pytest.raises(ValueError):
            _query(model, query, "gauss")
        with pytest.raises(ValueError):
            _query(model, query, "eliminate", order="min-degree")
        return
    gauss = _query(model, query, "gauss")
    eliminate = _query(model, query, "eliminate", order="min-degree")
    assert gauss == expected
    assert eliminate == expected


def _formula_query(model, formula):
    """(targets, allowed, reward) of an unbounded until or reward formula."""
    def sat(sub):
        return set(label_satisfaction_set(model.states, model.labels, sub))

    if isinstance(formula, RewardOperator):
        return sat(formula.path.right), None, True
    assert isinstance(formula, ProbabilisticOperator)
    assert isinstance(formula.path, Until) and formula.path.step_bound is None
    return sat(formula.path.right), sat(formula.path.left), False


def _perturbed(chain, rows):
    """``chain`` lifted to a parametric one with ``rows`` perturbed.

    Each perturbed row moves a parameter's worth of mass between its
    first two successors (or onto a new self-loop when it has only one),
    the shape Model Repair gives a controllable row.
    """
    transitions = {
        s: {t: Polynomial.constant(Fraction(p)) for t, p in row.items()}
        for s, row in chain.transitions.items()
    }
    for index, state in enumerate(rows):
        variable = Polynomial.variable(f"v{index}")
        row = transitions[state]
        successors = list(row)
        if len(successors) == 1:
            successors.append(state)
            row[state] = Polynomial.zero()
        first, second = successors[:2]
        row[first] = row[first] + variable
        row[second] = row[second] - variable
    return ParametricDTMC(
        states=chain.states,
        transitions=transitions,
        initial_state=chain.initial_state,
        labels=chain.labels,
        state_rewards=chain.state_rewards,
    )


class TestRandomChains:
    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=5, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
        picks=st.lists(st.integers(min_value=0, max_value=1000), max_size=3),
    )
    def test_gauss_matches_references(self, size, seed, picks):
        chain = random_dtmc(states=size, seed=seed)
        goal, trap = size - 1, size - 2
        rows = sorted({pick % (size - 2) for pick in picks})
        model = _perturbed(chain, rows)
        allowed = {s for s in model.states if s % 3 != 1}
        for query in (
            ({goal}, None, False),
            ({goal}, allowed, False),
            ({goal, trap}, None, False),
            ({goal, trap}, None, True),
        ):
            _assert_engines_agree(model, query)


class TestCorpusAndCaseStudies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_smallest_family_member(self, family):
        fam = FAMILIES[family]
        spec = fam.repair(fam.sizes[0]).problem().parametric[0]
        model = spec.resolve_model()
        _assert_engines_agree(model, _formula_query(model, spec.formula))

    def test_parameter_free_chain(self):
        model = ParametricDTMC.from_dtmc(random_dtmc(states=10, seed=3))
        assert model.parameters() == frozenset()
        for query in (({9}, None, False), ({8, 9}, None, True)):
            _assert_engines_agree(model, query)

    def test_parametric_rewards_on_constant_rows(self):
        # Only the rewards are parametric: every row is constant, so the
        # reduction leaves just the initial state and the targets.
        chain = random_dtmc(states=9, seed=11)
        r = Polynomial.variable("r")
        model = ParametricDTMC(
            states=chain.states,
            transitions=chain.transitions,
            initial_state=chain.initial_state,
            labels=chain.labels,
            state_rewards={
                s: (r * s + 1 if s < 7 else 0) for s in chain.states
            },
        )
        _assert_engines_agree(model, ({7, 8}, None, True))
        stats = {}
        model.expected_reward({7, 8}, stats=stats)
        assert stats["eliminated"] == 6

    def test_data_repair_mle_rows(self):
        dataset = wsn.generate_observation_dataset(episodes=400, seed=7)
        repair = wsn.data_repair_problem(dataset, wsn.DEFAULT_DATA_REPAIR_BOUND)
        spec = repair.problem().parametric[0]
        model = spec.resolve_model()
        _assert_engines_agree(model, _formula_query(model, spec.formula))


class TestObservability:
    @staticmethod
    def _eliminated(spec):
        cache = CheckCache()
        cache.parametric_constraint(spec.resolve_model(), spec.formula)
        return cache.stats()["elimination_states"]

    def test_gauss_reports_reduced_states(self):
        spec = FAMILIES["grid"].repair(5).problem().parametric[0]
        assert self._eliminated(spec) > 0

    def test_all_parametric_chain_reduces_nothing(self):
        # The WSN E2 chain is parametric in every transient row: the
        # core is the whole chain.
        spec = wsn.model_repair_problem(40).problem().parametric[0]
        assert self._eliminated(spec) == 0


def test_min_degree_is_the_default_order_everywhere():
    for function in (
        parametric_constraint,
        ParametricDTMC.reachability_probability,
        ParametricDTMC.expected_reward,
        CheckCache.parametric_constraint,
    ):
        default = inspect.signature(function).parameters["order"].default
        assert default == "min-degree", function.__qualname__
