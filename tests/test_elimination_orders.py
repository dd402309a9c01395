"""Verdict identity across elimination orders and snapshot resumes.

The speed layer (min-degree ordering, incremental corridor
re-elimination) must never change what the checker concludes: every
ordering of the same elimination and every snapshot-resumed corridor
computes the *same* rational function, so evaluations at any parameter
point agree to within accumulated float rounding (≤ 1e-12 here — the
symbolic pipeline is exact, only the final float conversion rounds).

Covered:

* all five ``repro.corpus`` families, full elimination, insertion vs
  min-degree ordering;
* the sub-stochastic ``restricted_constraint`` corridor path: scratch vs
  snapshot-resumed elimination on a grown corridor, against the
  truncated-model reference;
* hypothesis-randomized DTMCs (the seeded ``random`` family).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checking import CheckCache
from repro.checking.parametric import (
    ELIMINATION_ORDERS,
    corridor_elimination,
    parametric_constraint,
    restricted_constraint,
    restricted_model,
)
from repro.corpus import FAMILIES
from repro.logic import parse_pctl

TOLERANCE = 1e-12


def _spec(family, size, seed=None):
    kwargs = {"seed": seed} if seed is not None else {}
    problem = FAMILIES[family].repair(size, **kwargs).problem()
    spec = problem.parametric[0]
    return spec.resolve_model(), spec.formula, problem.initial_assignment()


def _evaluation_points(assignment):
    """The initial assignment plus two deterministic jitters of it.

    Points are exact ``Fraction``s so evaluation stays on the symbolic
    exact path — elimination can produce coefficients too large for
    float64 even when the final value is tame.
    """
    exact = {
        name: Fraction(value).limit_denominator(10**9)
        for name, value in assignment.items()
    }
    points = [dict(exact)]
    for shift in (Fraction(3, 1000), Fraction(-2, 1000)):
        points.append({name: value + shift for name, value in exact.items()})
    return points


def _assert_same_function(left, right, points):
    for point in points:
        assert float(left.evaluate(point)) == pytest.approx(
            float(right.evaluate(point)), abs=TOLERANCE
        )


def _upper_bound_formula(family, model):
    """An upper-bound reachability formula the corridor path accepts.

    ``network`` (R<=) and ``refuel`` (P<=) already point the right way;
    the lower-bound families get a synthetic ``P<= 0.99 [F goal]`` on
    their own goal atom — direction is all the truncation relaxation
    cares about.
    """
    fam = FAMILIES[family]
    formula = fam.repair(fam.sizes[0]).problem().parametric[0].formula
    if formula.comparison in ("<", "<="):
        return None  # the family formula itself is usable
    return parse_pctl(f'P<=0.99 [F "{fam.goal_atom}"]')


def _growing_corridors(model, formula):
    """Two nested corridors connecting the initial state to a goal.

    A BFS shortest path from the initial state to a target seeds both
    corridors (so neither truncation degenerates to the zero
    constraint); the larger one additionally admits a prefix of the BFS
    exploration order.
    """
    from collections import deque

    from repro.checking.parametric import label_satisfaction_set

    targets = set(
        label_satisfaction_set(model.states, model.labels, formula.path.right)
    )
    parent = {model.initial_state: None}
    order = [model.initial_state]
    queue = deque([model.initial_state])
    hit = model.initial_state if model.initial_state in targets else None
    while queue and hit is None:
        state = queue.popleft()
        for successor in model.transitions.get(state, {}):
            if successor in parent:
                continue
            parent[successor] = state
            order.append(successor)
            if successor in targets:
                hit = successor
                break
            queue.append(successor)
    path = set()
    walk = hit
    while walk is not None:
        path.add(walk)
        walk = parent[walk]
    small = path | set(order[: max(2, len(order) // 3)]) | targets
    large = small | set(order[: max(3, (2 * len(order)) // 3)])
    if large == small:
        large = small | set(order)
    return small, large


class TestOrderIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_orders_agree_on_each_family(self, family):
        fam = FAMILIES[family]
        model, formula, assignment = _spec(family, fam.sizes[0])
        points = _evaluation_points(assignment)
        stats = {}
        gauss = parametric_constraint(model, formula)
        insertion = parametric_constraint(
            model, formula, method="eliminate", order="insertion"
        )
        min_degree = parametric_constraint(
            model, formula, method="eliminate", order="min-degree", stats=stats
        )
        _assert_same_function(insertion.function, min_degree.function, points)
        _assert_same_function(gauss.function, min_degree.function, points)
        assert insertion.comparison == min_degree.comparison
        assert insertion.bound == min_degree.bound
        assert stats.get("eliminated", 0) > 0

    def test_orders_are_the_documented_set(self):
        assert set(ELIMINATION_ORDERS) == {"insertion", "min-degree"}

    def test_unknown_order_rejected(self):
        model, formula, _ = _spec("grid", FAMILIES["grid"].sizes[0])
        with pytest.raises(ValueError):
            parametric_constraint(
                model, formula, method="eliminate", order="sideways"
            )


class TestCorridorIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_resume_matches_scratch_and_truncation(self, family):
        fam = FAMILIES[family]
        model, formula, assignment = _spec(family, fam.sizes[0])
        synthetic = _upper_bound_formula(family, model)
        if synthetic is not None:
            formula = synthetic
        points = _evaluation_points(assignment)
        small, large = _growing_corridors(model, formula)

        scratch_small, snapshot = corridor_elimination(model, formula, small)
        assert snapshot is not None
        stats = {}
        resumed, _ = corridor_elimination(
            model, formula, large, snapshot=snapshot, stats=stats
        )
        scratch_large, _ = corridor_elimination(model, formula, large)
        reference = parametric_constraint(
            restricted_model(model, large), formula
        )

        _assert_same_function(resumed.function, scratch_large.function, points)
        _assert_same_function(resumed.function, reference.function, points)
        assert stats.get("resumed", 0) == 1
        # The truncation relaxes: small corridor ≤ large corridor value
        # would need monotone mass, but identity with the truncated
        # reference is the contract — spot-check the small one too.
        small_reference = parametric_constraint(
            restricted_model(model, small), formula
        )
        _assert_same_function(
            scratch_small.function, small_reference.function, points
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_restricted_constraint_cache_path(self, family):
        fam = FAMILIES[family]
        model, formula, assignment = _spec(family, fam.sizes[0])
        synthetic = _upper_bound_formula(family, model)
        if synthetic is not None:
            formula = synthetic
        points = _evaluation_points(assignment)
        small, large = _growing_corridors(model, formula)

        cache = CheckCache(max_entries=32)
        first, snapshot = restricted_constraint(
            model, formula, small, cache=cache, with_snapshot=True
        )
        grown, _ = restricted_constraint(
            model,
            formula,
            large,
            cache=cache,
            snapshot=snapshot,
            with_snapshot=True,
        )
        scratch = restricted_constraint(model, formula, large)
        _assert_same_function(grown.function, scratch.function, points)
        stats = cache.stats()
        assert stats["parametric_eliminations"] >= (
            2 if large != small else 1
        )
        assert stats["elimination_states"] > 0
        assert stats["elimination_reuse_hits"] >= 1
        # Exact-key warm reuse: same corridor again is served from the
        # cache without a new elimination.
        before = cache.stats()["parametric_eliminations"]
        again, _ = restricted_constraint(
            model, formula, large, cache=cache, with_snapshot=True
        )
        assert cache.stats()["parametric_eliminations"] == before
        _assert_same_function(again.function, grown.function, points)


class TestRandomizedChains:
    @settings(max_examples=12, deadline=None)
    @given(
        size=st.integers(min_value=12, max_value=20),
        seed=st.integers(min_value=0, max_value=1000),
    )
    # A chain whose intermediate GCDs overran the remainder-sequence
    # budget: unreduced, its elimination never finished in either order.
    @example(size=12, seed=962)
    def test_orders_agree_on_random_chains(self, size, seed):
        model, formula, assignment = _spec("random", size, seed=seed)
        points = _evaluation_points(assignment)
        insertion = parametric_constraint(
            model, formula, method="eliminate", order="insertion"
        )
        min_degree = parametric_constraint(
            model, formula, method="eliminate", order="min-degree"
        )
        _assert_same_function(insertion.function, min_degree.function, points)

    @settings(max_examples=8, deadline=None)
    @given(
        size=st.integers(min_value=12, max_value=20),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_corridor_resume_on_random_chains(self, size, seed):
        model, _, assignment = _spec("random", size, seed=seed)
        formula = parse_pctl('P<=0.99 [F "goal"]')
        points = _evaluation_points(assignment)
        small, large = _growing_corridors(model, formula)

        scratch_small, snapshot = corridor_elimination(model, formula, small)
        resumed, _ = corridor_elimination(
            model, formula, large, snapshot=snapshot
        )
        scratch_large, _ = corridor_elimination(model, formula, large)
        reference = parametric_constraint(
            restricted_model(model, large), formula
        )
        _assert_same_function(resumed.function, scratch_large.function, points)
        _assert_same_function(resumed.function, reference.function, points)
