"""Array forms of the repair program against the name→value dict path.

``NonlinearProgram.solve`` hands SLSQP every linear constraint as one
constant-jacobian block ``A x + c`` and evaluates a cost that publishes
``quadratic(order) -> Q`` as ``xᵀQx`` / ``2Qx``.  Both are evaluation
strategies only: the block must equal the per-constraint margins and
gradients (per start and in the joint block-diagonal layout), ``Q``
must reproduce the dict cost and its gradient, and the repairs must
reach the same verdicts and optima as the same programs with the
linear and quadratic declarations removed.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import wsn
from repro.core.costs import (
    frobenius_cost,
    l1_cost,
    max_cost,
    weighted_quadratic_cost,
)
from repro.core.model_repair import ModelRepair
from repro.corpus import FAMILIES
from repro.corpus.generators import random_dtmc
from repro.logic.parser import parse_pctl
from repro.optimize.nlp import (
    FEASIBILITY_TOLERANCE,
    Constraint,
    NonlinearProgram,
    Variable,
    _joint_linear_block,
    _linear_block,
)
from repro.repair.engine import solve_repair

NAMES = ["a", "b", "c", "d"]

finite = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def linear_constraints(draw):
    """A few linear constraints over a random subset of NAMES."""
    constraints = []
    for k in range(draw(st.integers(1, 4))):
        names = draw(
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True)
        )
        constraints.append(
            Constraint.from_linear(
                {n: draw(finite) for n in names},
                draw(finite),
                name=f"lin{k}",
            )
        )
    return constraints


def gradient_row(constraint, assignment):
    partials = constraint.gradient(assignment)
    return [partials.get(name, 0.0) for name in NAMES]


class TestLinearConstraint:
    def test_one_form_builds_every_hook(self):
        constraint = Constraint.from_linear({"a": 2.0, "b": -1.0}, 0.5)
        assert constraint.linear == ({"a": 2.0, "b": -1.0}, 0.5)
        point = {"a": 0.25, "b": 3.0}
        assert constraint.margin(point) == pytest.approx(-2.0, abs=1e-15)
        assert constraint.gradient(point) == {"a": 2.0, "b": -1.0}
        batch = constraint.batch_margin(np.array([[3.0, 0.25]]), ["b", "a"])
        assert batch[0] == pytest.approx(-2.0, abs=1e-15)
        assert not constraint.satisfied(point)

    def test_plain_constraints_declare_no_linear_form(self):
        assert Constraint(lambda v: v["a"]).linear is None

    @settings(max_examples=60, deadline=None)
    @given(linear_constraints(), st.lists(finite, min_size=4, max_size=4))
    def test_block_matches_per_constraint_path(self, constraints, point):
        matrix, offsets = _linear_block(constraints, NAMES)
        x = np.array(point)
        assignment = dict(zip(NAMES, point))
        expected = [c.value(assignment) for c in constraints]
        np.testing.assert_allclose(matrix @ x + offsets, expected, atol=1e-12)
        jacobian = [gradient_row(c, assignment) for c in constraints]
        np.testing.assert_array_equal(matrix, jacobian)

    @settings(max_examples=40, deadline=None)
    @given(
        linear_constraints(),
        st.integers(1, 4).flatmap(
            lambda blocks: st.lists(
                st.lists(finite, min_size=4, max_size=4),
                min_size=blocks,
                max_size=blocks,
            )
        ),
    )
    def test_joint_block_matches_per_constraint_path(self, constraints, points):
        """Constraint-major rows, as the joint program stacks them."""
        blocks = len(points)
        joint, offsets = _joint_linear_block(
            *_linear_block(constraints, NAMES), blocks
        )
        z = np.concatenate(points)
        matrix = np.array(points)
        expected = np.concatenate(
            [c.batch_values(matrix, NAMES) for c in constraints]
        )
        np.testing.assert_allclose(joint @ z + offsets, expected, atol=1e-12)
        jacobian = np.zeros((len(constraints) * blocks, blocks * len(NAMES)))
        for k, constraint in enumerate(constraints):
            for b, row in enumerate(points):
                jacobian[k * blocks + b, b * 4 : (b + 1) * 4] = gradient_row(
                    constraint, dict(zip(NAMES, row))
                )
        np.testing.assert_array_equal(joint, jacobian)

    def test_linear_block_beside_callback_constraints(self):
        program = NonlinearProgram(
            variables=[Variable("a", -1.0, 1.0)],
            objective=frobenius_cost,
            constraints=[
                Constraint.from_linear({"a": 1.0}, -0.5),
                Constraint(lambda v: 1.0, name="free"),
            ],
        )
        result = program.solve()
        assert result.feasible
        assert result.assignment["a"] == pytest.approx(0.5, abs=1e-6)


def chain_repair(cost, max_perturbation=None):
    """Edge-wise repair of a random chain with several multi-edge rows."""
    return ModelRepair.for_chain(
        random_dtmc(states=8, seed=3, branching=4),
        parse_pctl('P>=0.9 [ F "goal" ]'),
        max_perturbation=max_perturbation,
        cost=cost,
    )


QUADRATIC_COSTS = {
    "frobenius": lambda order: frobenius_cost,
    "weighted": lambda order: weighted_quadratic_cost(
        {name: 1.0 + k for k, name in enumerate(order[::2])}
    ),
    # A named cost acts on the full Z row: Q = Mᵀ I M.
    "chain-full-z": lambda order: chain_repair("frobenius").cost,
}


def central_difference(cost, order, x, step=1e-3):
    partials = []
    for k in range(len(order)):
        up, down = x.copy(), x.copy()
        up[k] += step
        down[k] -= step
        partials.append(
            (cost(dict(zip(order, up))) - cost(dict(zip(order, down))))
            / (2.0 * step)
        )
    return partials


class TestQuadraticForm:
    @pytest.mark.parametrize("case", list(QUADRATIC_COSTS))
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_dict_cost_and_gradient(self, case, seed):
        order = [v.name for v in chain_repair("frobenius").variables]
        cost = QUADRATIC_COSTS[case](order)
        x = np.random.default_rng(seed).uniform(-0.5, 0.5, len(order))
        assignment = dict(zip(order, x))
        quadratic = cost.quadratic(order)
        np.testing.assert_array_equal(quadratic, quadratic.T)
        assert float(x @ quadratic @ x) == pytest.approx(
            cost(assignment), rel=1e-12, abs=1e-12
        )
        if hasattr(cost, "gradient"):
            partials = cost.gradient(assignment)
            expected = [partials[name] for name in order]
            tolerance = 1e-12
        else:
            # The full-Z cost publishes no dict gradient: a central
            # difference of a quadratic is exact up to rounding.
            expected = central_difference(cost, order, x)
            tolerance = 1e-9
        np.testing.assert_allclose(
            2.0 * quadratic @ x, expected, rtol=tolerance, atol=tolerance
        )

    def test_full_z_form_couples_each_rows_variables(self):
        repair = chain_repair("frobenius")
        order = [v.name for v in repair.variables]
        quadratic = repair.cost.quadratic(order)
        # z_s→t and z_s→u share the dependent entry −(z_s→t + z_s→u).
        row_of = {name: name.split("_")[1] for name in order}
        for i, first in enumerate(order):
            for j, second in enumerate(order):
                expected = (2.0 if i == j else 1.0) * (
                    row_of[first] == row_of[second]
                )
                assert quadratic[i, j] == expected

    def test_non_quadratic_costs_keep_the_dict_path(self):
        for name, cost in (("l1", l1_cost), ("max", max_cost)):
            assert not hasattr(cost, "quadratic")
            assert not hasattr(chain_repair(name).cost, "quadratic")
        custom = chain_repair(lambda v: sum(abs(x) for x in v.values()))
        assert not hasattr(custom.cost, "quadratic")


class TestSplitDeltaRows:
    DELTA = 0.05

    def rows(self):
        repair = chain_repair("frobenius", max_perturbation=self.DELTA)
        by_name = {c.name: c for c in repair.extra_constraints}
        deltas = [n for n in by_name if "_delta" in n]
        assert deltas and all(
            n.endswith(("_delta_lower", "_delta_upper")) for n in deltas
        )
        assert all(by_name[n].linear is not None for n in by_name)
        pairs = []
        for name in deltas:
            if name.endswith("_delta_lower"):
                row = name[: -len("_delta_lower")]
                pairs.append(
                    (by_name[name], by_name[row + "_delta_upper"])
                )
        return repair, pairs

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_accept_exactly_the_bounded_row_sums(self, seed):
        repair, pairs = self.rows()
        rng = np.random.default_rng(seed)
        order = [v.name for v in repair.variables]
        assignment = dict(zip(order, rng.uniform(-0.08, 0.08, len(order))))
        for lower, upper in pairs:
            names = list(lower.linear[0])
            total = sum(assignment[n] for n in names)
            # Together the two smooth rows are the old δ − |Σz| ≥ 0.
            assert min(lower.value(assignment), upper.value(assignment)) == (
                pytest.approx(self.DELTA - abs(total), abs=1e-15)
            )
            accepted = lower.satisfied(assignment) and upper.satisfied(
                assignment
            )
            assert accepted == (abs(total) <= self.DELTA + FEASIBILITY_TOLERANCE)


def strip_declarations(problem):
    """``problem`` without its linear and quadratic declarations.

    Every extra constraint is re-wrapped from its margin, gradient and
    batch hooks only, and the cost from its callable only, so SLSQP
    reads all of them through name→value dicts.  A quadratic cost keeps
    a gradient, as the name→value dict ``2Qx``, so both programs take
    the same joint or per-start path.
    """
    stripped = copy.copy(problem)
    cost = problem.cost
    stripped.cost = lambda assignment: cost(assignment)
    if hasattr(cost, "quadratic"):
        order = [v.name for v in problem.variables]
        quadratic = cost.quadratic(order)

        def dict_gradient(assignment):
            x = np.array([assignment[name] for name in order])
            return dict(zip(order, 2.0 * quadratic @ x))

        stripped.cost_gradient = dict_gradient
    stripped.constraints = [
        Constraint(
            margin=c.margin,
            name=c.name,
            strict=c.strict,
            shift=c.shift,
            gradient=c.gradient,
            batch_margin=c.batch_margin,
            stack_spec=c.stack_spec,
        )
        for c in problem.constraints
    ]
    return stripped


def wsn_data_problem():
    dataset = wsn.generate_observation_dataset(episodes=400, seed=7)
    return wsn.data_repair_problem(
        dataset, wsn.DEFAULT_DATA_REPAIR_BOUND
    ).problem()


#: The corpus matrix points and the paper's E2 and E4.
MATRIX = (
    ("drone", (8, 12, 16)),
    ("grid", (3, 4, 5)),
    ("network", (3, 4, 5)),
    ("random", (12, 16, 24)),
    ("refuel", (8, 12, 16)),
)
REPAIRS = {
    **{
        f"{name}@{size}": (
            lambda name=name, size=size: FAMILIES[name].repair(size).problem()
        )
        for name, sizes in MATRIX
        for size in sizes
    },
    "wsn-E2": lambda: wsn.model_repair_problem(40).problem(),
    "wsn-E4": wsn_data_problem,
}


class TestRepairsUnchanged:
    @pytest.mark.parametrize("case", list(REPAIRS))
    def test_same_verdict_and_objective(self, case):
        problem = REPAIRS[case]()
        arrays = solve_repair(problem)
        dicts = solve_repair(strip_declarations(problem))
        assert arrays.status == dicts.status
        assert arrays.objective_value == pytest.approx(
            dicts.objective_value, rel=1e-9, abs=1e-15
        )

    def test_data_repair_default_effort_has_a_gradient(self):
        problem = wsn_data_problem()
        assert problem.cost is frobenius_cost
        assert problem.cost_gradient is not None
        point = {v.name: 0.1 * (k + 1) for k, v in enumerate(problem.variables)}
        assert problem.cost_gradient(point) == pytest.approx(
            {name: 2.0 * value for name, value in point.items()}
        )
