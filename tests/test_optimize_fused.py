"""Fused NLP solve path: stacked kernels vs the per-constraint entries.

``NonlinearProgram.solve`` must give the same verdicts and (up to solver
tolerance) the same optima whether it fuses the stackable constraints
into one kernel (the default, and the repair engine's path) or reads
each constraint through its own callbacks.  The per-constraint
reference is the same program with every constraint re-wrapped without
its ``stack_spec`` — the path constraints without a spec (reward
Q-values, row sums) always take — so the fused path is a pure
evaluation strategy, not a different optimisation problem.  The
cache/service layers ride on the same guarantee: a warm store must
reuse stacked kernels rather than recompile, and the dispatch savings
must reach telemetry.
"""

import pytest

from repro.casestudies import wsn
from repro.checking.cache import CheckCache
from repro.checking.parametric import ParametricConstraint
from repro.corpus import FAMILIES
from repro.mdp import chain_dtmc
from repro.optimize.nlp import (
    Constraint,
    NonlinearProgram,
    Variable,
    constraint_from_parametric,
)
from repro.repair.engine import solve_repair
from repro.service import BatchRunner, ModelRepairJob, Telemetry
from repro.service.telemetry import SUMMED_FIELDS
from repro.symbolic import Polynomial, RationalFunction
from repro.symbolic.compile import StackedConstraintKernel, kernel_stats

X = Polynomial.variable("x")
Y = Polynomial.variable("y")


def ring_program():
    """Minimise x²+y² s.t. (x+y)/(xy+2) ≥ 0.5 — joint-eligible shape."""
    function = RationalFunction(X + Y, X * Y + 2)
    return NonlinearProgram(
        variables=[
            Variable("x", -1.0, 1.0, initial=0.9),
            Variable("y", -1.0, 1.0, initial=0.9),
        ],
        objective=lambda v: v["x"] ** 2 + v["y"] ** 2,
        objective_gradient=lambda v: {"x": 2 * v["x"], "y": 2 * v["y"]},
        constraints=[
            constraint_from_parametric(
                ParametricConstraint(function, ">=", 0.5)
            )
        ],
    )


def unreachable_program():
    """x ∈ [0, 1] s.t. x ≥ 2: infeasible on every path."""
    return NonlinearProgram(
        variables=[Variable("x", 0.0, 1.0, initial=0.5)],
        objective=lambda v: v["x"] ** 2,
        objective_gradient=lambda v: {"x": 2 * v["x"]},
        constraints=[
            constraint_from_parametric(
                ParametricConstraint(
                    RationalFunction(X, Polynomial.one()), ">=", 2.0
                )
            )
        ],
    )


def per_constraint(program):
    """The same program with every constraint stripped of its stack spec."""
    return NonlinearProgram(
        variables=program.variables,
        objective=program.objective,
        objective_gradient=program.objective_gradient,
        constraints=[
            Constraint(
                margin=c.margin,
                name=c.name,
                strict=c.strict,
                shift=c.shift,
                gradient=c.gradient,
                batch_margin=c.batch_margin,
            )
            for c in program.constraints
        ],
    )


def engine_program(problem):
    """The program :func:`solve_repair` builds for ``problem``."""
    return NonlinearProgram(
        variables=problem.variables,
        objective=problem.cost,
        objective_gradient=problem.cost_gradient,
        constraints=problem.solver_constraints(),
    )


def wsn_data_problem():
    dataset = wsn.generate_observation_dataset(episodes=400, seed=7)
    return wsn.data_repair_problem(
        dataset, wsn.DEFAULT_DATA_REPAIR_BOUND
    ).problem()


#: Differential cases: two hand-built programs, every corpus family at
#: its smallest size, and the paper's WSN Model Repair at X=40 (E2,
#: repaired) and X=19 (E3, infeasible) plus its Data Repair (E4).
CASES = {
    "ring": ring_program,
    "unreachable": unreachable_program,
    **{
        f"{name}@{family.sizes[0]}": (
            lambda family=family: family.repair(family.sizes[0]).problem()
        )
        for name, family in sorted(FAMILIES.items())
    },
    "wsn-E2": lambda: wsn.model_repair_problem(40).problem(),
    "wsn-E3": lambda: wsn.model_repair_problem(19).problem(),
    "wsn-E4": wsn_data_problem,
}


class TestFusedSolveEquivalence:
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_per_constraint_reference(self, case):
        subject = CASES[case]()
        if isinstance(subject, NonlinearProgram):
            program, kernel = subject, None
        else:
            program, kernel = engine_program(subject), subject.stacked_kernel()
        before = kernel_stats()["dispatches"]
        fused = program.solve(stacked=kernel)
        middle = kernel_stats()["dispatches"]
        reference = per_constraint(program).solve()
        after = kernel_stats()["dispatches"]
        assert fused.feasible == reference.feasible
        assert fused.objective_value == pytest.approx(
            reference.objective_value, rel=1e-6
        )
        assert middle - before < after - middle
        if not isinstance(subject, NonlinearProgram):
            verdict = "repaired" if reference.feasible else "infeasible"
            assert solve_repair(subject).status == verdict

    def test_fused_matches_legacy_path(self):
        fused = ring_program().solve(seed=1)
        legacy = per_constraint(ring_program()).solve(seed=1)
        assert fused.feasible and legacy.feasible
        assert fused.objective_value == pytest.approx(
            legacy.objective_value, rel=1e-6
        )

    def test_fused_dispatches_fewer_kernel_calls(self):
        before = dict(kernel_stats())
        ring_program().solve(seed=2)
        mid = dict(kernel_stats())
        per_constraint(ring_program()).solve(seed=2)
        after = kernel_stats()
        fused_dispatches = mid["dispatches"] - before["dispatches"]
        legacy_dispatches = after["dispatches"] - mid["dispatches"]
        assert fused_dispatches < legacy_dispatches

    def test_joint_path_engages_for_eligible_programs(self):
        result = ring_program().solve(seed=1)
        assert result.solver_stats.get("joint_solves", 0) == 1

    def test_explicit_kernel_size_mismatch_rejected(self):
        program = ring_program()
        wrong = StackedConstraintKernel(
            [
                (RationalFunction(X, Polynomial.one()), 1.0, 0.0),
                (RationalFunction(Y, Polynomial.one()), 1.0, 0.0),
            ]
        )
        with pytest.raises(ValueError):
            program.solve(stacked=wrong)

    def test_foreign_kernel_params_fall_back_gracefully(self):
        z = Polynomial.variable("z")
        foreign = StackedConstraintKernel(
            [(RationalFunction(z, Polynomial.one()), 1.0, -0.5)]
        )
        program = ring_program()
        result = program.solve(stacked=foreign)
        assert result.feasible  # silently solved per constraint


class TestStackedKernelCache:
    def constraints(self):
        return [
            ParametricConstraint(
                RationalFunction(X + Y, X * Y + 2), ">=", 0.5
            ),
            ParametricConstraint(RationalFunction(X, X + 1), "<=", 0.9),
        ]

    def test_single_constraint_reuses_its_own_kernel(self):
        cache = CheckCache()
        constraint = self.constraints()[0]
        kernel = cache.stacked_kernel([constraint])
        assert kernel is constraint.stacked()

    def test_multi_constraint_kernel_is_content_addressed(self):
        cache = CheckCache()
        first = cache.stacked_kernel(self.constraints())
        before = kernel_stats()["compilations"]
        second = cache.stacked_kernel(self.constraints())
        assert first is second
        assert kernel_stats()["compilations"] == before

    def test_empty_constraint_list_yields_none(self):
        assert CheckCache().stacked_kernel([]) is None

    def test_key_text_is_printed_once_per_constraint(self, monkeypatch):
        printed = []
        original = RationalFunction.__str__

        def counting(function):
            printed.append(function)
            return original(function)

        monkeypatch.setattr(RationalFunction, "__str__", counting)
        cache = CheckCache()
        constraints = self.constraints()
        first = cache.stacked_kernel(constraints)
        assert cache.stacked_kernel(constraints) is first
        assert len(printed) == len(constraints)
        # Equal content in fresh objects still finds the same kernel.
        assert cache.stacked_kernel(self.constraints()) is first
        assert constraints[0].text() == original(constraints[0].function)

    def test_key_text_of_a_constraint_pickled_without_it(self):
        constraint = self.constraints()[0]
        del constraint._text  # as unpickled from an older store
        assert constraint.text() == str(constraint.function)
        assert constraint.rebound("<=", 0.1).text() == constraint.text()

    def test_repair_problem_kernel_is_stable_across_calls(self):
        problem = FAMILIES["refuel"].repair(8).problem()
        first = problem.stacked_kernel()
        before = kernel_stats()["compilations"]
        assert problem.stacked_kernel() is first
        assert kernel_stats()["compilations"] == before


class TestServiceReuse:
    def test_same_fingerprint_jobs_share_kernels(self, tmp_path):
        chain = chain_dtmc(5, forward_probability=0.5)
        telemetry = Telemetry()
        runner = BatchRunner(
            max_workers=1, store_dir=tmp_path, telemetry=telemetry
        )
        jobs = [
            ModelRepairJob.for_model(f"rep-{i}", chain, 'R<=6 [ F "goal" ]')
            for i in range(2)
        ]
        report = runner.run(jobs)
        assert report.by_status() == {"succeeded": 2}
        # The duplicate job is served from the store: no second solve,
        # hence no second round of kernel work.
        assert sum(1 for outcome in report if outcome.cached) == 1

    def test_kernel_dispatches_reach_telemetry(self, tmp_path):
        chain = chain_dtmc(5, forward_probability=0.5)
        telemetry = Telemetry()
        runner = BatchRunner(
            max_workers=1, store_dir=tmp_path, telemetry=telemetry
        )
        report = runner.run(
            [ModelRepairJob.for_model("rep", chain, 'R<=6 [ F "goal" ]')]
        )
        assert report.by_status() == {"succeeded": 1}
        counters = telemetry.counters()
        assert counters.get("kernel_dispatches", 0) > 0
        assert counters.get("kernel_evaluations", 0) >= counters[
            "kernel_dispatches"
        ]

    def test_kernel_dispatches_is_a_summed_field(self):
        assert "kernel_dispatches" in SUMMED_FIELDS
        assert "kernel_evaluations" in SUMMED_FIELDS


class TestSolveRepairFusedFlag:
    def test_default_is_fused_and_verified(self):
        from repro.core.model_repair import ModelRepair
        from repro.logic import parse_pctl

        chain = chain_dtmc(5, forward_probability=0.5)
        outcome = solve_repair(
            ModelRepair.for_chain(
                chain, parse_pctl('R<=6 [ F "goal" ]'), engine="sparse"
            ).problem()
        )
        assert outcome.status == "repaired"
        assert outcome.verified
