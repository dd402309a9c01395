"""Unit tests for the nonlinear-program layer."""

import pytest

from repro.checking.parametric import ParametricConstraint
from repro.optimize import (
    Constraint,
    NonlinearProgram,
    Variable,
    constraint_from_parametric,
)
from repro.symbolic import Polynomial, RationalFunction


class TestVariable:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Variable("x", lower=1.0, upper=0.0)

    def test_initial_clipped_into_bounds(self):
        v = Variable("x", 0.0, 1.0, initial=5.0)
        assert v.initial == 1.0


class TestConstraint:
    def test_margin_and_satisfaction(self):
        c = Constraint(lambda v: v["x"] - 1.0)
        assert c.satisfied({"x": 1.5})
        assert not c.satisfied({"x": 0.0})

    def test_strict_shift(self):
        strict = Constraint(lambda v: v["x"], strict=True)
        loose = Constraint(lambda v: v["x"])
        assert strict.value({"x": 0.0}) < loose.value({"x": 0.0})

    def test_extra_shift(self):
        shifted = Constraint(lambda v: v["x"], shift=0.1)
        assert shifted.value({"x": 0.05}) == pytest.approx(-0.05)


class TestSolve:
    def test_projection_onto_line(self):
        program = NonlinearProgram(
            variables=[Variable("x", -1, 1), Variable("y", -1, 1)],
            objective=lambda v: v["x"] ** 2 + v["y"] ** 2,
            constraints=[Constraint(lambda v: v["x"] + v["y"] - 1.0)],
        )
        result = program.solve()
        assert result.feasible
        assert result.assignment["x"] == pytest.approx(0.5, abs=1e-4)
        assert result.assignment["y"] == pytest.approx(0.5, abs=1e-4)

    def test_unconstrained_minimum(self):
        program = NonlinearProgram(
            variables=[Variable("x", -2, 2, initial=1.5)],
            objective=lambda v: (v["x"] - 0.3) ** 2,
        )
        result = program.solve()
        assert result.feasible
        assert result.assignment["x"] == pytest.approx(0.3, abs=1e-5)

    def test_infeasible_detected(self):
        program = NonlinearProgram(
            variables=[Variable("x", 0, 1)],
            objective=lambda v: v["x"],
            constraints=[Constraint(lambda v: v["x"] - 2.0)],  # x >= 2 impossible
        )
        result = program.solve()
        assert not result.feasible
        assert "no start point" in result.message

    def test_bounds_respected(self):
        program = NonlinearProgram(
            variables=[Variable("x", 0.5, 1.0)],
            objective=lambda v: v["x"] ** 2,
        )
        result = program.solve()
        assert result.assignment["x"] == pytest.approx(0.5, abs=1e-6)

    def test_multistart_escapes_bad_start(self):
        # Objective with a spurious plateau near the default start.
        program = NonlinearProgram(
            variables=[Variable("x", -4, 4, initial=3.5)],
            objective=lambda v: (v["x"] ** 2 - 1) ** 2,
            constraints=[Constraint(lambda v: v["x"])],  # x >= 0
        )
        result = program.solve(extra_starts=10)
        assert result.feasible
        assert result.assignment["x"] == pytest.approx(1.0, abs=1e-3)

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            NonlinearProgram(
                variables=[Variable("x"), Variable("x")],
                objective=lambda v: 0.0,
            )

    def test_needs_variables(self):
        with pytest.raises(ValueError):
            NonlinearProgram(variables=[], objective=lambda v: 0.0)


class TestParametricAdapter:
    def test_upper_bound_margin(self):
        x = Polynomial.variable("x")
        constraint = constraint_from_parametric(
            ParametricConstraint(RationalFunction(x), "<=", 0.5),
            safety_margin=0.0,
        )
        assert constraint.satisfied({"x": 0.4})
        assert not constraint.satisfied({"x": 0.6})

    def test_lower_bound_margin(self):
        x = Polynomial.variable("x")
        constraint = constraint_from_parametric(
            ParametricConstraint(RationalFunction(x), ">=", 0.5),
            safety_margin=0.0,
        )
        assert constraint.satisfied({"x": 0.6})
        assert not constraint.satisfied({"x": 0.4})

    def test_safety_margin_scales_with_bound(self):
        x = Polynomial.variable("x")
        constraint = constraint_from_parametric(
            ParametricConstraint(RationalFunction(x), "<=", 100.0),
            safety_margin=1e-3,
        )
        # Needs x <= 100 - 0.1.
        assert not constraint.satisfied({"x": 99.95})
        assert constraint.satisfied({"x": 99.8})

    def test_solves_rational_constraint(self):
        x = Polynomial.variable("x")
        # f(x) = 1/x <= 4  =>  x >= 0.25; minimise x².
        f = RationalFunction(Polynomial.one(), x)
        program = NonlinearProgram(
            variables=[Variable("x", 0.01, 1.0, initial=0.9)],
            objective=lambda v: v["x"] ** 2,
            constraints=[
                constraint_from_parametric(ParametricConstraint(f, "<=", 4.0))
            ],
        )
        result = program.solve()
        assert result.feasible
        assert result.assignment["x"] == pytest.approx(0.25, abs=1e-3)


class TestThreadPoolDecision:
    """``parallel=None`` follows the CPUs the process may run on."""

    @staticmethod
    def program():
        return NonlinearProgram(
            variables=[Variable("x", -1, 1), Variable("y", -1, 1)],
            objective=lambda v: v["x"] ** 2 + v["y"] ** 2,
            constraints=[Constraint(lambda v: v["x"] + v["y"] - 1.0)],
        )

    @pytest.fixture
    def pools(self, monkeypatch):
        """Record every thread pool the solver opens."""
        import repro.optimize.nlp as nlp

        opened = []
        real = nlp.ThreadPoolExecutor

        def recording(*args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            return real(*args, **kwargs)

        monkeypatch.setattr(nlp, "ThreadPoolExecutor", recording)
        return opened

    def test_pinned_process_solves_without_a_pool(self, monkeypatch, pools):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pinned = self.program().solve()
        assert pools == []
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        pooled = self.program().solve()
        assert pools == [2]
        assert pooled.assignment == pinned.assignment
        assert pooled.objective_value == pinned.objective_value

    def test_without_affinity_api_falls_back_to_cpu_count(
        self, monkeypatch, pools
    ):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self.program().solve().feasible
        assert pools == []
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert self.program().solve().feasible
        assert pools == [3]
