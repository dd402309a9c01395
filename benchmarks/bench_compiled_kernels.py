"""Compiled constraint kernels: before/after for the repair NLP.

Two regimes, reported honestly:

- **Jacobian-bound** problems (many variables): SLSQP finite-differences
  ``n+1`` eliminations per iteration without analytic gradients, so the
  compiled kernels + analytic jacobians win big.  A 17-variable ladder
  chain repaired edge-wise is the headline case; the ≥5× assertion lives
  there.
- **Dispatch-bound** problems (the paper's 2-parameter WSN chain):
  scipy's per-iteration Python machinery dominates, so the ceiling is
  ~2×.  Reported, not asserted.

Results (per-evaluation microbenchmarks plus both NLP arms) are written
to ``BENCH_repair_nlp.json`` next to this file, together with the
codegen-vs-numpy crossover that sets ``_CODEGEN_TERM_LIMIT``.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from conftest import report
from repro.casestudies import wsn
from repro.checking import CheckCache
from repro.core.api import check_model
from repro.core.model_repair import ModelRepair
from repro.logic.pctl import (
    AtomicProposition,
    ProbabilisticOperator,
    TrueFormula,
    Until,
)
from repro.mdp.model import DTMC
from repro.optimize.nlp import Constraint, NonlinearProgram
from repro.repair.cegis import CegisRepair
from repro.repair.engine import solve_repair
from repro.symbolic import compile as compile_module

RESULTS_PATH = Path(__file__).with_name("BENCH_repair_nlp.json")

#: Headline requirement from the issue: NLP solve wall time on the
#: jacobian-bound case must improve at least this much.
MIN_SPEEDUP = 5.0


def ladder_chain(rungs: int) -> DTMC:
    """A chain that climbs toward ``goal`` with skip/fail/restart edges.

    Every interior state has four successors, so edge-wise repair gets
    three free variables per row — ``rungs=6`` yields a 17-variable NLP
    whose reachability function has ~170 monomials.
    """
    states = list(range(rungs + 1)) + ["fail"]
    transitions = {}
    for state in range(rungs):
        row = {}
        for target, probability in (
            (state + 1, Fraction(6, 10)),
            (min(state + 2, rungs), Fraction(2, 10)),
            ("fail", Fraction(1, 10)),
            (0, Fraction(1, 10)),
        ):
            row[target] = row.get(target, 0) + probability
        transitions[state] = row
    transitions[rungs] = {rungs: 1}
    transitions["fail"] = {"fail": 1}
    return DTMC(
        states=states,
        transitions=transitions,
        initial_state=0,
        labels={rungs: {"goal"}},
    )


def ladder_property() -> ProbabilisticOperator:
    return ProbabilisticOperator(
        ">=", 0.72, Until(TrueFormula(), AtomicProposition("goal"))
    )


def ladder_repair(rungs: int = 6) -> ModelRepair:
    return ModelRepair.for_chain(
        ladder_chain(rungs), ladder_property(), max_perturbation=0.08
    )


def legacy_program(problem) -> NonlinearProgram:
    """The pre-kernel solver setup: symbolic margins, no jacobians.

    Parametric constraints go through the pure-symbolic margin
    (``compiled=False``) and the analytic hooks on the extra row
    constraints are stripped, so SLSQP finite-differences everything —
    exactly the seed behaviour this PR replaces.
    """
    constraints = [
        Constraint(c.margin, c.name, c.strict, c.shift)
        for c in problem.solver_constraints(compiled=False)
    ]
    return NonlinearProgram(
        variables=problem.variables,
        objective=problem.cost,
        constraints=constraints,
    )


def compiled_program(problem) -> NonlinearProgram:
    """The solver setup the engine now builds (kernels + jacobians)."""
    return NonlinearProgram(
        variables=problem.variables,
        objective=problem.cost,
        objective_gradient=problem.cost_gradient,
        constraints=problem.solver_constraints(),
    )


def wall_time(fn, repeats: int):
    """Best-of-``repeats`` wall time in seconds, plus the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def save_results(section: str, rows: dict) -> None:
    data = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    data[section] = rows
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_per_evaluation_micro(benchmark):
    """Compiled kernel vs symbolic evaluation of the WSN margin."""
    problem = wsn.model_repair_problem(40).problem()
    parametric = problem.parametric_constraints()[0]
    point = {v.name: float(v.initial) + 0.01 for v in problem.variables}

    def timed(fn, repeats=2000):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats

    benchmark(lambda: parametric.fast_margin(point))
    symbolic_us = timed(lambda: parametric.margin(point)) * 1e6
    compiled_us = timed(lambda: parametric.fast_margin(point)) * 1e6
    gradient_us = timed(lambda: parametric.margin_gradient(point)) * 1e6
    assert abs(
        float(parametric.margin(point)) - parametric.fast_margin(point)
    ) < 1e-9
    rows = {
        "symbolic_margin_us": round(symbolic_us, 2),
        "compiled_margin_us": round(compiled_us, 2),
        "compiled_gradient_us": round(gradient_us, 2),
        "margin_speedup": round(symbolic_us / compiled_us, 2),
    }
    save_results("per_evaluation_wsn_x40", rows)
    report(benchmark, rows)


def test_nlp_solve_jacobian_bound(benchmark, quick_bench):
    """Headline: ≥5× on the 17-variable ladder repair NLP."""
    repair = ladder_repair(rungs=6)
    problem = repair.problem()
    problem.parametric_constraints()  # elimination priced outside the timing
    extra_starts, seed = 2, 0
    repeats = 1 if quick_bench else 2

    legacy_s, legacy = wall_time(
        lambda: legacy_program(problem).solve(
            extra_starts=extra_starts, seed=seed
        ),
        repeats,
    )
    compiled = benchmark.pedantic(
        lambda: compiled_program(problem).solve(
            extra_starts=extra_starts, seed=seed
        ),
        rounds=max(3, repeats),
        iterations=1,
    )
    compiled_s, _ = wall_time(
        lambda: compiled_program(problem).solve(
            extra_starts=extra_starts, seed=seed
        ),
        repeats,
    )

    assert legacy.feasible and compiled.feasible
    assert abs(legacy.objective_value - compiled.objective_value) < 1e-6
    speedup = legacy_s / compiled_s
    rows = {
        "variables": len(problem.variables),
        "legacy_solve_ms": round(legacy_s * 1e3, 1),
        "compiled_solve_ms": round(compiled_s * 1e3, 1),
        "speedup": round(speedup, 1),
        "objective": round(compiled.objective_value, 6),
    }
    save_results("nlp_solve_ladder_17var", rows)
    report(benchmark, rows)
    assert speedup >= MIN_SPEEDUP, (
        f"compiled kernels gave {speedup:.1f}x on the jacobian-bound NLP, "
        f"need >= {MIN_SPEEDUP}x"
    )


def test_nlp_solve_wsn_before_after(benchmark, quick_bench):
    """The paper's E2 case (X=40): reported, dispatch-bound (~2x)."""
    problem = wsn.model_repair_problem(40).problem()
    problem.parametric_constraints()
    repeats = 2 if quick_bench else 5

    legacy_s, legacy = wall_time(
        lambda: legacy_program(problem).solve(extra_starts=8, seed=0), repeats
    )
    compiled_s, compiled = wall_time(
        lambda: compiled_program(problem).solve(extra_starts=8, seed=0),
        repeats,
    )
    benchmark.pedantic(
        lambda: compiled_program(problem).solve(extra_starts=8, seed=0),
        rounds=max(3, repeats),
        iterations=1,
    )

    assert legacy.feasible and compiled.feasible
    assert abs(legacy.objective_value - compiled.objective_value) < 1e-6
    rows = {
        "variables": len(problem.variables),
        "legacy_solve_ms": round(legacy_s * 1e3, 2),
        "compiled_solve_ms": round(compiled_s * 1e3, 2),
        "speedup": round(legacy_s / compiled_s, 2),
    }
    save_results("nlp_solve_wsn_x40", rows)
    report(benchmark, rows)


def test_end_to_end_verdicts_unchanged(benchmark):
    """The full pipeline still returns the paper's three verdicts."""
    def verdicts():
        return {
            bound: wsn.model_repair_problem(bound).repair().status
            for bound in (100, 40, 19)
        }

    measured = benchmark.pedantic(verdicts, rounds=1, iterations=1)
    expected = {100: "already_satisfied", 40: "repaired", 19: "infeasible"}
    assert measured == expected
    ladder = solve_repair(ladder_repair(rungs=6).problem(), extra_starts=2)
    assert ladder.status == "repaired"
    rows = {f"X={b}": s for b, s in measured.items()}
    rows["ladder"] = ladder.status
    save_results("verdicts", rows)
    report(benchmark, rows)


def cegis_kernels(sizes):
    """One stacked kernel per (terms, rows) shape CEGIS builds on the WSN."""
    kernels = {}
    for size in sizes:
        chain = wsn.build_monitored_chain(size=size)
        nominal = check_model(chain, wsn.clean_delivery_property(1.0)).value
        problem = wsn.monitored_repair_problem(
            bound=round(0.2 * nominal, 6), size=size
        )
        cache = CheckCache()
        problem.cache = cache
        CegisRepair(problem).repair(seed=0)
        for key, value in cache._store.items():
            if key[0] == "corridor":
                kernel = value.stacked()
            elif key[0] == "stacked":
                kernel = value
            else:
                continue
            kernels.setdefault((len(kernel.exponents), kernel.size), kernel)
    return [kernels[shape] for shape in sorted(kernels)]


def test_codegen_crossover(benchmark, quick_bench, monkeypatch):
    """Per-call ``margins_and_jacobian`` cost: generated code vs numpy.

    Generated scalar code wins on small term tables (numpy's per-call
    dispatch dominates there) and loses on large ones; the crossover is
    where ``_CODEGEN_TERM_LIMIT`` sits.
    """
    sizes = range(3, 7) if quick_bench else range(3, 9)
    kernels = benchmark.pedantic(
        cegis_kernels, args=(sizes,), rounds=1, iterations=1
    )
    rng = np.random.default_rng(0)

    def per_call_us(kernel, point, limit):
        monkeypatch.setattr(compile_module, "_CODEGEN_TERM_LIMIT", limit)
        kernel.margins_and_jacobian(point)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(200):
                kernel.margins_and_jacobian(point)
            best = min(best, (time.perf_counter() - start) / 200)
        return round(best * 1e6, 1)

    rows = {}
    for kernel in kernels:
        point = rng.uniform(0.05, 0.5, len(kernel.params))
        key = f"T={len(kernel.exponents)},k={kernel.size}"
        rows[key] = {
            "codegen_us": per_call_us(kernel, point, float("inf")),
            "numpy_us": per_call_us(kernel, point, -1),
            "variables": len(kernel.params),
        }
    # ``kernels`` is sorted by term count: first the smallest table.
    smallest, largest = list(rows.values())[0], list(rows.values())[-1]
    assert smallest["codegen_us"] < smallest["numpy_us"]
    if not quick_bench:
        assert largest["numpy_us"] < largest["codegen_us"]
        save_results("codegen_crossover_cegis_wsn", rows)
    report(benchmark, rows)
