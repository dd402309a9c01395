"""The standing scalability matrix: every repair flavour × the corpus.

Runs the fused (stacked-kernel) repair pipeline and its unfused
reference (the same problem with every constraint on its own callbacks)
over every :mod:`repro.corpus` family at several sizes
and records, per matrix point: model size, NLP variable count, wall
clock for both paths, their kernel dispatch ratios, and verdict
identity.  Results go to ``BENCH_scalability_matrix.json`` next to this
file so every future speed PR reports against the same matrix.

Headline (the previously dispatch-bound regime): the paper's WSN
``X = 40`` Model Repair must no longer be dispatch-bound — the fused
path's dispatch ratio collapses (one python call serves all starts ×
constraints), and full-sweep runs additionally assert the ≥ 3×
wall-clock improvement recorded in the JSON.  ``--quick-bench`` keeps
only the smallest size per family and asserts the (deterministic)
dispatch-ratio collapse rather than wall clock, so the CI smoke job
stays robust on noisy shared runners.
"""

import copy
import json
import statistics
import time
from pathlib import Path

from conftest import report
from repro.casestudies import wsn
from repro.corpus import FAMILIES
from repro.optimize.nlp import Constraint
from repro.repair.engine import solve_repair
from repro.symbolic.compile import kernel_stats

RESULTS_PATH = Path(__file__).with_name("BENCH_scalability_matrix.json")

#: Acceptance gate for the previously dispatch-bound WSN X=40 repair.
MIN_WSN_SPEEDUP = 3.0
#: A path counts as dispatch-bound when most evaluated kernel rows paid
#: their own python call (ratio near 1.0 = one dispatch per row).
DISPATCH_BOUND_RATIO = 0.5


def save_results(section: str, rows) -> None:
    data = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    data[section] = rows
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def per_constraint_problem(problem):
    """``problem`` with its parametric constraints handed to the NLP as
    plain per-constraint entries.

    The closed forms are reduced (through the cache), adapted exactly as
    the engine adapts them and stripped of their stack spec, so
    ``solve_repair`` builds no fused kernel and SLSQP calls every
    constraint's own margin and gradient — the one-dispatch-per-row path
    that constraints without a spec take.
    """
    stripped = copy.copy(problem)
    stripped.constraints = [
        Constraint(
            margin=c.margin,
            name=c.name,
            strict=c.strict,
            shift=c.shift,
            gradient=c.gradient,
            batch_margin=c.batch_margin,
        )
        for c in problem.solver_constraints()
    ]
    stripped.parametric = []
    stripped._reduced = None
    return stripped


def timed_solve(make_problem, fused: bool, repeats: int):
    """Median wall clock + dispatch ratio for ``solve_repair`` runs.

    The problem is rebuilt per run (cheap) while the CheckCache stays
    warm (the elimination is priced outside the timing, as in the other
    NLP benchmarks); the kernel-counter delta around the run yields the
    dispatch ratio.  ``fused=False`` solves the
    :func:`per_constraint_problem` copy, made inside the timing because
    the fused arm reduces its closed forms there too.
    """
    def solve(problem):
        return solve_repair(
            problem if fused else per_constraint_problem(problem)
        )

    outcome = solve(make_problem())  # warm the cache
    times = []
    before = dict(kernel_stats())
    for _ in range(repeats):
        problem = make_problem()
        start = time.perf_counter()
        outcome = solve(problem)
        times.append(time.perf_counter() - start)
    after = kernel_stats()
    dispatches = after["dispatches"] - before["dispatches"]
    evaluations = after["evaluations"] - before["evaluations"]
    ratio = dispatches / max(evaluations, 1)
    return statistics.median(times), ratio, outcome


def matrix_points(quick: bool):
    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        sizes = family.sizes[:1] if quick else family.sizes[:3]
        for size in sizes:
            yield family, size


def test_scalability_matrix(benchmark, quick_bench):
    """Fused vs unfused repair over the corpus; verdicts must agree."""
    repeats = 2 if quick_bench else 5
    rows = []
    for family, size in matrix_points(quick_bench):
        def make_problem(f=family, s=size):
            return f.repair(s).problem()

        fused_s, fused_ratio, fused = timed_solve(make_problem, True, repeats)
        unfused_s, unfused_ratio, unfused = timed_solve(
            make_problem, False, repeats
        )
        assert fused.status == unfused.status, (
            f"{family.name} size {size}: fused verdict {fused.status!r} "
            f"!= unfused {unfused.status!r}"
        )
        if fused.status == "repaired":
            assert fused.verified and unfused.verified
            scale = max(1.0, abs(unfused.objective_value))
            assert (
                abs(fused.objective_value - unfused.objective_value) / scale
                < 1e-6
            )
        rows.append(
            {
                "family": family.name,
                "size": int(size),
                "states": family.model(size).num_states,
                "variables": family.variable_count(size),
                "verdict": fused.status,
                "fused_ms": round(fused_s * 1e3, 2),
                "unfused_ms": round(unfused_s * 1e3, 2),
                "speedup": round(unfused_s / fused_s, 2),
                "fused_dispatch_ratio": round(fused_ratio, 3),
                "unfused_dispatch_ratio": round(unfused_ratio, 3),
            }
        )
    benchmark.pedantic(
        lambda: solve_repair(FAMILIES["refuel"].repair(8).problem()),
        rounds=max(3, repeats),
        iterations=1,
    )
    if not quick_bench:
        save_results("matrix", rows)
    summary = {
        "points": len(rows),
        "families": len({row["family"] for row in rows}),
        "median_speedup": round(
            statistics.median(row["speedup"] for row in rows), 2
        ),
        "verdicts_identical": True,
    }
    if not quick_bench:
        save_results("matrix_summary", summary)
    report(benchmark, summary)
    # Every fused point must have shed the one-dispatch-per-row regime.
    for row in rows:
        assert row["fused_dispatch_ratio"] < row["unfused_dispatch_ratio"]


def test_wsn_x40_headline(benchmark, quick_bench):
    """The previously dispatch-bound case: fused ≥ 3× and unfused-identical."""
    repeats = 3 if quick_bench else 9

    def make_problem():
        return wsn.model_repair_problem(40).problem()

    fused_s, fused_ratio, fused = timed_solve(make_problem, True, repeats)
    unfused_s, unfused_ratio, unfused = timed_solve(
        make_problem, False, repeats
    )
    benchmark.pedantic(
        lambda: solve_repair(make_problem()),
        rounds=max(3, repeats),
        iterations=1,
    )

    assert fused.status == unfused.status == "repaired"
    assert fused.verified and unfused.verified
    assert abs(fused.objective_value - unfused.objective_value) < 1e-8
    speedup = unfused_s / fused_s
    rows = {
        "variables": 2,
        "fused_ms": round(fused_s * 1e3, 2),
        "unfused_ms": round(unfused_s * 1e3, 2),
        "speedup": round(speedup, 2),
        "fused_dispatch_ratio": round(fused_ratio, 3),
        "unfused_dispatch_ratio": round(unfused_ratio, 3),
        "objective": round(fused.objective_value, 9),
    }
    if not quick_bench:
        save_results("wsn_x40_headline", rows)
    report(benchmark, rows)
    # Deterministic in any environment: the fused path no longer pays a
    # python dispatch per evaluated constraint row.
    assert fused_ratio < DISPATCH_BOUND_RATIO, (
        f"WSN X=40 fused path is still dispatch-bound "
        f"(ratio {fused_ratio:.3f})"
    )
    assert unfused_ratio > DISPATCH_BOUND_RATIO
    if not quick_bench:
        assert speedup >= MIN_WSN_SPEEDUP, (
            f"fused WSN X=40 repair gave {speedup:.2f}x, "
            f"need >= {MIN_WSN_SPEEDUP}x"
        )


def test_paper_verdicts_unchanged_fused(benchmark):
    """Fused path reproduces the paper's X=100/40/19 verdict triple."""
    def verdicts():
        return {
            bound: solve_repair(
                wsn.model_repair_problem(bound).problem()
            ).status
            for bound in (100, 40, 19)
        }

    measured = benchmark.pedantic(verdicts, rounds=1, iterations=1)
    assert measured == {
        100: "already_satisfied",
        40: "repaired",
        19: "infeasible",
    }
