"""The repair benchmark: four verdict workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-cold --seed 0 --seconds 10 --trace 0

Each pass runs in a fresh interpreter (``perfbench/worker.py``), one at a
time.  Passes repeat until ``--seconds`` of timed work have been measured,
and at least :data:`MIN_PASSES` run; set-up is repeated in extra
set-up-only interpreters until :data:`MIN_SETUPS` set-ups were timed.
``--trace 1`` runs one untraced and one traced pass instead and reports
the per-layer metrics, the dominant layer and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A verdict that fails its gate
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from tracer import dominant_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-cold", "cegis-ladder", "robust-interval", "service-mixed")
MIN_PASSES = 2
MIN_SETUPS = 3
MAX_PASSES = 50
#: The whole command must end within this many seconds.
BUDGET_S = 170.0
#: Per-layer metrics that must be nonzero on the workload they mostly
#: run on; zero means the tracer missed a binding site.
PREDICTED = {
    "corpus-cold": ("checking.parametric.calls", "checking.parametric.eliminations",
                    "symbolic.compile.calls", "symbolic.compile.compilations",
                    "optimize.calls", "checking.concrete.calls",
                    "repair.engine.calls", "repair.verify.calls",
                    "io.prism_parser.calls", "corpus.calibrate.calls"),
    "cegis-ladder": ("optimize.calls", "checking.counterexample.calls",
                     "checking.parametric.calls", "repair.cegis.iterations",
                     "repair.engine.calls", "checking.concrete.calls"),
    "robust-interval": ("mdp.interval.calls", "mdp.interval.vi_iterations",
                        "repair.robust.outer_rounds", "repair.engine.calls",
                        "io.prism_parser.calls", "corpus.calibrate.calls"),
    "service-mixed": ("service.hit_ms_p50", "service.miss_ms_p50",
                      "optimize.calls", "service.store.calls"),
}
#: Must stay zero: the service reuses its cached elimination after warm-up.
PREDICTED_ZERO = {"service-mixed": ("checking.parametric.calls",)}


class PassFailed(RuntimeError):
    pass


def check_checkout() -> None:
    """Refuse to run outside a full checkout or with a stale declaration."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/repro package under {ROOT}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    names = [w["name"] for w in declared["workloads"]]
    if (end_to_end != metrics.END_TO_END or per_layer != metrics.PER_LAYER
            or tuple(names) != WORKLOADS):
        raise SystemExit("error: BENCHMARK.json disagrees with perfbench/metrics.py")


#: Fixed for every child: a fixed string-hash seed keeps set and dict
#: orders, and so the work done, the same from one interpreter to the
#: next; one BLAS thread keeps small matrix products from spinning a
#: second thread against the other processes of a small host.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)


def precompile() -> None:
    """Byte-compile once, untimed, so every set-up reads cached bytecode."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )


def spawn(args, deadline: float, trace: bool = False, setup_only: bool = False,
          seconds: float = 0.0) -> dict:
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--spawned", repr(spawned),
               "--seconds", repr(seconds), "--scratch", str(scratch)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    # Its own process group, so a timeout also stops the server it started.
    worker = subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = worker.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise PassFailed("pass exceeded the time budget") from None
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise PassFailed(f"worker exited with code {worker.returncode}")
    return json.loads(lines[-1])


def end_to_end(passes, setups, service: bool, quiet: bool = False) -> dict:
    """The end-to-end metrics of a run's passes.

    Service requests are pooled, and the tail is the highest percentile
    with at least 10 requests beyond it.  A batch scenario's latency is
    its median over the passes.  The batch tail is the slowest
    scenario's median: over a small fixed set of very unequal scenarios
    a pooled percentile falls between two scenarios and is not steady.
    The batch p50 and tail cover the scenarios whose inputs do not
    depend on the seed (as ``objective_total`` does): a seeded scenario
    that crosses the median moves it by a whole rank.  The rate is
    verdicts per second of summed latency, over every scenario or reply.
    Batch latencies are scaled to the nominal host speed (``probe.py``);
    service round trips are wall time.
    """
    if service:
        latencies = sorted(r["ms"] for p in passes for r in p["records"])
        rate = len(latencies) / (sum(latencies) / 1e3)
        tail_ms = latencies[-11]
        if not quiet:
            print(f"verdict_ms_tail is p{100.0 * (len(latencies) - 10) / len(latencies):.1f} "
                  f"of {len(latencies)} replies (10 beyond it)")
    else:
        by_scenario, seeded = {}, set()
        for one in passes:
            for record in one["records"]:
                by_scenario.setdefault(record["id"], []).append(record["ms"])
                if record["seeded"]:
                    seeded.add(record["id"])
        medians = {sid: statistics.median(ms) for sid, ms in by_scenario.items()}
        rate = len(medians) / (sum(medians.values()) / 1e3)
        latencies = [ms for sid, ms in medians.items() if sid not in seeded]
        tail_ms = max(latencies)
        if not quiet:
            print(f"verdict_ms_p50 and verdict_ms_tail cover {len(latencies)} of "
                  f"{len(medians)} scenarios, each the median of {len(passes)} passes; "
                  f"the tail is the slowest")
    return {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": rate,
        "verdict_ms_p50": statistics.median(latencies),
        "verdict_ms_tail": tail_ms,
        "objective_total": statistics.median(p["objective_total"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def mean_verdict_ms(one_pass) -> float:
    records = one_pass["records"]
    return sum(r["ms"] for r in records) / max(1, len(records))


def report_layers(workload: str, traced: dict) -> list:
    """Print the layer table; returns the violated predictions."""
    layers = traced["layers"]
    name, share = dominant_layer(layers)
    print(f"layer self time on {workload} (dominant: {name}, {share:.0%}):")
    for layer in sorted(layers, key=lambda k: -layers[k]["self_ms"]):
        entry = layers[layer]
        print(f"  {layer:26s} calls={entry['calls']:7d} ms={entry['ms']:10.1f} "
              f"self_ms={entry['self_ms']:10.1f}")
    values = traced["per_layer"]
    broken = [f"{m} is 0" for m in PREDICTED.get(workload, ()) if not values[m]]
    broken += [f"{m} is {values[m]}, expected 0"
               for m in PREDICTED_ZERO.get(workload, ()) if values[m]]
    return broken


def main() -> int:
    parser = argparse.ArgumentParser(description="repair benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    check_checkout()
    deadline = time.monotonic() + BUDGET_S
    precompile()

    service = args.workload == "service-mixed"
    share = args.seconds / MIN_PASSES if service else 0.0
    passes, setups, problems = [], [], []
    try:
        if args.trace:
            plain = spawn(args, deadline, seconds=share)
            traced = spawn(args, deadline, trace=True, seconds=share)
            passes = [plain, traced]
        else:
            while len(passes) < MIN_PASSES or (
                not service
                and sum(p["timed_s"] for p in passes) < args.seconds
                and len(passes) < MAX_PASSES
            ):
                passes.append(spawn(args, deadline, seconds=share))
            setups = list(passes)
            while len(setups) < MIN_SETUPS:
                setups.append(spawn(args, deadline, setup_only=True))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench" / "tmp", ignore_errors=True)

    for index, one in enumerate(passes):
        for note in one["notes"]:
            print(f"pass {index}: {note}")
        for record in one["records"]:
            for problem in record["problems"]:
                problems.append(f"{record['id']}: {problem}")
    measured = passes[1:] if args.trace else passes
    attempted = sum(len(p["records"]) for p in measured)
    failed = sum(1 for p in measured for r in p["records"] if r["problems"])
    if args.trace:
        values = dict(passes[1]["per_layer"])
        values["trace.overhead_pct"] = 100.0 * (
            mean_verdict_ms(passes[1]) / mean_verdict_ms(passes[0]) - 1.0
        )
        problems += report_layers(args.workload, passes[1])
        units = metrics.PER_LAYER
    else:
        values = end_to_end(passes, [p["setup_s"] for p in setups], service)
        units = metrics.END_TO_END
        if not service:
            raw = end_to_end(
                [dict(p, records=[dict(r, ms=r["raw_ms"]) for r in p["records"]])
                 for p in passes],
                [p["setup_s"] for p in setups], service, quiet=True,
            )
            print("unscaled wall time: " + " ".join(
                f"{name}={raw[name]:.6g}" for name in
                ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_tail")))
    for problem in problems:
        print(f"FAILED {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
