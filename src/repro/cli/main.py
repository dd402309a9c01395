"""Command-line entry points.

Subcommands::

    repro check <model.json> "<pctl formula>" [--engine E] [--seed N]
    repro model-repair <model.json> "<pctl formula>" [--max-perturbation D]
    repro robust-repair <model.json> "<pctl formula>" [--epsilon E]
    repro cegis-repair <model.json> "<pctl formula>" [--max-iterations N]
    repro rate-repair <ctmc.json> --targets A,B --bound T [--max-speedup S]
    repro counterexample <model.json> "<pctl formula>" [--max-paths N]
    repro export-prism <model.json> [-o out.pm]
    repro corpus list [--json]
    repro corpus generate --family F [--size N] [--seed S] [--json]
    repro batch <jobs.json> [--workers N] [--store DIR] [--telemetry LOG]
    repro serve [--port P] [--store DIR]
    repro wsn-demo [--bound X]
    repro car-demo

``check`` and ``model-repair`` operate on JSON models written by
:func:`repro.io.save_model`; a model file that is missing or not such a
model, or a formula that does not parse, prints one line on standard
error and exits with code 2 (code 1 keeps its meaning: violated,
infeasible or not robust); the demo commands run the paper's case
studies end-to-end and print a short report.  ``batch`` drives a jobs
file (see :mod:`repro.service.jobs`) through the fault-tolerant
process-pool runner, and ``serve`` exposes the same runtime over a
localhost JSON API.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np


class InputError(Exception):
    """A model file or formula the command cannot use (exit code 2)."""


def _load_model(path: str):
    from repro.io import load_model

    try:
        return load_model(path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        # Missing or unreadable file, not JSON (e.g. PRISM source), or
        # JSON that is not a saved model.
        detail = f"missing field {error}" if isinstance(error, KeyError) else error
        raise InputError(f"cannot load model from {path}: {detail}") from None


def _parse_formula(text: str):
    from repro.logic import parse_pctl

    try:
        return parse_pctl(text)
    except ValueError as error:
        raise InputError(f"cannot parse formula {text!r}: {error}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.core import check_model

    np.random.seed(args.seed)
    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    result = check_model(model, formula, engine=args.engine)
    verdict = "satisfied" if result.holds else "violated"
    print(f"{args.formula}: {verdict}")
    if result.value is not None:
        print(f"value at initial state: {result.value:.6g}")
    return 0 if result.holds else 1


def _cmd_model_repair(args: argparse.Namespace) -> int:
    from repro.core import ModelRepair
    from repro.io import save_model
    from repro.mdp import DTMC

    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    if not isinstance(model, DTMC):
        print("model-repair operates on DTMC models", file=sys.stderr)
        return 2
    np.random.seed(args.seed)
    repair = ModelRepair.for_chain(
        model,
        formula,
        max_perturbation=args.max_perturbation,
        engine=args.engine,
    )
    result = repair.repair(seed=args.seed)
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.feasible else 1
    print(f"status: {result.status}")
    if result.proof is not None:
        print(result.proof.describe())
    if result.status == "repaired":
        print(f"cost g(Z) = {result.objective_value:.6g}")
        print(f"epsilon (Prop. 1 bound) = {result.epsilon:.6g}")
        nonzero = {
            k: round(v, 6) for k, v in result.assignment.items() if abs(v) > 1e-9
        }
        print(f"perturbation: {nonzero}")
        if args.output:
            save_model(result.repaired_model, args.output)
            print(f"repaired model written to {args.output}")
    return 0 if result.feasible else 1


def _cmd_robust_repair(args: argparse.Namespace) -> int:
    from repro.core import repair_robust
    from repro.io import save_model
    from repro.mdp import DTMC

    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    if not isinstance(model, DTMC):
        print("robust-repair operates on DTMC models", file=sys.stderr)
        return 2
    np.random.seed(args.seed)
    result = repair_robust(
        model,
        formula,
        epsilon=args.epsilon,
        max_perturbation=args.max_perturbation,
        engine=args.engine,
        seed=args.seed,
    )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.feasible and result.robust else 1
    print(f"status: {result.status}")
    print(f"robust: {result.robust} (epsilon = {result.epsilon:.6g})")
    certificate = result.certificate
    if certificate is not None:
        if certificate.margin is not None:
            print(f"worst-case margin: {certificate.margin:.6g}")
        if certificate.fallback_reason:
            print(
                "certificate degraded to the nominal check "
                f"({certificate.fallback_reason})"
            )
    if result.status == "repaired":
        print(f"cost g(Z) = {result.objective_value:.6g}")
        nonzero = {
            k: round(v, 6) for k, v in result.assignment.items() if abs(v) > 1e-9
        }
        print(f"perturbation: {nonzero}")
        print(f"outer tightening rounds: {result.outer_iterations}")
        if args.output and result.repaired_model is not None:
            save_model(result.repaired_model, args.output)
            print(f"repaired model written to {args.output}")
    print(f"message: {result.message}")
    return 0 if result.feasible and result.robust else 1


def _cmd_cegis_repair(args: argparse.Namespace) -> int:
    from repro.core import repair_cegis
    from repro.io import save_model
    from repro.mdp import DTMC

    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    if not isinstance(model, DTMC):
        print("cegis-repair operates on DTMC models", file=sys.stderr)
        return 2
    np.random.seed(args.seed)
    result = repair_cegis(
        model,
        formula,
        max_perturbation=args.max_perturbation,
        engine=args.engine,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.feasible else 1
    print(f"status: {result.status}")
    print(
        f"iterations: {result.iterations} "
        f"(constraints={result.constraints_added}, "
        f"fallbacks={result.fallbacks})"
    )
    if result.status == "repaired":
        print(f"cost g(Z) = {result.objective_value:.6g}")
        print(f"verified: {result.verified}")
        nonzero = {
            k: round(v, 6) for k, v in result.assignment.items() if abs(v) > 1e-9
        }
        print(f"perturbation: {nonzero}")
        if args.output and result.repaired_model is not None:
            save_model(result.repaired_model, args.output)
            print(f"repaired model written to {args.output}")
    print(f"message: {result.message}")
    return 0 if result.feasible else 1


def _cmd_rate_repair(args: argparse.Namespace) -> int:
    from repro.core import repair_rates
    from repro.ctmc import CTMC
    from repro.io import save_model

    model = _load_model(args.model)
    if not isinstance(model, CTMC):
        print("rate-repair operates on CTMC models", file=sys.stderr)
        return 2
    np.random.seed(args.seed)
    targets = [t for t in args.targets.split(",") if t]
    if not targets:
        print("--targets needs at least one state", file=sys.stderr)
        return 2
    result = repair_rates(
        model,
        targets,
        args.bound,
        max_speedup=args.max_speedup,
        seed=args.seed,
    )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.feasible else 1
    print(f"status: {result.status}")
    print(f"expected time = {result.expected_time:.6g} (bound {args.bound:.6g})")
    if result.status == "repaired":
        nonzero = {
            k: round(v, 6)
            for k, v in result.scales.items()
            if abs(v - 1.0) > 1e-9
        }
        print(f"rate scales: {nonzero}")
        if args.output:
            save_model(result.repaired_ctmc, args.output)
            print(f"repaired CTMC written to {args.output}")
    return 0 if result.feasible else 1


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from repro.checking import DTMCModelChecker, counterexample
    from repro.logic.pctl import ProbabilisticOperator
    from repro.mdp import DTMC

    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    if not isinstance(model, DTMC):
        print("counterexample operates on DTMC models", file=sys.stderr)
        return 2
    np.random.seed(args.seed)
    if not isinstance(formula, ProbabilisticOperator):
        print("counterexample needs a P<=b / P<b formula", file=sys.stderr)
        return 2
    check = DTMCModelChecker(model, engine=args.engine).check(formula)
    if check.holds:
        if args.json:
            import json

            print(json.dumps({"holds": True, "counterexample": None}))
        else:
            print("property holds; no counterexample exists")
        return 0
    evidence = counterexample(model, formula, max_paths=args.max_paths)
    if args.json:
        import json

        payload = {
            "holds": False,
            "value": check.value,
            "counterexample": evidence.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1
    print(
        f"violated: probability {check.value:.6g} exceeds bound "
        f"{formula.bound:.6g}"
    )
    print(
        f"evidence ({len(evidence)} paths, mass "
        f"{evidence.total_probability:.6g}, complete={evidence.complete}):"
    )
    for path, probability in zip(evidence.paths, evidence.probabilities):
        rendered = " -> ".join(str(state) for state in path)
        print(f"  {probability:.6g}  {rendered}")
    return 1


def _cmd_export_prism(args: argparse.Namespace) -> int:
    from repro.io import dtmc_to_prism, mdp_to_prism
    from repro.mdp import DTMC

    model = _load_model(args.model)
    text = dtmc_to_prism(model) if isinstance(model, DTMC) else mdp_to_prism(model)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    import json

    from repro.corpus import FAMILIES, get_family

    if args.corpus_command == "list":
        entries = [FAMILIES[name].describe() for name in sorted(FAMILIES)]
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
        else:
            for entry in entries:
                sizes = ", ".join(str(s) for s in entry["sizes"])
                print(
                    f"{entry['name']:<8s} {entry['kind']:<11s} "
                    f"sizes [{sizes}]  {entry['description']}"
                )
        return 0
    try:
        family = get_family(args.family)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    size = args.size if args.size is not None else family.sizes[0]
    try:
        source = family.prism_source(size, seed=args.seed)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.json:
        model = family.model(size, seed=args.seed)
        payload = {
            "family": family.name,
            "size": int(size),
            "seed": int(args.seed),
            "states": model.num_states,
            "variables": family.variable_count(size, seed=args.seed),
            "prism": source,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
        print(f"written to {args.output}")
    else:
        print(source)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.service import BatchRunner, Telemetry, load_jobs

    try:
        jobs = load_jobs(args.jobs)
    except (OSError, ValueError) as error:
        # A missing or unreadable file, bad JSON, an unknown kind or a
        # duplicate job_id (JobValidationError is a ValueError).
        print(f"cannot load jobs from {args.jobs}: {error}", file=sys.stderr)
        return 2
    telemetry = Telemetry(path=args.telemetry)
    runner = BatchRunner(
        max_workers=args.workers,
        store_dir=args.store,
        telemetry=telemetry,
        job_timeout=args.timeout,
        max_retries=args.max_retries,
        seed=args.seed,
    )
    report = runner.run(jobs)
    for outcome in report:
        mark = {"succeeded": "ok", "degraded": "ok~"}.get(outcome.status, "FAIL")
        detail = f" [{outcome.error}]" if outcome.error else ""
        print(
            f"{mark:<5} {outcome.job_id:<24} {outcome.status:<20} "
            f"attempts={outcome.attempts} "
            f"{'cached ' if outcome.cached else ''}{detail}"
        )
    statuses = report.by_status()
    print(
        f"batch: {len(report)} jobs in {report.wall_clock:.2f}s "
        f"({', '.join(f'{k}={v}' for k, v in sorted(statuses.items()))})"
    )
    print(telemetry.summary())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True, default=str)
        print(f"report written to {args.output}")
    return 0 if report.all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.server import build_server
    from repro.service.telemetry import Telemetry

    server = build_server(
        host=args.host,
        port=args.port,
        store_dir=args.store,
        telemetry=Telemetry(path=args.telemetry),
        queue_size=args.queue_size,
        queue_workers=args.queue_workers,
        rate_limit=args.rate_limit,
        drain_timeout=args.drain_timeout,
    )

    def on_sigterm(_signum, _frame):
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:
        pass  # not on the main thread
    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port}")
    print(
        "endpoints: GET /health, GET /counters, GET /queue, "
        "GET /jobs/<ticket>, POST /batch (sync), POST /jobs (async)"
    )
    print(
        f"queue: capacity={args.queue_size} workers={args.queue_workers} "
        f"rate_limit={args.rate_limit or 'off'}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        print("draining queue...")
        server.server_close()
    return 0


def _cmd_wsn_demo(args: argparse.Namespace) -> int:
    from repro.casestudies import wsn

    print(f"WSN query routing: R{{attempts}} <= {args.bound} [ F delivered ]")
    result = wsn.model_repair_problem(args.bound).repair()
    print(f"status: {result.status}")
    if result.status == "repaired":
        print(
            "corrections: "
            + ", ".join(f"{k}={v:.4f}" for k, v in result.assignment.items())
        )
        print(f"epsilon = {result.epsilon:.4f}, verified = {result.verified}")
    return 0


def _cmd_car_demo(_args: argparse.Namespace) -> int:
    from repro.casestudies import car
    from repro.core import QValueConstraint, RewardRepair

    mdp = car.build_car_mdp()
    repair = RewardRepair(mdp, car.car_features(), discount=car.DISCOUNT)
    learned_policy = repair.optimal_policy(car.PAPER_LEARNED_THETA)
    print(f"learned theta  : {np.round(car.PAPER_LEARNED_THETA, 3)}")
    print(f"action at S1   : {learned_policy['S1']} (0 = drive into the van)")
    print(
        "unsafe from    : "
        f"{car.states_leading_to_unsafe(mdp, learned_policy)}"
    )
    result = repair.q_constrained(
        car.PAPER_LEARNED_THETA,
        [QValueConstraint("S1", car.LEFT, car.FORWARD)],
    )
    print(f"repaired theta : {np.round(result.theta_after, 3)}")
    print(f"action at S1   : {result.policy_after['S1']} (1 = change lane)")
    print(f"policy safe    : {car.policy_is_safe(mdp, result.policy_after)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trusted Machine Learning for MDPs: "
        "model, data and reward repair under PCTL constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared checking knobs: engine selection and reproducibility seed.
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument(
        "--engine",
        choices=("sparse", "dense"),
        default="sparse",
        help="linear-algebra backend for model checking (default: sparse)",
    )
    engine_opts.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for randomized components (NLP multi-starts, sampling)",
    )

    check = sub.add_parser(
        "check", parents=[engine_opts], help="model-check a PCTL formula"
    )
    check.add_argument("model", help="JSON model file (see repro.io.save_model)")
    check.add_argument("formula", help='PCTL text, e.g. \'P>=0.9 [ F "goal" ]\'')
    check.set_defaults(func=_cmd_check)

    repair = sub.add_parser(
        "model-repair",
        parents=[engine_opts],
        help="repair a chain toward a formula",
    )
    repair.add_argument("model")
    repair.add_argument("formula")
    repair.add_argument("--max-perturbation", type=float, default=None)
    repair.add_argument("-o", "--output", default=None)
    repair.add_argument(
        "--json",
        action="store_true",
        help="print the canonical RepairResult.to_dict() payload",
    )
    repair.set_defaults(func=_cmd_model_repair)

    robust = sub.add_parser(
        "robust-repair",
        parents=[engine_opts],
        help="repair a chain with an interval-robust certificate",
    )
    robust.add_argument("model")
    robust.add_argument("formula")
    robust.add_argument(
        "--epsilon",
        type=float,
        default=0.01,
        help="half-width of the interval ball the certificate quantifies "
        "over (default: 0.01)",
    )
    robust.add_argument("--max-perturbation", type=float, default=None)
    robust.add_argument("-o", "--output", default=None)
    robust.add_argument(
        "--json",
        action="store_true",
        help="print the canonical RepairResult.to_dict() payload",
    )
    robust.set_defaults(func=_cmd_robust_repair)

    cegis = sub.add_parser(
        "cegis-repair",
        parents=[engine_opts],
        help="counterexample-guided repair (localized constraints)",
    )
    cegis.add_argument("model")
    cegis.add_argument("formula")
    cegis.add_argument(
        "--max-iterations",
        type=int,
        default=10,
        help="bound on check → localize → solve rounds (default: 10)",
    )
    cegis.add_argument("--max-perturbation", type=float, default=None)
    cegis.add_argument("-o", "--output", default=None)
    cegis.add_argument(
        "--json",
        action="store_true",
        help="print the canonical RepairResult.to_dict() payload",
    )
    cegis.set_defaults(func=_cmd_cegis_repair)

    rate = sub.add_parser(
        "rate-repair",
        parents=[engine_opts],
        help="scale CTMC rates to meet an expected-time bound",
    )
    rate.add_argument("model", help="JSON CTMC file (see repro.io.save_model)")
    rate.add_argument(
        "--targets",
        required=True,
        help="comma-separated target states for the hitting time",
    )
    rate.add_argument(
        "--bound",
        type=float,
        required=True,
        help="upper bound on the expected time to the targets",
    )
    rate.add_argument("--max-speedup", type=float, default=2.0)
    rate.add_argument("-o", "--output", default=None)
    rate.add_argument(
        "--json",
        action="store_true",
        help="print the canonical RepairResult.to_dict() payload",
    )
    rate.set_defaults(func=_cmd_rate_repair)

    cx = sub.add_parser(
        "counterexample",
        parents=[engine_opts],
        help="evidence paths for a violated P<=b reachability bound",
    )
    cx.add_argument("model")
    cx.add_argument("formula")
    cx.add_argument("--max-paths", type=int, default=25)
    cx.add_argument(
        "--json",
        action="store_true",
        help="print the verdict and Counterexample.to_dict() payload",
    )
    cx.set_defaults(func=_cmd_counterexample)

    batch = sub.add_parser(
        "batch",
        help="run a JSON jobs file through the fault-tolerant batch runner",
    )
    batch.add_argument("jobs", help="jobs file (see repro.service.jobs)")
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (0 = inline; default: CPU count)",
    )
    batch.add_argument(
        "--store", default=None, help="persistent result-store directory"
    )
    batch.add_argument(
        "--telemetry", default=None, help="JSON-lines telemetry log path"
    )
    batch.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout (seconds)"
    )
    batch.add_argument("--max-retries", type=int, default=2)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "-o", "--output", default=None, help="write the full JSON report here"
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="serve the batch runtime over a localhost JSON API"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--store", default=None)
    serve.add_argument("--telemetry", default=None)
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bounded async queue capacity; a full queue answers 503 "
        "with Retry-After (default 64)",
    )
    serve.add_argument(
        "--queue-workers",
        type=int,
        default=2,
        help="worker threads draining the async queue (default 2)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client POST /jobs submissions per second "
        "(token bucket; default unlimited)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let queued/in-flight jobs finish on shutdown "
        "(default 30)",
    )
    serve.set_defaults(func=_cmd_serve)

    export = sub.add_parser("export-prism", help="export a model to PRISM syntax")
    export.add_argument("model")
    export.add_argument("-o", "--output", default=None)
    export.set_defaults(func=_cmd_export_prism)

    corpus = sub.add_parser(
        "corpus", help="the PRISM scenario corpus (list / generate)"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_list = corpus_sub.add_parser(
        "list", help="list the benchmark families and their sizes"
    )
    corpus_list.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    corpus_list.set_defaults(func=_cmd_corpus)
    corpus_generate = corpus_sub.add_parser(
        "generate", help="emit one family member as PRISM source"
    )
    corpus_generate.add_argument(
        "--family", required=True, help="family name (see 'corpus list')"
    )
    corpus_generate.add_argument(
        "--size", type=int, default=None,
        help="family size parameter (default: the family's smallest)",
    )
    corpus_generate.add_argument(
        "--seed", type=int, default=0,
        help="generator seed (only the seeded families vary with it)",
    )
    corpus_generate.add_argument("-o", "--output", default=None)
    corpus_generate.add_argument(
        "--json", action="store_true",
        help="wrap the PRISM source in a JSON summary payload",
    )
    corpus_generate.set_defaults(func=_cmd_corpus)

    wsn_demo = sub.add_parser("wsn-demo", help="run the WSN model-repair case study")
    wsn_demo.add_argument("--bound", type=float, default=40.0)
    wsn_demo.set_defaults(func=_cmd_wsn_demo)

    car_demo = sub.add_parser("car-demo", help="run the car reward-repair case study")
    car_demo.set_defaults(func=_cmd_car_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
