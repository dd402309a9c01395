"""One pass of one workload, in a fresh interpreter.

Usage::

    python3 perfbench/worker.py --workload corpus-cold --seed 0 \\
        --spawned <time.monotonic() at spawn> [--trace] [--setup-only] \\
        [--seconds 5] [--scratch DIR]

Prints one JSON object as its last line: set-up seconds (from spawn to
the end of set-up, so interpreter start and imports count), one record
per verdict (latency, verdict, objective, failed checks), peak RSS and,
with ``--trace``, the per-layer metrics of the pass.  The pass, and the
server it may start, stay on one CPU.  Batch verdict times are scaled to
the nominal host speed (``probe.py``), and their raw wall times are kept
as ``raw_ms``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import metrics
import probe
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent


def batch_pass(args, recorder) -> dict:
    import workloads

    with recorder.span("setup") if recorder else contextlib.nullcontext():
        scenarios = workloads.BATCH_WORKLOADS[args.workload](args.seed)
    setup_done = time.monotonic()
    if args.setup_only:
        return {"setup_done": setup_done}
    speed = probe.HostSpeed()

    @contextlib.contextmanager
    def scenario_span(sid):
        before = tracing.work_snapshot(recorder)
        with recorder.span("scenario", scope=sid) as span:
            yield
            span.counters.update(
                tracing.work_delta(before, tracing.work_snapshot(recorder))
            )

    records = []
    for scenario in scenarios:
        record = workloads.run_scenario(
            scenario, args.seed, scenario_span if recorder else None
        )
        record["raw_ms"] = record["ms"]
        record["ms"] = speed.scaled_ms(
            record["ms"], record.pop("started"), record.pop("ended")
        )
        records.append(record)
    speed.close()
    notes = []
    for record in records:
        result = record.pop("result", None)
        log = getattr(result, "iteration_log", None)
        if log is not None:
            tightenings = sum(r.tightenings for r in log)
            rounds = ", ".join(f"{r.localize_seconds:.3f}" for r in log)
            notes.append(
                f"{record['id']}: tightenings={tightenings} "
                f"localize_seconds=[{rounds}] objective={record['objective']:.4f}"
            )
            if tightenings:
                notes.append(f"{record['id']}: the tightening hatch fired")
    out = {
        "setup_done": setup_done,
        "records": records,
        "timed_s": sum(r["raw_ms"] for r in records) / 1e3,
        "objective_total": sum(
            r["objective"] for r in records if r["counted"] and r["objective"] is not None
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "notes": notes,
    }
    if recorder:
        layers = tracing.summarize(recorder.export())
        out["layers"] = layers
        out["per_layer"] = metrics.layer_metrics(layers)
    return out


def service_pass(args, recorder) -> dict:
    import service

    scratch = Path(args.scratch)
    with recorder.span("setup") if recorder else contextlib.nullcontext():
        hot = service.hot_jobs(args.seed)
        plan = service.job_plan(args.seed, hot)
    spans_path = scratch / "server-spans.json" if recorder else None
    server = service.Server(ROOT, scratch, spans_path)
    try:
        objectives = service.warm(server.port, hot)
        setup_done = time.monotonic()
        if args.setup_only:
            return {"setup_done": setup_done}
        window = (time.monotonic(), None)
        replies = service.load(server.port, plan, args.seconds)
        window = (window[0], time.monotonic())
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    reference = service.in_process_verdicts(hot)
    records = service.gate(replies, hot, reference)
    out = {
        "setup_done": setup_done,
        "records": records,
        "timed_s": window[1] - window[0],
        "objective_total": sum(
            value for job_id, value in objectives.items()
            if job_id not in service.SEEDED and reference[job_id] == "repaired"
        ),
        "peak_rss_mb": peak_rss,
        "notes": [],
    }
    if recorder:
        server_spans = json.loads(spans_path.read_text())["spans"]
        spans_path.unlink()
        layers = tracing.summarize(server_spans, window=window)
        client = tracing.summarize(recorder.export())
        for layer in ("io.prism_parser", "corpus.calibrate"):
            if layer in client:
                layers[layer] = client[layer]
        out["layers"] = layers
        out["per_layer"] = metrics.layer_metrics(
            layers, metrics.service_layers(records)
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--scratch", default=str(ROOT / ".perfbench" / "tmp"))
    args = parser.parse_args()

    probe.pin()
    recorder = tracing.install(tracing.Tracer()) if args.trace else None
    if args.workload == "service-mixed":
        out = service_pass(args, recorder)
    else:
        out = batch_pass(args, recorder)
    out["setup_s"] = out.pop("setup_done") - args.spawned
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
