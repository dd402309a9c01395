"""Metric names, units and the per-layer mapping from trace summaries.

``BENCHMARK.json`` at the repository root declares the same names; the
harness checks the two agree before it reports anything.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from tracer import dominant_layer

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "objective_total": "objective",
    "peak_rss_mb": "MB",
}

#: Layers that report busy time and self time; the dominant layer is the
#: one with the most self time.
TIMED_LAYERS = (
    "checking.parametric",
    "checking.cache",
    "checking.concrete",
    "checking.counterexample",
    "symbolic.compile",
    "optimize",
    "repair.engine",
    "repair.verify",
    "repair.cegis",
    "repair.robust",
    "mdp.interval",
    "service.store",
    "io.prism_parser",
    "corpus.calibrate",
)

#: Counters summed from span annotations, as ``metric: (layer, counter)``.
COUNTERS = {
    "checking.parametric.eliminations": ("checking.parametric", "eliminations"),
    "checking.parametric.states": ("checking.parametric", "states"),
    "checking.parametric.fill_in": ("checking.parametric", "fill_in"),
    "checking.counterexample.states": ("checking.counterexample", "states"),
    "optimize.iterations": ("optimize", "iterations"),
    "optimize.function_evaluations": ("optimize", "function_evaluations"),
    "optimize.gradient_evaluations": ("optimize", "gradient_evaluations"),
    "optimize.joint_solves": ("optimize", "joint_solves"),
    "repair.cegis.iterations": ("repair.cegis", "iterations"),
    "repair.cegis.constraints_added": ("repair.cegis", "constraints_added"),
    "repair.cegis.resumed_rounds": ("repair.cegis", "resumed_rounds"),
    "repair.cegis.tightenings": ("repair.cegis", "tightenings"),
    "repair.cegis.fallbacks": ("repair.cegis", "fallbacks"),
    "repair.robust.outer_rounds": ("repair.robust", "outer_rounds"),
    "repair.robust.fallbacks": ("repair.robust", "fallbacks"),
    "mdp.interval.vi_iterations": ("mdp.interval", "vi_iterations"),
    "symbolic.compile.compilations": ("scenario", "compilations"),
    "symbolic.compile.dispatches": ("scenario", "dispatches"),
    "symbolic.compile.evaluations": ("scenario", "evaluations"),
}

SERVICE = ("service.hit_ms_p50", "service.miss_ms_p50", "service.runner_ms",
           "service.wait_ms", "service.store_hit_ratio")


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.self_ms"] = "ms"
    units["checking.parametric.reuse_hits"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units["optimize.start_success_ratio"] = "ratio"
    units["checking.cache.hit_ratio"] = "ratio"
    units.update({name: "ms" for name in SERVICE})
    units["service.store_hit_ratio"] = "ratio"
    units["scenario.self_ms"] = "ms"
    units["trace.dominant_self_share"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = _per_layer_units()


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def service_layers(records: List[dict]) -> Dict[str, float]:
    """Client-side split of round trips by the outcome's ``cached`` flag."""
    answered = [r for r in records if r["duration_ms"] is not None]
    hits = [r for r in answered if r["cached"]]
    misses = [r for r in answered if not r["cached"]]
    return {
        "service.hit_ms_p50": _median([r["ms"] for r in hits]),
        "service.miss_ms_p50": _median([r["ms"] for r in misses]),
        "service.runner_ms": _median([r["duration_ms"] for r in answered]),
        "service.wait_ms": _median([r["ms"] - r["duration_ms"] for r in answered]),
        "service.store_hit_ratio": len(hits) / len(answered) if answered else 0.0,
    }


def layer_metrics(layers: Dict[str, Dict[str, float]],
                  service: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the trace overhead."""
    def get(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0.0))

    values: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        for key in ("calls", "ms", "self_ms"):
            values[f"{layer}.{key}"] = get(layer, key)
    values["scenario.self_ms"] = get("scenario", "self_ms")
    values["checking.parametric.reuse_hits"] = (
        get("checking.parametric", "reuse_hits") + get("checking.cache", "reuse_hits")
    )
    for name, (layer, counter) in COUNTERS.items():
        values[name] = get(layer, counter)
    starts = get("optimize", "starts")
    values["optimize.start_success_ratio"] = (
        get("optimize", "starts_converged") / starts if starts else 0.0
    )
    lookups = get("scenario", "cache_hits") + get("scenario", "cache_misses")
    values["checking.cache.hit_ratio"] = (
        get("scenario", "cache_hits") / lookups if lookups else 0.0
    )
    values.update(service or {name: 0.0 for name in SERVICE})
    values["trace.dominant_self_share"] = dominant_layer(layers)[1]
    return values
