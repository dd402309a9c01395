"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits ``src/``: it wraps the public functions and
methods each pipeline layer exposes, from outside, after the package is
imported.  A span records its name, start, end, parent span and the
scenario (or service job) it belongs to.  The parent stack is kept per
thread, so spans opened on a server's worker threads nest under that
thread's own spans.  Spans stay in memory until the pass ends.

Functions that other modules import *by value* (``solve_repair``,
``cached_check``, the counterexample searches, ``parse_prism``) are
patched at every module that holds a reference to them: each module of
the package is scanned for attributes that *are* the original function.

Self time of a span is its duration minus the part of it that its child
spans cover.  A layer's ``ms`` counts only outermost spans of that
layer, so a ``solve_repair`` nested inside a CEGIS round is not counted
twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Modules imported before patching, so every binding site exists.
MODULES = (
    "repro.checking",
    "repro.checking.cache",
    "repro.checking.counterexample",
    "repro.checking.dtmc",
    "repro.checking.mdp",
    "repro.checking.parametric",
    "repro.core",
    "repro.core.api",
    "repro.corpus",
    "repro.ctmc.repair",
    "repro.io",
    "repro.io.prism_parser",
    "repro.mdp.interval",
    "repro.optimize.nlp",
    "repro.repair",
    "repro.repair.cegis",
    "repro.repair.engine",
    "repro.repair.robust",
    "repro.service.runner",
    "repro.service.server",
    "repro.service.store",
    "repro.symbolic.compile",
)

#: Root spans: one per scenario, service job or workload set-up step.
ROOT_LAYERS = ("scenario", "setup")

#: Minimum binding sites each by-value function must be found at; a
#: lower count means a new import path escaped the scan.
MIN_BINDINGS = {
    "solve_repair": 6,
    "cached_check": 6,
    "counterexample": 2,
    "strongest_evidence_paths": 2,
    "parse_prism": 2,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "scope", "thread", "counters")

    def __init__(self, name, start, parent, scope, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.scope = scope
        self.thread = thread
        self.counters: Dict[str, float] = {}

    def to_dict(self, index_of) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else index_of[id(self.parent)],
            "scope": self.scope,
            "thread": self.thread,
            "counters": self.counters,
        }


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self.lock = threading.Lock()
        self.bindings: Dict[str, int] = {}
        self.caches: list = []

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, scope: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if scope is None and parent is not None:
            scope = parent.scope
        span = Span(name, time.monotonic(), parent, scope, threading.get_ident())
        stack.append(span)
        with self.lock:
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, scope: Optional[str] = None):
        span = self.open(name, scope)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(
        self,
        name: str,
        function: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        scope: Optional[Callable] = None,
    ) -> Callable:
        """``function`` recorded as a ``name`` span.

        ``before(args, kwargs)`` runs inside the span and returns a state;
        ``after(state, args, kwargs, result)`` returns counters to add to
        the span (or a ``(name, counters)`` pair that also renames it).
        ``scope(args, kwargs)`` names the scenario or job of a root span.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer.open(name, scope(args, kwargs) if scope else None)
            try:
                state = before(args, kwargs) if before else None
                result = function(*args, **kwargs)
                if after:
                    extra = after(state, args, kwargs, result)
                    if isinstance(extra, tuple):
                        span.name, extra = extra
                    span.counters.update(extra)
                return result
            finally:
                tracer.close(span)

        return traced

    # -- patching -------------------------------------------------------
    def patch_method(self, cls, attribute: str, name: str, **hooks) -> None:
        setattr(cls, attribute, self.wrap(name, getattr(cls, attribute), **hooks))

    def patch_function(self, original: Callable, name: str, **hooks) -> None:
        """Replace ``original`` at every module of the package binding it."""
        traced = self.wrap(name, original, **hooks)
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)
                    sites += 1
        self.bindings[original.__name__] = sites

    # -- export ---------------------------------------------------------
    def export(self) -> List[dict]:
        index_of = {id(span): index for index, span in enumerate(self.spans)}
        return [span.to_dict(index_of) for span in self.spans]


def _stats_delta(before: Dict[str, int], after: Dict[str, int], key: str) -> int:
    return int(after.get(key, 0) - before.get(key, 0))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark measures."""
    for module in MODULES:
        importlib.import_module(module)
    from repro.checking import cache as cache_module
    from repro.checking.dtmc import DTMCModelChecker
    from repro.checking.mdp import MDPModelChecker
    from repro.checking.parametric import ParametricConstraint
    from repro.corpus.families import CorpusFamily
    from repro.io.prism_parser import parse_prism
    from repro.mdp.interval import IntervalDTMC
    from repro.optimize.nlp import NonlinearProgram
    from repro.repair.cegis import CegisRepair
    from repro.repair.engine import solve_repair
    from repro.repair.problem import RepairProblem
    from repro.repair.robust import RobustRepair
    from repro.service.runner import BatchRunner
    from repro.service.store import ResultStore
    from repro.symbolic.compile import StackedConstraintKernel

    cex_module = sys.modules["repro.checking.counterexample"]
    CheckCache = cache_module.CheckCache

    # Every cache created from now on is kept, so hit ratios can be summed.
    original_init = CheckCache.__init__

    @functools.wraps(original_init)
    def remember_cache(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        with tracer.lock:
            tracer.caches.append(self)

    CheckCache.__init__ = remember_cache
    tracer.caches.append(cache_module.GLOBAL_CACHE)

    # checking.parametric: a call that only hits the cache is relabelled
    # ``checking.cache``; a call that eliminates keeps the layer name.
    def cache_before(args, kwargs):
        return args[0].stats()

    def cache_after(before, args, kwargs, result):
        after = args[0].stats()
        counters = {
            "eliminations": _stats_delta(before, after, "parametric_eliminations"),
            "states": _stats_delta(before, after, "elimination_states"),
            "fill_in": _stats_delta(before, after, "elimination_fill_in"),
            "reuse_hits": _stats_delta(before, after, "elimination_reuse_hits"),
        }
        if counters["eliminations"] == 0:
            return "checking.cache", counters
        return counters

    for method in ("parametric_constraint", "corridor_constraint"):
        tracer.patch_method(
            CheckCache, method, "checking.parametric",
            before=cache_before, after=cache_after,
        )

    tracer.patch_method(ParametricConstraint, "compiled", "symbolic.compile")
    tracer.patch_method(StackedConstraintKernel, "__init__", "symbolic.compile")

    def nlp_after(state, args, kwargs, result):
        stats = result.solver_stats
        return {
            "iterations": stats.get("iterations", 0),
            "function_evaluations": stats.get("function_evaluations", 0),
            "gradient_evaluations": stats.get("gradient_evaluations", 0),
            "joint_solves": stats.get("joint_solves", 0),
            "starts": result.starts_tried,
            "starts_converged": stats.get("starts_converged", 0),
        }

    tracer.patch_method(NonlinearProgram, "solve", "optimize", after=nlp_after)

    def evidence_after(state, args, kwargs, result):
        if hasattr(result, "touched_states"):
            states = result.touched_states()
        else:
            states = {s for path, _probability in result for s in path}
        return {"states": len(states)}

    tracer.patch_function(
        cex_module.counterexample, "checking.counterexample", after=evidence_after
    )
    tracer.patch_function(
        cex_module.strongest_evidence_paths, "checking.counterexample",
        after=evidence_after,
    )

    tracer.patch_method(DTMCModelChecker, "check", "checking.concrete")
    tracer.patch_method(MDPModelChecker, "check", "checking.concrete")
    tracer.patch_function(cache_module.cached_check, "checking.cache")

    tracer.patch_function(solve_repair, "repair.engine")
    tracer.patch_method(RepairProblem, "run_verify", "repair.verify")

    def cegis_after(state, args, kwargs, result):
        log = result.iteration_log
        return {
            "iterations": result.iterations,
            "constraints_added": result.constraints_added,
            "resumed_rounds": sum(1 for r in log if r.elimination_resumed),
            "tightenings": sum(r.tightenings for r in log),
            "fallbacks": result.fallbacks,
        }

    tracer.patch_method(CegisRepair, "repair", "repair.cegis", after=cegis_after)

    def robust_after(state, args, kwargs, result):
        certificate = result.certificate
        fallback = certificate is not None and certificate.fallback_reason
        return {
            "outer_rounds": result.outer_iterations,
            "fallbacks": 1 if fallback else 0,
        }

    tracer.patch_method(RobustRepair, "repair", "repair.robust", after=robust_after)

    def vi_after(state, args, kwargs, result):
        return {"vi_iterations": result[1].iterations}

    for method in ("reachability_values_report", "expected_reward_values_report"):
        tracer.patch_method(IntervalDTMC, method, "mdp.interval", after=vi_after)

    tracer.patch_function(parse_prism, "io.prism_parser")
    tracer.patch_method(CorpusFamily, "formula", "corpus.calibrate")

    def job_scope(args, kwargs):
        jobs = args[1]
        return jobs[0].job_id if jobs else None

    tracer.patch_method(
        BatchRunner, "run", "scenario", scope=job_scope,
        before=lambda args, kwargs: work_snapshot(tracer),
        after=lambda state, args, kwargs, result: work_delta(
            state, work_snapshot(tracer)
        ),
    )
    tracer.patch_method(ResultStore, "get", "service.store")
    tracer.patch_method(ResultStore, "put", "service.store")

    for name, minimum in MIN_BINDINGS.items():
        if tracer.bindings.get(name, 0) < minimum:
            raise RuntimeError(
                f"tracer found {name} at {tracer.bindings.get(name, 0)} "
                f"module(s), expected at least {minimum}"
            )
    return tracer


def work_snapshot(tracer: Tracer) -> Dict[str, int]:
    """Process-wide kernel counters plus hits and misses of every cache."""
    from repro.symbolic.compile import kernel_stats

    snapshot = dict(kernel_stats())
    with tracer.lock:
        caches = list(tracer.caches)
    snapshot["cache_hits"] = sum(cache.hits for cache in caches)
    snapshot["cache_misses"] = sum(cache.misses for cache in caches)
    return snapshot


def work_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Counter movement between two :func:`work_snapshot` calls.

    Attached to root spans, so a time window over the roots also
    selects the kernel and cache work done inside it.
    """
    return {key: after[key] - before.get(key, 0) for key in after}


def summarize(spans: List[dict], window=None) -> Dict[str, Dict[str, float]]:
    """Per-layer calls, busy ms, self ms and summed counters.

    ``window`` (``(start, end)`` in monotonic seconds) keeps only spans
    that start inside it — the timed part of a service pass.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)

    def covered(index: int) -> float:
        span = spans[index]
        intervals = sorted(
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children.get(index, ())
        )
        total, reach = 0.0, span["start"]
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                total += end - start
                reach = end
        return total

    def nested_in_same_layer(index: int) -> bool:
        name = spans[index]["name"]
        parent = spans[index]["parent"]
        while parent is not None:
            if spans[parent]["name"] == name:
                return True
            parent = spans[parent]["parent"]
        return False

    layers: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if window is not None and not window[0] <= span["start"] <= window[1]:
            continue
        entry = layers.setdefault(
            span["name"], {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        if not nested_in_same_layer(index):
            entry["ms"] += duration * 1e3
        entry["self_ms"] += (duration - covered(index)) * 1e3
        for key, value in span["counters"].items():
            entry[key] = entry.get(key, 0) + value
    return layers


def dominant_layer(layers: Dict[str, Dict[str, float]]):
    """``(name, share)`` of the non-root layer with the most self time."""
    inner = {
        name: entry["self_ms"]
        for name, entry in layers.items()
        if name not in ROOT_LAYERS
    }
    total = sum(inner.values())
    if not inner or total <= 0:
        return None, 0.0
    name = max(inner, key=inner.get)
    return name, inner[name] / total
