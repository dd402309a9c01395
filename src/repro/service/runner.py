"""Fault-tolerant process-pool batch runner.

``BatchRunner`` drives a set of :class:`~repro.service.jobs.JobSpec`
through a :class:`~concurrent.futures.ProcessPoolExecutor` and
guarantees that **every job terminates with a definite status**:

``succeeded``
    The job ran to completion on the exact path.
``degraded``
    The exact engine hit the per-job timeout and a
    :class:`CheckJob` fell back to statistical checking
    (:mod:`repro.checking.statistical`); the result carries
    ``degraded=True``.
``failed-after-retries``
    The job kept crashing / timing out / erroring past the retry
    budget.  The last error is preserved on the outcome.
``cancelled``
    The batch was cancelled before the job finished.

Resilience mechanics:

* **Per-job timeout** — enforced *inside* the worker with
  ``signal.setitimer`` (the task runs on the worker's main thread), so
  a timed-out job returns a structured result and the worker survives.
  A watchdog in the dispatcher additionally covers workers hung beyond
  the alarm (e.g. stuck in C code): the pool is torn down, its
  processes killed, and the in-flight jobs retried.
* **Crash recovery** — a dying worker (``os._exit``, OOM kill) breaks
  the whole ``ProcessPoolExecutor``; the runner detects the broken
  pool, rebuilds it, and charges every in-flight job one attempt
  (conservative — the culprit cannot be identified — but bounded).
* **Bounded retries** — exponential backoff with deterministic
  seeded jitter; ``max_retries`` exhaustion yields
  ``failed-after-retries`` rather than an exception.
* **Cancellation** — :meth:`BatchRunner.cancel` (thread-safe) drains
  the batch; unfinished jobs report ``cancelled``.
* **Shared persistent cache** — with ``store_dir`` set, every worker
  installs a :class:`~repro.checking.cache.CheckCache` backed by the
  on-disk :class:`~repro.service.store.ResultStore`, and whole-job
  results are deduplicated by content fingerprint, so re-running an
  identical batch performs zero parametric eliminations.

``max_workers=0`` runs jobs inline in the calling process (no pool) —
the sequential baseline used by the benchmarks, and the execution mode
of the HTTP server's synchronous endpoint.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpus import usable_cpus
from repro.service.faults import FaultPlan, InjectedFault
from repro.service.jobs import JobSpec, JobValidationError, job_from_dict
from repro.service.telemetry import Telemetry, solver_counters

#: Definite terminal statuses (acceptance: every job ends in one).
TERMINAL_STATUSES = (
    "succeeded",
    "degraded",
    "failed-after-retries",
    "cancelled",
)


class JobTimeout(Exception):
    """Raised inside a worker when the per-job alarm fires."""


# ----------------------------------------------------------------------
# Worker side (module-level: everything here must be picklable)
# ----------------------------------------------------------------------
def _cache_snapshot() -> Dict[str, int]:
    from repro.checking import cache as cache_module
    from repro.symbolic.compile import kernel_stats

    snapshot = dict(cache_module.GLOBAL_CACHE.stats())
    snapshot.update(kernel_stats())
    return snapshot


def _cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = _cache_snapshot()
    return {
        "cache_hits": after.get("hits", 0) - before.get("hits", 0),
        "cache_misses": after.get("misses", 0) - before.get("misses", 0),
        "cache_evictions": after.get("evictions", 0)
        - before.get("evictions", 0),
        "backing_hits": after.get("backing_hits", 0)
        - before.get("backing_hits", 0),
        "parametric_eliminations": after.get("parametric_eliminations", 0)
        - before.get("parametric_eliminations", 0),
        "elimination_states": after.get("elimination_states", 0)
        - before.get("elimination_states", 0),
        "elimination_fill_in": after.get("elimination_fill_in", 0)
        - before.get("elimination_fill_in", 0),
        "elimination_reuse_hits": after.get("elimination_reuse_hits", 0)
        - before.get("elimination_reuse_hits", 0),
        "elimination_ms": after.get("elimination_ms", 0)
        - before.get("elimination_ms", 0),
        "kernel_compilations": after.get("compilations", 0)
        - before.get("compilations", 0),
        "kernel_evaluations": after.get("evaluations", 0)
        - before.get("evaluations", 0),
        "kernel_dispatches": after.get("dispatches", 0)
        - before.get("dispatches", 0),
    }


def _alarm_guard(seconds: Optional[float]):
    """Install a SIGALRM-based timeout; returns a restore callback.

    No-op (returns ``None`` restore) when no timeout was requested, the
    platform lacks ``SIGALRM``, or we are not on the main thread (the
    HTTP server executes inline jobs on handler threads).
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return None

    def on_alarm(_signum, _frame):
        raise JobTimeout(f"job exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))

    def restore():
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

    return restore


def _run_job_in_worker(task: Dict) -> Dict:
    """Execute one job attempt; always returns a structured dict.

    ``task`` carries plain data only: the job's ``to_dict`` form, the
    attempt number, runner configuration, and an optional fault plan.
    Raises only via injected crashes (``os._exit``) — every other
    failure mode is folded into the returned payload.  A payload that
    cannot even be rebuilt into a spec returns a structured
    ``failure: "invalid"`` record (never retried — the payload will not
    get better) instead of ripping through the worker.
    """
    raw_job = task.get("job")
    try:
        job = job_from_dict(raw_job)
    except JobValidationError as exc:
        raw = raw_job if isinstance(raw_job, dict) else {}
        return {
            "ok": False,
            "failure": "invalid",
            "error": str(exc),
            "job_id": str(raw.get("job_id", "<unknown>")),
            "kind": str(raw.get("kind", "<unknown>")),
            "attempt": int(task.get("attempt", 0)),
            "pid": os.getpid(),
            "duration": 0.0,
        }
    attempt = int(task["attempt"])
    store_dir = task.get("store_dir")
    inline = bool(task.get("inline", False))
    started = time.monotonic()

    store = None
    if store_dir is not None:
        from repro.service.store import ResultStore, install_process_cache

        install_process_cache(
            store_dir, max_entries=task.get("cache_max_entries", 4096)
        )
        store = ResultStore(store_dir)

    before = _cache_snapshot()
    base = {
        "job_id": job.job_id,
        "kind": job.kind,
        "attempt": attempt,
        "pid": os.getpid(),
    }

    def finish(payload: Dict) -> Dict:
        payload.update(base)
        payload.setdefault("solver_iterations", 0)
        payload.setdefault("solver_function_evaluations", 0)
        payload["duration"] = time.monotonic() - started
        payload.update(_cache_delta(before))
        return payload

    # Whole-job dedup: identical content already computed (this run or a
    # previous one) is served from the store without re-execution.
    result_key = ("job-result", job.fingerprint())
    if store is not None:
        stored = store.get(result_key)
        if stored is not None:
            return finish(
                {"ok": True, "status": "succeeded", "result": stored,
                 "cached": True}
            )

    faults = task.get("faults")
    plan = FaultPlan.from_dict(faults) if faults else None

    restore = _alarm_guard(task.get("timeout"))
    try:
        if plan is not None:
            plan.apply(job.job_id, attempt, allow_crash=not inline)
        result = job.run(cache=None)
    except JobTimeout as exc:
        if task.get("fallback", True) and hasattr(job, "run_statistical"):
            try:
                degraded = job.run_statistical(seed=attempt)
            except Exception as fallback_exc:  # noqa: BLE001 — report, never raise
                return finish(
                    {"ok": False, "failure": "timeout",
                     "error": f"{exc}; statistical fallback failed: "
                              f"{fallback_exc}"}
                )
            return finish(
                {"ok": True, "status": "degraded", "result": degraded,
                 "degraded": True, "fallback": True}
            )
        return finish({"ok": False, "failure": "timeout", "error": str(exc)})
    except InjectedFault as exc:
        return finish({"ok": False, "failure": "injected", "error": str(exc)})
    except Exception as exc:  # noqa: BLE001 — workers must not raise
        return finish(
            {"ok": False, "failure": "error",
             "error": f"{type(exc).__name__}: {exc}"}
        )
    finally:
        if restore is not None:
            restore()

    if store is not None:
        store.put(result_key, result)
    return finish(
        {"ok": True, "status": "succeeded", "result": result,
         **solver_counters(result)}
    )


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
class JobOutcome:
    """Terminal record for one job of a batch."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        status: str,
        attempts: int,
        duration: float,
        result: Optional[Dict] = None,
        error: Optional[str] = None,
        degraded: bool = False,
        cached: bool = False,
    ):
        assert status in TERMINAL_STATUSES, status
        self.job_id = job_id
        self.kind = kind
        self.status = status
        self.attempts = attempts
        self.duration = duration
        self.result = result
        self.error = error
        self.degraded = degraded
        self.cached = cached

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable result."""
        return self.status in ("succeeded", "degraded")

    def to_dict(self) -> Dict:
        """JSON-ready form (the ``repro batch`` report rows)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "attempts": self.attempts,
            "duration": self.duration,
            "result": self.result,
            "error": self.error,
            "degraded": self.degraded,
            "cached": self.cached,
        }

    def __repr__(self) -> str:
        return (
            f"JobOutcome({self.job_id!r}, {self.status!r}, "
            f"attempts={self.attempts})"
        )


class BatchReport:
    """Everything a batch run produced, in input-job order."""

    def __init__(
        self,
        outcomes: Sequence[JobOutcome],
        wall_clock: float,
        counters: Dict[str, int],
    ):
        self.outcomes = list(outcomes)
        self.wall_clock = wall_clock
        self.counters = dict(counters)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def outcome(self, job_id: str) -> JobOutcome:
        """The outcome for one job id."""
        for outcome in self.outcomes:
            if outcome.job_id == job_id:
                return outcome
        raise KeyError(job_id)

    def by_status(self) -> Dict[str, int]:
        """``{status: count}`` over the batch."""
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    @property
    def all_ok(self) -> bool:
        """Whether every job succeeded (possibly degraded)."""
        return all(outcome.ok for outcome in self.outcomes)

    def to_dict(self) -> Dict:
        """JSON-ready form of the whole report."""
        return {
            "wall_clock": self.wall_clock,
            "statuses": self.by_status(),
            "counters": self.counters,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def __repr__(self) -> str:
        return (
            f"BatchReport({self.by_status()}, "
            f"wall_clock={self.wall_clock:.3g}s)"
        )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class BatchRunner:
    """Run job batches on a process pool with retries and timeouts.

    Parameters
    ----------
    max_workers:
        Pool size; ``0`` executes jobs inline (sequential, no pool).
        ``None`` sizes the pool to the CPUs this process may run on
        (its affinity mask, not the host's CPU count).
    store_dir:
        Directory of the shared persistent result store (optional).
    telemetry:
        A :class:`~repro.service.telemetry.Telemetry`; a fresh
        in-memory one is created when omitted.
    job_timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited).
    max_retries:
        Extra attempts after the first (job terminates
        ``failed-after-retries`` once exhausted).
    backoff_base / backoff_max / backoff_jitter:
        Retry delay ``min(max, base·2^attempt)·(1 + jitter·u)`` with a
        deterministic per-(job, attempt) uniform draw ``u``.
    seed:
        Seeds the backoff jitter (fault plans carry their own seed).
    faults:
        Optional :class:`~repro.service.faults.FaultPlan` shipped to
        every worker (tests only).
    statistical_fallback:
        Whether timed-out check jobs may degrade to statistical
        checking.
    watchdog_grace:
        Extra seconds past ``job_timeout`` before the dispatcher
        declares a worker hung and rebuilds the pool.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        store_dir: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        backoff_jitter: float = 0.5,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        statistical_fallback: bool = True,
        watchdog_grace: float = 10.0,
        cache_max_entries: int = 4096,
    ):
        if max_workers is None:
            max_workers = usable_cpus()
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.max_workers = max_workers
        self.store_dir = str(store_dir) if store_dir is not None else None
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.job_timeout = job_timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.backoff_jitter = float(backoff_jitter)
        self.seed = int(seed)
        self.faults = faults
        self.statistical_fallback = bool(statistical_fallback)
        self.watchdog_grace = float(watchdog_grace)
        self.cache_max_entries = int(cache_max_entries)
        self._cancel = threading.Event()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation (safe from any thread)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._cancel.is_set()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _task(self, job: JobSpec, attempt: int, inline: bool) -> Dict:
        return {
            "job": job.to_dict(),
            "attempt": attempt,
            "store_dir": self.store_dir,
            "timeout": self.job_timeout,
            "faults": self.faults.to_dict() if self.faults else None,
            "fallback": self.statistical_fallback,
            "inline": inline,
            "cache_max_entries": self.cache_max_entries,
        }

    def _backoff_delay(self, job_id: str, attempt: int) -> float:
        text = f"backoff:{self.seed}:{job_id}:{attempt}"
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        uniform = int.from_bytes(digest[:8], "big") / float(1 << 64)
        delay = min(self.backoff_max, self.backoff_base * (2.0 ** attempt))
        return delay * (1.0 + self.backoff_jitter * uniform)

    def _emit_attempt(self, payload: Dict) -> None:
        """Forward a worker attempt's cache/solver accounting."""
        self.telemetry.emit(
            "job_attempt",
            job_id=payload.get("job_id"),
            attempt=payload.get("attempt"),
            ok=payload.get("ok"),
            cached=payload.get("cached", False),
            duration=payload.get("duration"),
            cache_hits=payload.get("cache_hits", 0),
            cache_misses=payload.get("cache_misses", 0),
            cache_evictions=payload.get("cache_evictions", 0),
            backing_hits=payload.get("backing_hits", 0),
            parametric_eliminations=payload.get("parametric_eliminations", 0),
            elimination_states=payload.get("elimination_states", 0),
            elimination_fill_in=payload.get("elimination_fill_in", 0),
            elimination_reuse_hits=payload.get("elimination_reuse_hits", 0),
            elimination_ms=payload.get("elimination_ms", 0),
            solver_iterations=payload.get("solver_iterations", 0),
            solver_function_evaluations=payload.get(
                "solver_function_evaluations", 0
            ),
            kernel_compilations=payload.get("kernel_compilations", 0),
            kernel_evaluations=payload.get("kernel_evaluations", 0),
            kernel_dispatches=payload.get("kernel_dispatches", 0),
            robust_vi_iterations=payload.get("robust_vi_iterations", 0),
            robust_fallbacks=payload.get("robust_fallbacks", 0),
            cegis_iterations=payload.get("cegis_iterations", 0),
            cegis_constraints_added=payload.get("cegis_constraints_added", 0),
            cegis_counterexample_states=payload.get(
                "cegis_counterexample_states", 0
            ),
        )

    def _finish(
        self,
        outcomes: Dict[str, JobOutcome],
        job: JobSpec,
        payload: Dict,
        attempt: int,
    ) -> None:
        """Record a successful (possibly degraded) attempt as terminal."""
        status = payload.get("status", "succeeded")
        outcomes[job.job_id] = JobOutcome(
            job_id=job.job_id,
            kind=job.kind,
            status=status,
            attempts=attempt + 1,
            duration=float(payload.get("duration", 0.0)),
            result=payload.get("result"),
            degraded=bool(payload.get("degraded", False)),
            cached=bool(payload.get("cached", False)),
        )
        if payload.get("fallback"):
            self.telemetry.emit("job_fallback", job_id=job.job_id)
        self.telemetry.emit(
            "job_end",
            job_id=job.job_id,
            status=status,
            attempts=attempt + 1,
            duration=payload.get("duration"),
            degraded=bool(payload.get("degraded", False)),
            cached=bool(payload.get("cached", False)),
        )

    def _fail_or_retry(
        self,
        job: JobSpec,
        attempt: int,
        reason: str,
        error: str,
        outcomes: Dict[str, JobOutcome],
        waiting: List[Tuple[float, JobSpec, int]],
        duration: float = 0.0,
    ) -> None:
        """Schedule a retry, or mark the job failed-after-retries.

        ``reason == "invalid"`` fails immediately: a malformed payload
        is deterministic, so retrying would burn the whole budget to
        reach the same validation error.
        """
        if reason == "timeout":
            self.telemetry.emit("job_timeout", job_id=job.job_id, attempt=attempt)
        if reason == "invalid":
            self.telemetry.emit(
                "job_invalid", job_id=job.job_id, error=error
            )
        retryable = reason != "invalid"
        if retryable and attempt < self.max_retries and not self.cancelled:
            delay = self._backoff_delay(job.job_id, attempt)
            self.telemetry.emit(
                "job_retry",
                job_id=job.job_id,
                attempt=attempt + 1,
                delay=delay,
                reason=reason,
            )
            waiting.append((time.monotonic() + delay, job, attempt + 1))
            return
        outcomes[job.job_id] = JobOutcome(
            job_id=job.job_id,
            kind=job.kind,
            status="failed-after-retries",
            attempts=attempt + 1,
            duration=duration,
            error=error,
        )
        self.telemetry.emit(
            "job_end",
            job_id=job.job_id,
            status="failed-after-retries",
            attempts=attempt + 1,
            error=error,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[JobSpec]) -> BatchReport:
        """Run the batch to completion; never raises for job failures."""
        jobs = list(jobs)
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job_id values in batch")
        started = time.monotonic()
        self.telemetry.emit(
            "batch_start",
            jobs=len(jobs),
            workers=self.max_workers,
            store=self.store_dir,
        )
        if self.max_workers == 0:
            outcomes = self._run_inline(jobs)
        else:
            outcomes = self._run_pool(jobs)
        wall_clock = time.monotonic() - started
        ordered = [
            outcomes.get(
                job.job_id,
                JobOutcome(job.job_id, job.kind, "cancelled", 0, 0.0),
            )
            for job in jobs
        ]
        report = BatchReport(ordered, wall_clock, self.telemetry.counters())
        self.telemetry.emit(
            "batch_end", wall_clock=wall_clock, statuses=report.by_status()
        )
        report.counters = self.telemetry.counters()
        return report

    def run_one(self, job: JobSpec) -> JobOutcome:
        """Run a single job inline through the full retry machinery.

        The execution path of the async job queue's worker threads: no
        batch bookkeeping (``batch_start``/``batch_end`` events are a
        batch concept), but the same attempt telemetry, bounded
        retries with backoff, store-level dedup and statistical
        fallback as a one-job batch.  Never raises for job failures —
        the returned :class:`JobOutcome` always has a terminal status.
        """
        outcomes = self._run_inline([job])
        return outcomes.get(
            job.job_id, JobOutcome(job.job_id, job.kind, "cancelled", 0, 0.0)
        )

    # -- inline ---------------------------------------------------------
    def _run_inline(self, jobs: Sequence[JobSpec]) -> Dict[str, JobOutcome]:
        outcomes: Dict[str, JobOutcome] = {}
        queue = deque((job, 0) for job in jobs)
        waiting: List[Tuple[float, JobSpec, int]] = []
        while queue or waiting:
            if self.cancelled:
                break
            if not queue:
                ready_at = min(entry[0] for entry in waiting)
                time.sleep(max(0.0, ready_at - time.monotonic()))
            now = time.monotonic()
            still_waiting = []
            for ready_at, job, attempt in waiting:
                if ready_at <= now:
                    queue.append((job, attempt))
                else:
                    still_waiting.append((ready_at, job, attempt))
            waiting = still_waiting
            if not queue:
                continue
            job, attempt = queue.popleft()
            self.telemetry.emit("job_start", job_id=job.job_id, attempt=attempt)
            payload = _run_job_in_worker(self._task(job, attempt, inline=True))
            self._emit_attempt(payload)
            if payload.get("ok"):
                self._finish(outcomes, job, payload, attempt)
            else:
                self._fail_or_retry(
                    job,
                    attempt,
                    payload.get("failure", "error"),
                    payload.get("error", ""),
                    outcomes,
                    waiting,
                    duration=float(payload.get("duration", 0.0)),
                )
        return outcomes

    # -- pool -----------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on hung or dead workers."""
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — already-dead workers
                pass

    def _run_pool(self, jobs: Sequence[JobSpec]) -> Dict[str, JobOutcome]:
        outcomes: Dict[str, JobOutcome] = {}
        queue = deque((job, 0) for job in jobs)
        waiting: List[Tuple[float, JobSpec, int]] = []
        in_flight: Dict[object, Tuple[JobSpec, int, float]] = {}
        pool = self._new_pool()
        try:
            while queue or waiting or in_flight:
                if self.cancelled:
                    break
                now = time.monotonic()
                # Promote backed-off jobs whose delay has elapsed.
                still_waiting = []
                for ready_at, job, attempt in waiting:
                    if ready_at <= now:
                        queue.append((job, attempt))
                    else:
                        still_waiting.append((ready_at, job, attempt))
                waiting = still_waiting
                # Keep the pool saturated (small overcommit so a worker
                # never idles waiting on the dispatcher).
                while queue and len(in_flight) < 2 * self.max_workers:
                    job, attempt = queue.popleft()
                    self.telemetry.emit(
                        "job_start", job_id=job.job_id, attempt=attempt
                    )
                    future = pool.submit(
                        _run_job_in_worker, self._task(job, attempt, inline=False)
                    )
                    in_flight[future] = (job, attempt, time.monotonic())
                if not in_flight:
                    time.sleep(0.01)
                    continue
                done, _ = wait(
                    set(in_flight), timeout=0.05, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for future in done:
                    job, attempt, _submitted = in_flight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        self.telemetry.emit(
                            "worker_crash", job_id=job.job_id, attempt=attempt
                        )
                        self._fail_or_retry(
                            job, attempt, "crash", "worker process died",
                            outcomes, waiting,
                        )
                        continue
                    except Exception as exc:  # noqa: BLE001 — defensive
                        self._fail_or_retry(
                            job, attempt, "error",
                            f"{type(exc).__name__}: {exc}", outcomes, waiting,
                        )
                        continue
                    self._emit_attempt(payload)
                    if payload.get("ok"):
                        self._finish(outcomes, job, payload, attempt)
                    else:
                        self._fail_or_retry(
                            job,
                            attempt,
                            payload.get("failure", "error"),
                            payload.get("error", ""),
                            outcomes,
                            waiting,
                            duration=float(payload.get("duration", 0.0)),
                        )
                if pool_broken:
                    # Every other in-flight future is doomed with the
                    # pool; charge each one attempt and start fresh.
                    for future, (job, attempt, _submitted) in list(
                        in_flight.items()
                    ):
                        self._fail_or_retry(
                            job, attempt, "crash",
                            "worker pool broke while job was in flight",
                            outcomes, waiting,
                        )
                    in_flight.clear()
                    self._kill_pool(pool)
                    pool = self._new_pool()
                    continue
                # Watchdog: a worker hung past alarm + grace cannot be
                # reclaimed individually — rebuild the pool.
                if self.job_timeout is not None:
                    deadline = self.job_timeout + self.watchdog_grace
                    hung = [
                        (future, entry)
                        for future, entry in in_flight.items()
                        if time.monotonic() - entry[2] > deadline
                        and not future.done()
                    ]
                    if hung:
                        for future, (job, attempt, _submitted) in list(
                            in_flight.items()
                        ):
                            reason = (
                                "timeout"
                                if any(future is h for h, _ in hung)
                                else "crash"
                            )
                            self._fail_or_retry(
                                job, attempt, reason,
                                "worker hung past the watchdog deadline"
                                if reason == "timeout"
                                else "pool rebuilt around a hung worker",
                                outcomes, waiting,
                            )
                        in_flight.clear()
                        self.telemetry.emit(
                            "worker_hung", count=len(hung)
                        )
                        self._kill_pool(pool)
                        pool = self._new_pool()
            if self.cancelled:
                for job, attempt in queue:
                    self._mark_cancelled(outcomes, job, attempt)
                for _ready_at, job, attempt in waiting:
                    self._mark_cancelled(outcomes, job, attempt)
                for future, (job, attempt, _submitted) in in_flight.items():
                    self._mark_cancelled(outcomes, job, attempt)
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=True)
        except BaseException:
            self._kill_pool(pool)
            raise
        return outcomes

    def _mark_cancelled(
        self, outcomes: Dict[str, JobOutcome], job: JobSpec, attempt: int
    ) -> None:
        if job.job_id in outcomes:
            return
        outcomes[job.job_id] = JobOutcome(
            job_id=job.job_id,
            kind=job.kind,
            status="cancelled",
            attempts=attempt,
            duration=0.0,
        )
        self.telemetry.emit("job_end", job_id=job.job_id, status="cancelled")


def run_batch(
    jobs: Sequence[JobSpec],
    **runner_kwargs,
) -> BatchReport:
    """One-call convenience: ``BatchRunner(**kwargs).run(jobs)``."""
    return BatchRunner(**runner_kwargs).run(jobs)
