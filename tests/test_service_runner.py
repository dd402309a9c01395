"""Fault-injection robustness suite for the batch runner.

Every test asserts the runtime's core guarantee: under crashes, hangs,
transient errors and timeouts, **every job terminates with a definite
status** and the batch never deadlocks (enforced by pytest-level
timeouts on the slowest cases via small fault/backoff settings).
"""

import threading
import time

import pytest

from repro.mdp import chain_dtmc
from repro.service import (
    BatchRunner,
    CheckJob,
    FaultPlan,
    ModelRepairJob,
    Telemetry,
    run_batch,
)
from repro.service.runner import TERMINAL_STATUSES

pytestmark = pytest.mark.service


@pytest.fixture
def sluggish_chain():
    return chain_dtmc(5, forward_probability=0.5)


def check_jobs(chain, count, prefix="job"):
    return [
        CheckJob.for_model(
            f"{prefix}-{i}", chain, 'P>=0.2 [ F "goal" ]', smc_samples=300
        )
        for i in range(count)
    ]


def fast_runner(**kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_max", 0.05)
    return BatchRunner(**kwargs)


class TestHappyPath:
    def test_inline_batch(self, sluggish_chain):
        report = fast_runner(max_workers=0).run(check_jobs(sluggish_chain, 3))
        assert report.by_status() == {"succeeded": 3}
        assert report.all_ok
        assert all(outcome.attempts == 1 for outcome in report)

    def test_pool_batch(self, sluggish_chain):
        report = fast_runner(max_workers=2).run(check_jobs(sluggish_chain, 4))
        assert report.by_status() == {"succeeded": 4}
        assert len(report) == 4

    def test_duplicate_ids_rejected(self, sluggish_chain):
        jobs = check_jobs(sluggish_chain, 1) + check_jobs(sluggish_chain, 1)
        with pytest.raises(ValueError, match="duplicate"):
            fast_runner(max_workers=0).run(jobs)

    def test_outcomes_keep_input_order(self, sluggish_chain):
        jobs = check_jobs(sluggish_chain, 5)
        report = fast_runner(max_workers=2).run(jobs)
        assert [o.job_id for o in report] == [j.job_id for j in jobs]

    def test_run_batch_convenience(self, sluggish_chain):
        report = run_batch(check_jobs(sluggish_chain, 2), max_workers=0)
        assert report.all_ok


class TestPoolSizing:
    def test_default_pool_follows_affinity_mask(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert BatchRunner().max_workers == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert BatchRunner().max_workers == 2
        assert BatchRunner(max_workers=0).max_workers == 0

    def test_without_affinity_api_falls_back_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert BatchRunner().max_workers == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert BatchRunner().max_workers == 1

    def test_shares_the_solver_helper(self):
        import repro.cpus as cpus
        import repro.service.runner as runner

        assert runner.usable_cpus is cpus.usable_cpus


class TestInvalidPayloads:
    """Malformed job payloads must terminate as structured records —
    never rip through a worker, never burn the retry budget."""

    class RottenJob(CheckJob):
        """A spec whose serialised form no longer validates."""

        def to_dict(self):
            payload = super().to_dict()
            payload["smc_samples"] = float("nan")
            return payload

    def rotten(self, chain):
        # for_model is a staticmethod returning a plain CheckJob; swap
        # in the corrupting subclass to poison the serialised form.
        job = CheckJob.for_model("rotten", chain, 'P>=0.2 [ F "goal" ]')
        job.__class__ = self.RottenJob
        return job

    def test_inline_invalid_fails_without_retries(self, sluggish_chain):
        telemetry = Telemetry()
        report = fast_runner(
            max_workers=0, telemetry=telemetry, max_retries=3
        ).run([self.rotten(sluggish_chain)])
        outcome = report.outcomes[0]
        assert outcome.status == "failed-after-retries"
        assert outcome.attempts == 1  # deterministic failure: no retries
        assert "non-finite" in outcome.error
        assert telemetry.counters()["job_invalid"] == 1
        assert "job_retry" not in telemetry.counters()

    def test_pool_invalid_fails_without_retries(self, sluggish_chain):
        report = fast_runner(max_workers=2, max_retries=3).run(
            [self.rotten(sluggish_chain)] + check_jobs(sluggish_chain, 2)
        )
        rotten = report.outcome("rotten")
        assert rotten.status == "failed-after-retries"
        assert rotten.attempts == 1
        # The malformed job must not poison its batch-mates.
        assert report.by_status()["succeeded"] == 2


class TestRobustCounters:
    def coin(self):
        from repro.mdp import DTMC

        return DTMC(
            states=["s0", "good", "bad"],
            transitions={
                "s0": {"good": 0.5, "bad": 0.5},
                "good": {"good": 1.0},
                "bad": {"bad": 1.0},
            },
            initial_state="s0",
            labels={"good": {"good"}},
        )

    def test_vi_effort_and_fallbacks_reach_telemetry(self):
        from repro.service import RobustRepairJob

        telemetry = Telemetry()
        jobs = [
            RobustRepairJob.for_model(
                "ok", self.coin(), 'P<=0.3 [ F "good" ]', epsilon=0.01
            ),
            RobustRepairJob.for_model(
                "capped", self.coin(), 'P<=0.6 [ F "good" ]', epsilon=0.01,
                vi_max_iterations=1,
            ),
        ]
        report = fast_runner(max_workers=0, telemetry=telemetry).run(jobs)
        assert report.all_ok
        counters = telemetry.counters()
        assert counters["robust_vi_iterations"] > 0
        assert counters["robust_fallbacks"] == 1
        assert report.counters["robust_fallbacks"] == 1


class TestTransientErrors:
    def test_retry_then_success(self, sluggish_chain):
        telemetry = Telemetry()
        plan = FaultPlan(error_probability=1.0, attempts_affected=1)
        report = fast_runner(
            max_workers=0, faults=plan, telemetry=telemetry
        ).run(check_jobs(sluggish_chain, 2))
        assert report.by_status() == {"succeeded": 2}
        assert all(outcome.attempts == 2 for outcome in report)
        assert telemetry.counters()["job_retry"] == 2

    def test_retry_exhaustion(self, sluggish_chain):
        plan = FaultPlan(error_probability=1.0)  # every attempt fails
        report = fast_runner(
            max_workers=0, faults=plan, max_retries=2
        ).run(check_jobs(sluggish_chain, 1))
        outcome = report.outcomes[0]
        assert outcome.status == "failed-after-retries"
        assert outcome.attempts == 3  # initial + max_retries
        assert "injected error" in outcome.error

    def test_inline_crash_downgraded(self, sluggish_chain):
        """Inline mode must survive crash decisions (no pool to break)."""
        plan = FaultPlan(crash_probability=1.0, attempts_affected=1)
        report = fast_runner(max_workers=0, faults=plan).run(
            check_jobs(sluggish_chain, 1)
        )
        assert report.outcomes[0].status == "succeeded"
        assert report.outcomes[0].attempts == 2


class TestWorkerCrashes:
    def test_pool_rebuilt_after_crash(self, sluggish_chain):
        telemetry = Telemetry()
        plan = FaultPlan(crash_probability=1.0, attempts_affected=1)
        report = fast_runner(
            max_workers=2, faults=plan, telemetry=telemetry
        ).run(check_jobs(sluggish_chain, 3))
        assert report.by_status() == {"succeeded": 3}
        assert telemetry.counters()["worker_crash"] >= 1

    def test_crash_exhaustion_fails_definitely(self, sluggish_chain):
        plan = FaultPlan(crash_probability=1.0)
        report = fast_runner(
            max_workers=1, faults=plan, max_retries=1
        ).run(check_jobs(sluggish_chain, 1))
        assert report.outcomes[0].status == "failed-after-retries"


class TestTimeoutsAndFallback:
    def test_hang_degrades_to_statistical(self, sluggish_chain):
        telemetry = Telemetry()
        plan = FaultPlan(hang_probability=1.0, hang_seconds=3.0)
        report = fast_runner(
            max_workers=1,
            faults=plan,
            job_timeout=0.5,
            telemetry=telemetry,
        ).run(check_jobs(sluggish_chain, 1))
        outcome = report.outcomes[0]
        assert outcome.status == "degraded"
        assert outcome.degraded
        assert outcome.result["method"] == "statistical"
        assert outcome.result["holds"] is True
        assert telemetry.counters()["job_fallback"] == 1

    def test_timeout_without_fallback_retries(self, sluggish_chain):
        plan = FaultPlan(hang_probability=1.0, hang_seconds=3.0)
        report = fast_runner(
            max_workers=1,
            faults=plan,
            job_timeout=0.3,
            max_retries=1,
            statistical_fallback=False,
        ).run(check_jobs(sluggish_chain, 1))
        outcome = report.outcomes[0]
        assert outcome.status == "failed-after-retries"
        assert outcome.attempts == 2

    def test_repair_job_timeout_has_no_fallback(self, sluggish_chain):
        plan = FaultPlan(hang_probability=1.0, hang_seconds=3.0)
        job = ModelRepairJob.for_model(
            "rep", sluggish_chain, 'R<=6 [ F "goal" ]'
        )
        report = fast_runner(
            max_workers=1, faults=plan, job_timeout=0.3, max_retries=0
        ).run([job])
        assert report.outcomes[0].status == "failed-after-retries"


class TestMixedFaults:
    def test_thirty_percent_faults_all_definite(self, sluggish_chain):
        """The acceptance scenario: seeded ~30% crash/hang/error faults.

        Every job must reach a definite terminal status without
        deadlock or lost results.
        """
        telemetry = Telemetry()
        plan = FaultPlan(
            crash_probability=0.1,
            hang_probability=0.1,
            error_probability=0.1,
            seed=7,
            hang_seconds=2.0,
        )
        jobs = check_jobs(sluggish_chain, 8, prefix="mixed")
        report = fast_runner(
            max_workers=2,
            faults=plan,
            job_timeout=0.5,
            max_retries=3,
            telemetry=telemetry,
        ).run(jobs)
        assert len(report) == len(jobs)
        for outcome in report:
            assert outcome.status in TERMINAL_STATUSES
            if outcome.ok:
                assert outcome.result is not None
        assert telemetry.counters()["job_end"] == len(jobs)


class TestCancellation:
    def test_cancel_before_run(self, sluggish_chain):
        runner = fast_runner(max_workers=0)
        runner.cancel()
        report = runner.run(check_jobs(sluggish_chain, 3))
        assert report.by_status() == {"cancelled": 3}

    def test_cancel_mid_batch(self, sluggish_chain):
        plan = FaultPlan(hang_probability=1.0, hang_seconds=0.2)
        runner = fast_runner(max_workers=1, faults=plan, max_retries=0)
        jobs = check_jobs(sluggish_chain, 6, prefix="cancel")
        timer = threading.Timer(0.3, runner.cancel)
        timer.start()
        try:
            start = time.monotonic()
            report = runner.run(jobs)
            elapsed = time.monotonic() - start
        finally:
            timer.cancel()
        assert elapsed < 5.0
        statuses = report.by_status()
        assert statuses.get("cancelled", 0) >= 1
        assert sum(statuses.values()) == len(jobs)


class TestStoreIntegration:
    def test_warm_rerun_skips_work(self, tmp_path, sluggish_chain):
        job = ModelRepairJob.for_model(
            "rep", sluggish_chain, 'R<=6 [ F "goal" ]'
        )
        cold_tel = Telemetry()
        cold = fast_runner(
            max_workers=1, store_dir=tmp_path, telemetry=cold_tel
        ).run([job])
        assert cold.outcomes[0].status == "succeeded"
        assert not cold.outcomes[0].cached
        assert cold_tel.counters()["parametric_eliminations"] >= 1

        warm_tel = Telemetry()
        warm = fast_runner(
            max_workers=1, store_dir=tmp_path, telemetry=warm_tel
        ).run([job])
        assert warm.outcomes[0].status == "succeeded"
        assert warm.outcomes[0].cached
        assert warm_tel.counters().get("parametric_eliminations", 0) == 0

    def test_identical_content_dedups_within_batch(
        self, tmp_path, sluggish_chain
    ):
        jobs = [
            ModelRepairJob.for_model(f"rep-{i}", sluggish_chain, 'R<=6 [ F "goal" ]')
            for i in range(3)  # same content, distinct ids
        ]
        report = fast_runner(max_workers=1, store_dir=tmp_path).run(jobs)
        assert report.by_status() == {"succeeded": 3}
        assert sum(1 for outcome in report if outcome.cached) >= 2
