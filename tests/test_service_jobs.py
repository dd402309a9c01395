"""Job specs: JSON round-trip, fingerprints, and execution."""

import json
import pickle

import pytest

from repro.casestudies import car
from repro.data import TraceDataset, TraceGroup
from repro.mdp import Trajectory, chain_dtmc
from repro.service import (
    CegisRepairJob,
    CheckJob,
    DataRepairJob,
    JobValidationError,
    ModelRepairJob,
    RateRepairJob,
    RewardRepairJob,
    RobustRepairJob,
    execute,
    job_from_dict,
    load_jobs,
    save_jobs,
)
from repro.service.jobs import JOB_KINDS, load_jobs_payload


@pytest.fixture
def sluggish_chain():
    return chain_dtmc(5, forward_probability=0.5)


def observations(source, target, count):
    return [Trajectory.from_states([source, target]) for _ in range(count)]


@pytest.fixture
def noisy_dataset():
    """40% forward successes, 60% failures (the paper's proportions)."""
    return TraceDataset(
        [
            TraceGroup("success", observations("a", "b", 40), droppable=False),
            TraceGroup("failure", observations("a", "a", 60)),
        ]
    )


def data_repair_job(dataset, job_id="d1", bound=2):
    return DataRepairJob.for_dataset(
        job_id,
        dataset,
        f'R<={bound} [ F "goal" ]',
        initial_state="a",
        states=["a", "b"],
        labels={"b": ["goal"]},
        state_rewards={"a": 1.0},
    )


class TestRoundTrip:
    def test_check_job(self, sluggish_chain):
        job = CheckJob.for_model(
            "c1", sluggish_chain, 'P>=0.2 [ F "goal" ]', engine="dense"
        )
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert isinstance(clone, CheckJob)
        assert clone.to_dict() == job.to_dict()
        assert clone.engine == "dense"

    def test_model_repair_job(self, sluggish_chain):
        job = ModelRepairJob.for_model(
            "m1", sluggish_chain, 'R<=6 [ F "goal" ]', max_perturbation=0.3,
            seed=7,
        )
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert isinstance(clone, ModelRepairJob)
        assert clone.to_dict() == job.to_dict()
        assert clone.max_perturbation == 0.3
        assert clone.seed == 7

    def test_data_repair_job(self, noisy_dataset):
        job = data_repair_job(noisy_dataset)
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert isinstance(clone, DataRepairJob)
        assert clone.to_dict() == job.to_dict()

    def test_reward_repair_job(self):
        mdp = car.build_car_mdp()
        job = RewardRepairJob.for_mdp(
            "r1",
            mdp,
            car.car_features().table,
            car.PAPER_LEARNED_THETA,
            [{"state": "S1", "preferred": car.LEFT,
              "dispreferred": car.FORWARD}],
            discount=car.DISCOUNT,
        )
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert isinstance(clone, RewardRepairJob)
        assert clone.to_dict() == job.to_dict()

    def test_robust_repair_job(self, sluggish_chain):
        job = RobustRepairJob.for_model(
            "rb1", sluggish_chain, 'R<=6 [ F "goal" ]', epsilon=0.02,
            vi_max_iterations=1000,
        )
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert isinstance(clone, RobustRepairJob)
        assert clone.to_dict() == job.to_dict()
        assert clone.epsilon == 0.02
        assert clone.vi_max_iterations == 1000

    def test_label_sets_serialise_sorted(self, noisy_dataset):
        job = DataRepairJob.for_dataset(
            "d", noisy_dataset, 'R<=2 [ F "goal" ]', "a",
            labels={"b": {"z", "goal", "m"}}, state_rewards={},
        )
        assert job.labels == {"b": ["goal", "m", "z"]}
        assert job.state_rewards is None

    def test_constructor_checks_its_fields(self, sluggish_chain):
        with pytest.raises(TypeError, match="bogus"):
            CheckJob.for_model("c", sluggish_chain, "f", bogus=1)
        with pytest.raises(TypeError, match="formula"):
            CheckJob.for_model("c", sluggish_chain, "f", formula="g")
        with pytest.raises(TypeError, match="missing field 'formula'"):
            CheckJob.for_model("c", sluggish_chain)
        with pytest.raises(TypeError, match="at most"):
            RateRepairJob("r", {}, ["t"], 1.0, None, 2.0, 6, 0, "extra")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            job_from_dict({"kind": "nope", "job_id": "x"})

    def test_empty_job_id_rejected(self, sluggish_chain):
        with pytest.raises(ValueError, match="job_id"):
            CheckJob.for_model("", sluggish_chain, 'P>=0.2 [ F "goal" ]')


class TestValidation:
    """Malformed payloads surface as JobValidationError, not as raw
    KeyError/TypeError from deep inside a spec constructor."""

    def test_unknown_kind(self):
        with pytest.raises(JobValidationError, match="unknown job kind"):
            job_from_dict({"kind": "petri-net-repair", "job_id": "x"})

    def test_missing_job_id(self):
        with pytest.raises(JobValidationError, match="missing its job_id"):
            job_from_dict({"kind": "check"})

    def test_non_mapping_entry(self):
        with pytest.raises(JobValidationError, match="must be an object"):
            job_from_dict("not a job")

    def test_missing_required_field_is_wrapped(self):
        with pytest.raises(JobValidationError, match="bad check job 'c'"):
            job_from_dict({"kind": "check", "job_id": "c"})

    def test_non_finite_numbers_rejected(self, sluggish_chain):
        job = RobustRepairJob.for_model(
            "rb", sluggish_chain, 'R<=6 [ F "goal" ]'
        )
        payload = job.to_dict()
        payload["epsilon"] = float("nan")
        with pytest.raises(JobValidationError, match="non-finite"):
            job_from_dict(payload)
        # json.loads happily decodes the non-standard Infinity token.
        decoded = json.loads(
            json.dumps(job.to_dict()).replace('"seed": 0', '"seed": Infinity')
        )
        with pytest.raises(JobValidationError, match="non-finite"):
            job_from_dict(decoded)

    def test_validation_error_is_a_value_error(self):
        # The HTTP façade's 400 path catches ValueError; keep that true.
        assert issubclass(JobValidationError, ValueError)


class TestRegistry:
    """Every registered job kind must round-trip through its own
    ``to_dict`` / ``job_from_dict`` — new kinds cannot ship without a
    working serialisation."""

    def example_jobs(self):
        from repro.ctmc import CTMC

        chain = chain_dtmc(5, forward_probability=0.5)
        ctmc = CTMC(
            states=["s0", "done"],
            rates={"s0": {"done": 1.0}},
            initial_state="s0",
            labels={"done": {"done"}},
        )
        mdp = car.build_car_mdp()
        return {
            "check": CheckJob.for_model(
                "c", chain, 'P>=0.2 [ F "goal" ]'
            ),
            "model-repair": ModelRepairJob.for_model(
                "m", chain, 'R<=6 [ F "goal" ]'
            ),
            "data-repair": data_repair_job(
                TraceDataset([TraceGroup("g", observations("a", "b", 3))])
            ),
            "reward-repair": RewardRepairJob.for_mdp(
                "r", mdp, car.car_features().table, car.PAPER_LEARNED_THETA,
                [{"state": "S1", "preferred": car.LEFT,
                  "dispreferred": car.FORWARD}],
            ),
            "rate-repair": RateRepairJob.for_model(
                "rt", ctmc, ["done"], 2.0
            ),
            "robust-repair": RobustRepairJob.for_model(
                "rb", chain, 'R<=6 [ F "goal" ]'
            ),
            "cegis-repair": CegisRepairJob.for_model(
                "cg", chain, 'R<=6 [ F "goal" ]'
            ),
        }

    def test_examples_cover_every_kind(self):
        assert set(self.example_jobs()) == set(JOB_KINDS)

    def test_every_kind_round_trips(self):
        for kind, job in self.example_jobs().items():
            payload = json.loads(json.dumps(job.to_dict()))
            assert payload["kind"] == kind
            clone = job_from_dict(payload)
            assert type(clone) is type(job)
            assert clone.to_dict() == job.to_dict()
            assert clone.fingerprint() == job.fingerprint()

    #: ``fingerprint()`` of each example job.  Result stores key whole-job
    #: results by it, so a change silently orphans every stored result;
    #: it hashes canonical JSON, so it does not depend on PYTHONHASHSEED.
    PINNED_FINGERPRINTS = {
        "cegis-repair": "005ee1ae7305068f80a1fc8369965bd57a697ce10759a9029dfec3e80876c035",
        "check": "d4b144634d5e311c21960bbf8d2ccf87e31660ac32ffd0e761989935b0612993",
        "data-repair": "a258bab014f81d661d23fe0a4f0e1bcab234f91fa44588b1ad4f645e256a9605",
        "model-repair": "7dea1847ca55466eddade800476fb1be1eec49161c41ff5ededf34d18dd7e4f5",
        "rate-repair": "6eee7a24e7313001f73effcdc7bd9b3536fde2a8963a7e2d736f1c974a1fca91",
        "reward-repair": "5058270d4cd932604ed21f38b07a6de4255a1818d6d94f47fd854a399aa9528c",
        "robust-repair": "7c0d710080dcab5759f398644be791d32850277203b50fa9608f67e94016256c",
    }

    def test_fingerprints_are_pinned(self):
        fingerprints = {
            kind: job.fingerprint() for kind, job in self.example_jobs().items()
        }
        assert fingerprints == self.PINNED_FINGERPRINTS

    def test_every_kind_pickles(self):
        # The process pool ships specs to its workers by pickle.
        for job in self.example_jobs().values():
            clone = pickle.loads(pickle.dumps(job))
            assert type(clone) is type(job)
            assert vars(clone) == vars(job)
            assert clone.fingerprint() == job.fingerprint()


class TestFingerprint:
    def test_independent_of_job_id(self, sluggish_chain):
        a = CheckJob.for_model("a", sluggish_chain, 'P>=0.2 [ F "goal" ]')
        b = CheckJob.for_model("b", sluggish_chain, 'P>=0.2 [ F "goal" ]')
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_content(self, sluggish_chain):
        a = CheckJob.for_model("a", sluggish_chain, 'P>=0.2 [ F "goal" ]')
        b = CheckJob.for_model("a", sluggish_chain, 'P>=0.9 [ F "goal" ]')
        c = CheckJob.for_model(
            "a", chain_dtmc(5, forward_probability=0.6), 'P>=0.2 [ F "goal" ]'
        )
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_survives_json_round_trip(self, sluggish_chain):
        job = ModelRepairJob.for_model("m", sluggish_chain, 'R<=6 [ F "goal" ]')
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.fingerprint() == job.fingerprint()


class TestExecution:
    def test_check_job_runs(self, sluggish_chain):
        job = CheckJob.for_model("c", sluggish_chain, 'P>=0.2 [ F "goal" ]')
        result = execute(job)
        assert result["holds"] is True
        assert result["method"] == "exact"
        assert result["value"] == pytest.approx(1.0)

    def test_check_job_statistical(self, sluggish_chain):
        job = CheckJob.for_model(
            "c", sluggish_chain, 'P>=0.2 [ F "goal" ]', smc_samples=500
        )
        result = job.run_statistical(seed=1)
        assert result["method"] == "statistical"
        assert result["holds"] is True
        assert result["samples"] > 0

    def test_statistical_rejects_mdp(self, two_action_mdp):
        job = CheckJob.for_model(
            "c", two_action_mdp, 'P>=0.1 [ F "goal" ]'
        )
        with pytest.raises(TypeError, match="DTMC"):
            job.run_statistical()

    def test_model_repair_job_repairs(self, sluggish_chain):
        job = ModelRepairJob.for_model("m", sluggish_chain, 'R<=6 [ F "goal" ]')
        result = execute(job)
        assert result["status"] == "repaired"
        assert result["verified"] is True
        assert result["solver_stats"]["iterations"] > 0
        assert "repaired_model" in result

    def test_data_repair_job_repairs(self, noisy_dataset):
        # E[attempts] = 1/0.4 = 2.5; require <= 2 -> need p(a->b) >= 0.5.
        result = execute(data_repair_job(noisy_dataset))
        assert result["status"] == "repaired"
        assert result["verified"] is True
        assert result["drop_probabilities"]["failure"] > 0

    def test_reward_repair_job_flips_policy(self):
        mdp = car.build_car_mdp()
        job = RewardRepairJob.for_mdp(
            "r",
            mdp,
            car.car_features().table,
            car.PAPER_LEARNED_THETA,
            [{"state": "S1", "preferred": car.LEFT,
              "dispreferred": car.FORWARD}],
            discount=car.DISCOUNT,
        )
        result = execute(job)
        assert result["feasible"] is True
        assert result["policy_after"]["S1"] == str(car.LEFT)

    def test_rate_repair_job_round_trips_and_runs(self):
        from repro.ctmc import CTMC

        ctmc = CTMC(
            states=["s0", "s1", "done"],
            rates={"s0": {"s1": 1.0}, "s1": {"done": 0.5}},
            initial_state="s0",
            labels={"done": {"done"}},
        )
        job = RateRepairJob.for_model(
            "rt", ctmc, ["done"], 2.0, max_speedup=4.0
        )
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.fingerprint() == job.fingerprint()
        result = execute(clone)
        assert result["flavor"] == "rate"
        assert result["status"] == "repaired"
        assert result["verified"] is True
        assert result["expected_time"] <= 2.0 + 1e-6
        assert result["solver_stats"]["iterations"] > 0


class TestRobustExecution:
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

    def test_robust_repair_job_repairs(self):
        job = RobustRepairJob.for_model(
            "rb", self.coin(), 'P<=0.3 [ F "good" ]', epsilon=0.01
        )
        result = execute(job)
        assert result["flavor"] == "robust"
        assert result["status"] == "repaired"
        assert result["robust"] is True
        assert result["verified"] is True
        assert result["certificate"]["margin"] >= 0
        assert result["vi_iterations"] > 0

    def test_vi_cap_surfaces_fallback_in_payload(self):
        job = RobustRepairJob.for_model(
            "rb", self.coin(), 'P<=0.6 [ F "good" ]', epsilon=0.01,
            vi_max_iterations=1,
        )
        result = execute(job)
        assert result["robust"] is False
        assert result["certificate"]["fallback_reason"] == "vi-iteration-cap"


class TestJobFiles:
    def test_save_and_load(self, tmp_path, sluggish_chain):
        jobs = [
            CheckJob.for_model("c1", sluggish_chain, 'P>=0.2 [ F "goal" ]'),
            ModelRepairJob.for_model("m1", sluggish_chain, 'R<=6 [ F "goal" ]'),
        ]
        path = tmp_path / "jobs.json"
        save_jobs(jobs, path)
        loaded = load_jobs(path)
        assert [job.job_id for job in loaded] == ["c1", "m1"]
        assert [job.to_dict() for job in loaded] == [job.to_dict() for job in jobs]

    def test_bare_array_accepted(self, sluggish_chain):
        job = CheckJob.for_model("c1", sluggish_chain, 'P>=0.2 [ F "goal" ]')
        loaded = load_jobs_payload([job.to_dict()])
        assert loaded[0].job_id == "c1"

    def test_duplicate_ids_rejected(self, sluggish_chain):
        job = CheckJob.for_model("dup", sluggish_chain, 'P>=0.2 [ F "goal" ]')
        with pytest.raises(JobValidationError, match="duplicate job_id"):
            load_jobs_payload([job.to_dict(), job.to_dict()])
