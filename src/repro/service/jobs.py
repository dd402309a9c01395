"""Typed batch jobs with a JSON round-trip.

A *job* is one unit of decision-procedure work — check a property, or
run one of the repair flavours (model, data, reward, rate, robust,
cegis) — described entirely by plain data, so a batch is a file::

    {"jobs": [
      {"kind": "check", "job_id": "wsn-100",
       "model": {"kind": "dtmc", "model": {...}},
       "formula": "R{\\"attempts\\"}<=100 [ F \\"delivered\\" ]"},
      {"kind": "model-repair", "job_id": "wsn-40", ...}
    ]}

Each kind is one row of :data:`JOB_TABLE`: its :mod:`repro.core.api`
entry point, then its fields.  :class:`JobSpec` reads the row to build
a spec, serialise it (:meth:`JobSpec.to_dict`), rebuild it
(:func:`job_from_dict`), run it (:meth:`JobSpec.run`) and fingerprint
its content (:meth:`JobSpec.fingerprint`) for the result store.

Models travel as :func:`repro.io.json_io.model_to_payload` payloads,
trace datasets as ``{"groups": [{"name", "droppable", "traces"}]}`` —
everything JSON, everything picklable.  Repair jobs return the canonical
``RepairResult.to_dict()`` payload (``status`` / ``feasible`` /
``assignment`` / ``solver_stats``).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Type, Union

from repro.io.json_io import model_from_payload, model_to_payload
from repro.mdp.model import DTMC


class JobValidationError(ValueError):
    """A job payload that cannot be turned into a runnable spec.

    Raised for unknown kinds, missing fields, non-finite numbers and
    duplicate ``job_id`` values.  A :class:`ValueError`, so the HTTP
    façade answers 400; the batch runner records ``failure: "invalid"``.
    """


# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------
def dataset_to_payload(dataset) -> Dict:
    """JSON payload of a :class:`~repro.data.dataset.TraceDataset`."""
    return {"groups": [
        {
            "name": group.name,
            "droppable": group.droppable,
            "traces": [[str(s) for s in trace.states()] for trace in group.traces],
        }
        for group in dataset.groups.values()
    ]}


def dataset_from_payload(payload: Mapping):
    """Inverse of :func:`dataset_to_payload`."""
    from repro.data.dataset import TraceDataset, TraceGroup
    from repro.mdp.trajectory import Trajectory

    return TraceDataset([
        TraceGroup(
            entry["name"],
            [Trajectory.from_states(states) for states in entry["traces"]],
            droppable=entry.get("droppable", True),
        )
        for entry in payload["groups"]
    ])


# ----------------------------------------------------------------------
# The job-kind table
# ----------------------------------------------------------------------
#: Default of a field that every payload must carry.
_REQUIRED = object()


def _same(value):
    return value


def _optional(convert: Callable) -> Callable:
    """``convert``, letting ``None`` through unchanged."""
    return lambda value: None if value is None else convert(value)


def _strings(values) -> List[str]:
    return [str(value) for value in values]


def _field(name: str, default=_REQUIRED, coerce=_same, decode=_same) -> Tuple:
    """``(name, default, coerce, decode)``: ``coerce`` makes the JSON-ready
    attribute, ``decode`` the argument the entry point takes."""
    return (name, default, coerce, decode)


_MODEL = _field("model", coerce=dict, decode=model_from_payload)
_FORMULA = _field("formula", coerce=str)
_ENGINE = _field("engine", "sparse")
_COST = _field("cost", "frobenius")
_CONTROLLABLE_STATES = _field("controllable_states", None, _optional(list))
_MAX_PERTURBATION = _field("max_perturbation", None)
_STARTS_6 = _field("extra_starts", 6, int)
_STARTS_8 = _field("extra_starts", 8, int)
_SEED = _field("seed", 0, int)

#: ``kind -> (repro.core.api entry point, whether it takes cache=,
#: fields in constructor order)``.  The first field is the artifact
#: (model, dataset or MDP payload) and is passed positionally; every
#: other field is passed by its name.
JOB_TABLE: Dict[str, Tuple[str, bool, Tuple[Tuple, ...]]] = {
    "check": ("check_model", True, (
        _MODEL, _FORMULA, _ENGINE, _field("smc_epsilon", 0.02, float),
        _field("smc_delta", 0.05, float), _field("smc_samples", 4000, int),
    )),
    "model-repair": ("repair_model", True, (
        _MODEL, _FORMULA, _CONTROLLABLE_STATES, _MAX_PERTURBATION, _COST,
        _ENGINE, _STARTS_8, _SEED,
    )),
    "data-repair": ("repair_data", True, (
        _field("dataset", coerce=dict, decode=dataset_from_payload),
        _FORMULA, _field("initial_state"),
        _field("states", None, _optional(list)),
        _field(
            "labels", None,
            _optional(lambda table: {s: sorted(p) for s, p in table.items()}),
            _optional(lambda table: {s: set(p) for s, p in table.items()}),
        ),
        _field("state_rewards", None, lambda table: dict(table) if table else None),
        # Deliberately below repair_data's default of 1 - 1e-6.
        _field("max_drop", 0.9, float), _field("mode", "drop"),
        _field("max_augment", 4.0, float), _ENGINE, _STARTS_8, _SEED,
    )),
    "reward-repair": ("repair_reward", False, (
        _field("mdp", coerce=dict, decode=model_from_payload),
        _field("features", coerce=lambda table: {
            s: [float(x) for x in row] for s, row in table.items()
        }),
        _field("theta", coerce=lambda theta: [float(x) for x in theta]),
        _field("constraints", coerce=lambda rows: [dict(row) for row in rows]),
        _field("discount", 0.95, float), _field("delta_bound", 2.0, float),
        _STARTS_6, _SEED,
    )),
    "rate-repair": ("repair_rates", True, (
        _MODEL, _field("targets", coerce=_strings), _field("bound", coerce=float),
        _field("controllable", None, _optional(_strings)),
        _field("max_speedup", 2.0, float), _STARTS_6, _SEED,
    )),
    "robust-repair": ("repair_robust", True, (
        _MODEL, _FORMULA, _field("epsilon", 0.01, float),
        _CONTROLLABLE_STATES, _MAX_PERTURBATION, _COST, _ENGINE,
        _field("max_outer_iterations", 5, int),
        _field("vi_max_iterations", None, _optional(int)), _STARTS_8, _SEED,
    )),
    "cegis-repair": ("repair_cegis", True, (
        _MODEL, _FORMULA, _CONTROLLABLE_STATES, _MAX_PERTURBATION, _COST,
        _ENGINE, _field("max_iterations", 10, int),
        _field("max_counterexample_paths", 10_000, int),
        _field("max_expansions", 200_000, int), _STARTS_8, _SEED,
    )),
}


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class JobSpec:
    """A batch job of one kind, driven by the kind's :data:`JOB_TABLE` row.

    The constructor takes ``job_id`` and then the row's fields, in order,
    positionally or by keyword; each becomes an attribute of the same
    name, coerced to its JSON-ready form.
    """

    kind: str = ""

    def __init__(self, job_id: str, *args, **kwargs):
        if not job_id:
            raise ValueError("job needs a non-empty job_id")
        self.job_id = str(job_id)
        fields = JOB_TABLE[self.kind][2]
        names = [field[0] for field in fields]
        if len(args) > len(names):
            raise TypeError(f"{self.kind} job takes at most {len(names)} fields")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{self.kind} job: bad or repeated field {name!r}")
            values[name] = value
        for name, default, coerce, _ in fields:
            value = values.get(name, default)
            if value is _REQUIRED:
                raise TypeError(f"{self.kind} job is missing field {name!r}")
            setattr(self, name, coerce(value))

    @classmethod
    def for_model(cls, job_id: str, model, *args, **kwargs) -> "JobSpec":
        """Build from an in-memory model (DTMC, MDP or CTMC)."""
        return cls(job_id, model_to_payload(model), *args, **kwargs)

    for_mdp = for_model

    @classmethod
    def for_dataset(cls, job_id: str, dataset, *args, **kwargs) -> "JobSpec":
        """Build from an in-memory :class:`TraceDataset`."""
        return cls(job_id, dataset_to_payload(dataset), *args, **kwargs)

    # -- serialisation --------------------------------------------------
    def payload(self) -> Dict:
        """The kind-specific JSON fields, in constructor order."""
        return {name: getattr(self, name) for name, *_ in JOB_TABLE[self.kind][2]}

    def to_dict(self) -> Dict:
        """JSON-ready form; inverse of :func:`job_from_dict`."""
        return {"kind": self.kind, "job_id": self.job_id, **self.payload()}

    @classmethod
    def from_payload(cls, job_id: str, payload: Mapping) -> "JobSpec":
        """Rebuild from :meth:`payload`: a missing required field raises
        ``KeyError``, a missing optional one takes its default."""
        return cls(job_id, **{
            name: payload[name] if default is _REQUIRED else payload.get(name, default)
            for name, default, _, _ in JOB_TABLE[cls.kind][2]
        })

    def fingerprint(self) -> str:
        """SHA-256 of the canonical content (``job_id`` excluded).

        Two jobs asking for identical work share a fingerprint, which
        is the key under which the result store deduplicates whole-job
        results.
        """
        canonical = json.dumps({"kind": self.kind, **self.payload()}, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- execution ------------------------------------------------------
    def run(self, cache=None) -> Dict:
        """Run the kind's :mod:`repro.core.api` entry point; returns the
        result's JSON-ready ``to_dict()``."""
        from repro.core import api

        entry, takes_cache, fields = JOB_TABLE[self.kind]
        (artifact, _, _, decode_artifact), *rest = fields
        kwargs = {name: decode(getattr(self, name)) for name, _, _, decode in rest}
        if takes_cache:
            kwargs["cache"] = cache
        result = getattr(api, entry)(decode_artifact(getattr(self, artifact)), **kwargs)
        return result.to_dict()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.job_id!r})"


class CheckJob(JobSpec):
    """Model-check ``formula`` on a model (DTMC or MDP).

    ``smc_epsilon`` / ``smc_delta`` / ``smc_samples`` configure the
    statistical fallback the runner uses when the exact engine times
    out (DTMC only).
    """

    kind = "check"

    def run(self, cache=None) -> Dict:
        from repro.core.api import check_model

        result = check_model(
            model_from_payload(self.model), self.formula,
            engine=self.engine, cache=cache,
        )
        return {
            "holds": bool(result.holds),
            "value": None if result.value is None else float(result.value),
            "method": "exact",
        }

    def run_statistical(self, seed: int = 0) -> Dict:
        """The degraded path: Monte-Carlo estimate instead of exact.

        Only defined for DTMC models with a top-level ``P``/``R``
        operator (the statistical checker's domain); raises
        ``TypeError`` otherwise, which the runner treats as an ordinary
        failure.
        """
        from repro.checking.statistical import StatisticalModelChecker
        from repro.logic.parser import parse_pctl

        model = model_from_payload(self.model)
        if not isinstance(model, DTMC):
            raise TypeError("statistical fallback needs a DTMC model")
        checker = StatisticalModelChecker(model, seed=seed)
        outcome = checker.check(
            parse_pctl(self.formula), epsilon=self.smc_epsilon,
            delta=self.smc_delta, reward_samples=self.smc_samples,
        )
        return {
            "holds": bool(outcome.holds), "value": float(outcome.estimate),
            "method": "statistical", "samples": int(outcome.samples),
            "undecided_rate": float(checker.undecided_rate),
        }


class ModelRepairJob(JobSpec):
    """Edge-wise Model Repair of a chain toward ``formula``."""

    kind = "model-repair"


class DataRepairJob(JobSpec):
    """Data Repair: drop/augment traces until the re-learned chain meets φ."""

    kind = "data-repair"


class RewardRepairJob(JobSpec):
    """Q-value-constrained Reward Repair on an MDP with tabular features."""

    kind = "reward-repair"


class RateRepairJob(JobSpec):
    """CTMC rate repair: scale rates until the expected hitting time fits."""

    kind = "rate-repair"


class RobustRepairJob(JobSpec):
    """Robust Model Repair certified over a ±``epsilon`` interval ball.

    ``vi_max_iterations`` caps the robust value iteration; a capped or
    divergent run degrades to the nominal check and the result carries
    ``robust: false`` (the runner's ``robust_fallbacks`` counter)
    instead of failing the job.
    """

    kind = "robust-repair"


class CegisRepairJob(JobSpec):
    """Counterexample-guided Model Repair (the CEGIS loop).

    The result's ``iterations`` / ``constraints_added`` /
    ``counterexample_states`` fields feed the runner's summed
    ``cegis_*`` telemetry counters.
    """

    kind = "cegis-repair"


#: Registry ``kind -> spec class``: one named class per table row, so
#: specs pickle by name and callers can ``isinstance`` them.
JOB_KINDS: Dict[str, Type[JobSpec]] = {
    cls.kind: cls
    for cls in (CheckJob, ModelRepairJob, DataRepairJob, RewardRepairJob,
                RateRepairJob, RobustRepairJob, CegisRepairJob)
}


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def _ensure_finite(value, where: str) -> None:
    """Reject NaN/Infinity anywhere in a job payload: ``json.loads``
    decodes those tokens, and a NaN bound poisons every comparison."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise JobValidationError(f"non-finite number at {where}")
    elif isinstance(value, Mapping):
        for key, entry in value.items():
            _ensure_finite(entry, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, entry in enumerate(value):
            _ensure_finite(entry, f"{where}[{index}]")


def job_from_dict(payload: Mapping) -> JobSpec:
    """Rebuild any registered job kind from its ``to_dict`` form.

    Malformed payloads — unknown ``kind``, missing ``job_id`` or other
    required fields, non-finite numbers — raise
    :class:`JobValidationError` rather than an arbitrary
    ``KeyError``/``TypeError`` from deep inside a spec constructor.
    """
    if not isinstance(payload, Mapping):
        kind = type(payload).__name__
        raise JobValidationError(f"job entry must be an object, got {kind}")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise JobValidationError(
            f"unknown job kind {kind!r}; expected one of {sorted(JOB_KINDS)}"
        )
    if not payload.get("job_id"):
        raise JobValidationError(f"{kind} job is missing its job_id")
    job_id = str(payload["job_id"])
    _ensure_finite(payload, f"job {job_id!r}")
    body = {k: v for k, v in payload.items() if k not in ("kind", "job_id")}
    try:
        return JOB_KINDS[kind].from_payload(job_id, body)
    except JobValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise JobValidationError(f"bad {kind} job {job_id!r}: {exc}") from exc


def save_jobs(jobs: Sequence[JobSpec], path: Union[str, Path]) -> None:
    """Write a batch to a JSON jobs file (``{"jobs": [...]}``)."""
    payload = {"jobs": [job.to_dict() for job in jobs]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_jobs_payload(payload: Union[Mapping, Sequence]) -> List[JobSpec]:
    """Parse an already-decoded batch payload into job specs.

    Accepts either ``{"jobs": [...]}`` or a bare array of job dicts.
    Duplicate ``job_id`` values are rejected early — results are keyed
    by id.  This is the parsing core shared by :func:`load_jobs` and
    the HTTP ``POST /batch`` endpoint.
    """
    entries = payload["jobs"] if isinstance(payload, Mapping) else payload
    jobs = [job_from_dict(entry) for entry in entries]
    seen = set()
    for job in jobs:
        if job.job_id in seen:
            raise JobValidationError(f"duplicate job_id {job.job_id!r} in batch")
        seen.add(job.job_id)
    return jobs


def load_jobs(path: Union[str, Path]) -> List[JobSpec]:
    """Read a jobs file written by :func:`save_jobs` (or by hand)."""
    return load_jobs_payload(json.loads(Path(path).read_text()))


def execute(spec: JobSpec, cache=None) -> Dict:
    """Run one job spec against the library (module-level, picklable)."""
    return spec.run(cache=cache)
