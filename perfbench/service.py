"""The ``service-mixed`` workload: ``repro serve`` under a closed loop.

Set-up builds the job payloads, starts ``python -m repro serve`` on a
free port with a fresh store directory, and warms the hot set once
through ``POST /batch`` (so hot jobs are later served as store reads).
The timed part runs :data:`CLIENTS` keep-alive clients in this process;
each sends a one-job ``POST /batch`` and sends the next only after the
reply.  The job plan is fixed by the seed: 77% of it are repeats of the
hot set, the rest are copies of a hot model-repair job that differ only
in ``seed``, so each copy is a store miss and a store write that reuses
the server's cached elimination.

After the timed part the server's peak RSS is read from ``/proc``, the
server is stopped, and every verdict is gated: each job's status must
match the same job run in this process, and every repaired chain the
server returned must pass a dense re-check.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

CLIENTS = 1
#: A plan is made of blocks, each with every hot job HOT_REPEATS times and
#: COPIES miss copies of every seed-independent hot repair (27 + 8 jobs,
#: 77% hot), in an order shuffled by the seed.
HOT_REPEATS = 3
COPIES = 2
PLAN_LENGTH = 20_000
MODEL_REPAIRS = (("drone", 8), ("network", 4), ("refuel", 12), ("grid", 3),
                 ("random", 12), ("random", 16))
#: Hot jobs whose model changes with the workload seed.
SEEDED = {"repair-random@12", "repair-random@16"}
#: Seeds of the miss copies start here, away from the hot jobs' seed 0.
COPY_SEED_BASE = 1000
SERVER_START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0


def _controllable(parametric_model) -> List[str]:
    """Rows of a lifted chain that carry repair variables."""
    return [
        state
        for state in parametric_model.states
        if any(not entry.is_constant()
               for entry in parametric_model.transitions[state].values())
    ]


def hot_jobs(seed: int) -> List[dict]:
    """The hot set as ``repro.service.jobs`` payloads."""
    from repro.casestudies import wsn
    from repro.checking.cache import CheckCache
    from repro.core.api import check_model
    from repro.corpus import FAMILIES
    from repro.service.jobs import (
        CegisRepairJob,
        CheckJob,
        ModelRepairJob,
        RobustRepairJob,
    )

    jobs = []
    for name, size in MODEL_REPAIRS:
        family = FAMILIES[name]
        repair = family.repair(size, seed, cache=CheckCache())
        jobs.append(
            ModelRepairJob.for_model(
                f"repair-{name}@{size}",
                repair.original,
                str(repair.formula),
                controllable_states=_controllable(repair.parametric_model),
                max_perturbation=family.max_perturbation,
            ).to_dict()
        )
    chain = wsn.build_wsn_chain()
    jobs.append(
        CheckJob.for_model("check-wsn-x40", chain, str(wsn.attempts_property(40))).to_dict()
    )
    monitored = wsn.build_monitored_chain(size=4)
    nominal = check_model(monitored, wsn.clean_delivery_property(1.0)).value
    jobs.append(
        CegisRepairJob.for_model(
            "cegis-4x4",
            monitored,
            str(wsn.clean_delivery_property(round(0.5 * nominal, 6))),
            controllable_states=wsn.jammable_nodes(4),
            max_perturbation=0.2,
        ).to_dict()
    )
    jobs.append(
        RobustRepairJob.for_model(
            "robust-x50",
            chain,
            str(wsn.attempts_property(50.0)),
            epsilon=0.01,
            controllable_states=["n22"],
            max_perturbation=0.1,
        ).to_dict()
    )
    return jobs


def job_plan(seed: int, hot: List[dict]) -> List[dict]:
    """The request sequence: hot repeats and seed-only copies (misses).

    Every block of the plan holds the same jobs, so the seed changes the
    order of the work, not its mix.  Copies are made only of the repairs
    whose model does not depend on the seed, so their cost does not
    change with it either.
    """
    rng = random.Random(seed)
    repairs = [job for job in hot
               if job["kind"] == "model-repair" and job["job_id"] not in SEEDED]
    plan: List[dict] = []
    while len(plan) < PLAN_LENGTH:
        block = [(job, False) for job in hot * HOT_REPEATS]
        block += [(job, True) for job in repairs * COPIES]
        rng.shuffle(block)
        for job, copy in block:
            index = len(plan)
            plan.append(dict(job, job_id=f"{job['job_id']}#copy{index}",
                             seed=COPY_SEED_BASE + index) if copy else job)
    return plan


def parent_id(job_id: str) -> str:
    return job_id.split("#", 1)[0]


class Server:
    """``python -m repro serve`` as a child process (or its traced wrapper)."""

    def __init__(self, root: Path, scratch: Path, trace_path: Optional[Path]):
        self.store = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        args = ["serve", "--port", "0", "--store", str(self.store)]
        if trace_path is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve.py")),
                       str(trace_path), *args]
        self.process = subprocess.Popen(
            command, env=env, cwd=root, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.port = self._read_port()
        self._output = threading.Thread(target=self._drain, daemon=True)
        self._output.start()

    def _read_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def _drain(self) -> None:
        for _line in self.process.stdout:
            pass

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)


class Client:
    """One keep-alive connection posting one-job batches."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def post(self, job: dict) -> dict:
        body = json.dumps({"jobs": [job]}).encode("utf-8")
        started = time.monotonic()
        try:
            self.connection.request(
                "POST", "/batch", body, {"Content-Type": "application/json"}
            )
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.connection.close()
            return {"ms": (time.monotonic() - started) * 1e3, "job": job,
                    "error": f"{type(exc).__name__}: {exc}"}
        elapsed = (time.monotonic() - started) * 1e3
        if response.status != 200:
            return {"ms": elapsed, "job": job, "error": f"HTTP {response.status}"}
        outcome = json.loads(payload)["outcomes"][0]
        return {"ms": elapsed, "job": job, "outcome": outcome}

    def close(self) -> None:
        self.connection.close()


def load(port: int, plan: List[dict], seconds: float) -> List[dict]:
    """Closed loop: every client sends its next job after each reply."""
    lock = threading.Lock()
    cursor = iter(plan)
    replies: List[dict] = []
    deadline = time.monotonic() + seconds

    def client_loop():
        client = Client(port)
        try:
            while time.monotonic() < deadline:
                with lock:
                    job = next(cursor)
                reply = client.post(job)
                with lock:
                    replies.append(reply)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


def in_process_verdicts(hot: List[dict]) -> Dict[str, str]:
    """Each hot job run in this process with its own fresh cache."""
    from repro.checking.cache import CheckCache
    from repro.service.jobs import job_from_dict

    return {
        job["job_id"]: verdict_of(job["kind"], job_from_dict(job).run(cache=CheckCache()))
        for job in hot
    }


def verdict_of(kind: str, result: dict) -> str:
    if kind == "check":
        return f"holds={result['holds']}"
    return str(result["status"])


def gate(replies: List[dict], hot: List[dict], reference: Dict[str, str]) -> List[dict]:
    """Per-reply records with every failed check listed in ``problems``."""
    from repro.core.api import check_model
    from repro.io.json_io import model_from_payload

    formulas = {job["job_id"]: job["formula"] for job in hot}
    rechecked: Dict[str, bool] = {}
    records = []
    for reply in replies:
        job = reply["job"]
        record = {"id": job["job_id"], "ms": reply["ms"], "problems": [],
                  "cached": False, "duration_ms": None, "objective": None}
        records.append(record)
        if "error" in reply:
            record["problems"].append(reply["error"])
            continue
        outcome = reply["outcome"]
        record["cached"] = bool(outcome.get("cached"))
        record["duration_ms"] = float(outcome["duration"]) * 1e3
        if outcome["status"] != "succeeded":
            record["problems"].append(f"job ended {outcome['status']}: {outcome.get('error')}")
            continue
        result = outcome["result"]
        verdict = verdict_of(job["kind"], result)
        expected = reference[parent_id(job["job_id"])]
        if verdict != expected:
            record["problems"].append(f"verdict {verdict!r} != in-process {expected!r}")
        if job["kind"] != "check":
            record["objective"] = float(result["objective_value"])
        if result.get("status") == "repaired":
            if not result.get("verified"):
                record["problems"].append("repaired but not verified")
            key = f"{job['job_id']}/{job.get('seed')}"
            if key not in rechecked:
                model = result.get("repaired_model")
                rechecked[key] = model is not None and bool(
                    check_model(model_from_payload(model),
                                formulas[parent_id(job["job_id"])],
                                engine="dense").holds
                )
            if not rechecked[key]:
                record["problems"].append("dense re-check of the repaired chain fails")
    return records


def warm(port: int, hot: List[dict]) -> Dict[str, float]:
    """Run every hot job once; returns their objectives (repairs only)."""
    client = Client(port)
    objectives = {}
    try:
        for job in hot:
            reply = client.post(job)
            if "error" in reply or reply["outcome"]["status"] != "succeeded":
                raise RuntimeError(f"warm-up of {job['job_id']} failed: {reply}")
            result = reply["outcome"]["result"]
            if "objective_value" in result:
                objectives[job["job_id"]] = float(result["objective_value"])
    finally:
        client.close()
    return objectives
