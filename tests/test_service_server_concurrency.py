"""Concurrency + hardening suite for the HTTP front door.

Covers the async ``POST /jobs`` surface (backpressure, rate limiting,
drain-on-shutdown) and the handler-thread hardening: parallel POSTs
must never lose counter updates, malformed overrides and bodies must
answer structured 400/413s, and a flood beyond queue capacity must
answer 503 + ``Retry-After`` — never a dropped connection.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.mdp import chain_dtmc
from repro.service.jobs import CheckJob
from repro.service.runner import BatchRunner
from repro.service.server import build_server
from repro.service.telemetry import Telemetry

pytestmark = pytest.mark.service


def check_payload(job_id: str, n: int = 4) -> dict:
    return CheckJob.for_model(
        job_id, chain_dtmc(n, forward_probability=0.5), 'P>=0.2 [ F "goal" ]'
    ).to_dict()


def start_server(**kwargs):
    telemetry = kwargs.pop("telemetry", None) or Telemetry()
    server = build_server(port=0, telemetry=telemetry, **kwargs)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, f"http://{host}:{port}", telemetry


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def post_json(url, payload, headers=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def post_collect(url, payload, headers=None):
    """POST and return (status, body, headers) without raising."""
    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def poll_until_terminal(base, ticket, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, record = get_json(f"{base}/jobs/{ticket}")
        if record["status"] not in ("queued", "running"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"ticket {ticket} never reached a terminal status")


@pytest.fixture
def service():
    server, thread, base, telemetry = start_server(
        queue_size=64, queue_workers=2
    )
    try:
        yield server, base, telemetry
    finally:
        stop_server(server, thread)


class TestCounterIntegrity:
    def test_parallel_batches_lose_no_increments(self, service):
        _, base, _ = service
        clients, per_client = 8, 2
        errors = []

        def client(index):
            try:
                for i in range(per_client):
                    job = check_payload(f"c{index}-{i}")
                    status, _ = post_json(base + "/batch", {"jobs": [job]})
                    assert status == 200
            except Exception as exc:  # noqa: BLE001 — collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        _, health = get_json(base + "/health")
        assert health["batches"] == clients * per_client

    def test_parallel_async_submissions_all_accounted(self, service):
        server, base, _ = service
        clients, per_client = 6, 3
        tickets, errors = [], []
        lock = threading.Lock()

        def client(index):
            try:
                for i in range(per_client):
                    status, body, _ = post_collect(
                        base + "/jobs",
                        {"jobs": [check_payload(f"a{index}-{i}")]},
                    )
                    assert status == 202, body
                    with lock:
                        tickets.extend(
                            entry["ticket"] for entry in body["accepted"]
                        )
            except Exception as exc:  # noqa: BLE001 — collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(tickets) == len(set(tickets)) == clients * per_client
        for ticket in tickets:
            assert poll_until_terminal(base, ticket)["status"] == "succeeded"
        stats = server.queue.stats()
        assert stats["submitted"] == stats["completed"] == len(tickets)


class TestOverrideValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_retries": "abc"},
            {"max_retries": -1},
            {"max_retries": None},
            {"job_timeout": "abc"},
            {"job_timeout": -5},
            {"job_timeout": 0},
        ],
    )
    def test_malformed_overrides_structured_400(self, service, overrides):
        _, base, _ = service
        for path in ("/batch", "/jobs"):
            status, body, _ = post_collect(
                base + path, {"jobs": [check_payload("x")], **overrides}
            )
            assert status == 400, (path, overrides)
            assert body["error"]["code"] == "invalid-override"

    def test_valid_overrides_still_flow(self, service):
        _, base, _ = service
        status, report = post_json(
            base + "/batch",
            {"jobs": [check_payload("ok")], "max_retries": 1,
             "job_timeout": 30},
        )
        assert status == 200
        assert report["statuses"] == {"succeeded": 1}


class TestBodyHardening:
    def _raw_post(self, server, headers, body=b""):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/batch")
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders()
            if body:
                connection.send(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_negative_content_length_400(self, service):
        server, _, _ = service
        status, body = self._raw_post(server, {"Content-Length": "-5"})
        assert status == 400
        assert body["error"]["code"] == "invalid-content-length"

    def test_non_numeric_content_length_400(self, service):
        server, _, _ = service
        status, body = self._raw_post(server, {"Content-Length": "lots"})
        assert status == 400
        assert body["error"]["code"] == "invalid-content-length"

    def test_missing_content_length_400(self, service):
        server, _, _ = service
        status, body = self._raw_post(server, {})
        assert status == 400
        assert body["error"]["code"] == "missing-content-length"

    def test_oversized_body_413(self):
        server, thread, base, _ = start_server(max_body_bytes=1024)
        try:
            payload = {"jobs": [check_payload("big")], "pad": "x" * 4096}
            status, body, _ = post_collect(base + "/batch", payload)
            assert status == 413
            assert body["error"]["code"] == "body-too-large"
        finally:
            stop_server(server, thread)

    def test_invalid_json_400(self, service):
        server, _, _ = service
        raw = b"{not json"
        status, body = self._raw_post(
            server, {"Content-Length": str(len(raw))}, body=raw
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-json"


class TestBackpressure:
    def test_flood_gets_503_with_retry_after_never_dropped(self, monkeypatch):
        # The single queue worker is held inside a blocker job until the
        # whole flood has been answered, so the queue cannot drain while
        # it is filled: exactly ``queue_size`` submissions fit.
        started, release = threading.Event(), threading.Event()
        run_one = BatchRunner.run_one

        def gated_run_one(runner, job):
            started.set()
            release.wait(timeout=120)
            return run_one(runner, job)

        monkeypatch.setattr(BatchRunner, "run_one", gated_run_one)
        server, thread, base, telemetry = start_server(
            queue_size=2, queue_workers=1
        )
        try:
            status, blocker, _ = post_collect(
                base + "/jobs", {"jobs": [check_payload("blocker")]}
            )
            assert status == 202
            assert started.wait(timeout=30), "worker never took the blocker"
            results, errors = [], []
            lock = threading.Lock()

            def submit(index):
                try:
                    outcome = post_collect(
                        base + "/jobs",
                        {"jobs": [check_payload(f"f{index}")]},
                    )
                    with lock:
                        results.append(outcome)
                except Exception as exc:  # noqa: BLE001 — dropped conn etc.
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(24)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=120)
            release.set()
            # Hard acceptance: every request got an HTTP answer.
            assert not errors
            assert len(results) == 24
            accepted = [r for r in results if r[0] == 202]
            rejected = [r for r in results if r[0] == 503]
            assert len(accepted) + len(rejected) == 24
            assert len(accepted) == 2, "the queue holds exactly two jobs"
            assert len(rejected) == 22, "flood past capacity must observe 503s"
            for status, body, headers in rejected:
                assert body["error"]["code"] == "queue-full"
                assert int(headers["Retry-After"]) >= 1
            # Accepted work still completes.
            for status, body, _ in accepted + [(202, blocker, None)]:
                for entry in body["accepted"]:
                    record = poll_until_terminal(base, entry["ticket"])
                    assert record["status"] == "succeeded"
            assert telemetry.counters()["jobs_rejected"] == len(rejected)
        finally:
            release.set()
            stop_server(server, thread)

    def test_rate_limit_429_with_retry_after(self):
        server, thread, base, _ = start_server(
            queue_size=64, queue_workers=1, rate_limit=1.0, rate_burst=2.0
        )
        try:
            headers = {"X-Client-Id": "flooder"}
            outcomes = [
                post_collect(
                    base + "/jobs",
                    {"jobs": [check_payload(f"r{i}")]},
                    headers=headers,
                )
                for i in range(5)
            ]
            accepted = [o for o in outcomes if o[0] == 202]
            limited = [o for o in outcomes if o[0] == 429]
            assert len(accepted) == 2  # the burst
            assert len(limited) == 3
            for status, body, hdrs in limited:
                assert body["error"]["code"] == "rate-limited"
                assert int(hdrs["Retry-After"]) >= 1
            # A different client is not starved by the flooder.
            status, _, _ = post_collect(
                base + "/jobs",
                {"jobs": [check_payload("other")]},
                headers={"X-Client-Id": "patient"},
            )
            assert status == 202
        finally:
            stop_server(server, thread)


class TestShutdownDrain:
    def test_server_close_drains_queue(self):
        server, thread, base, _ = start_server(
            queue_size=32, queue_workers=1
        )
        tickets = []
        try:
            status, body, _ = post_collect(
                base + "/jobs",
                {"jobs": [check_payload(f"d{i}") for i in range(8)]},
            )
            assert status == 202
            tickets = [entry["ticket"] for entry in body["accepted"]]
        finally:
            stop_server(server, thread)
        # After close the socket is gone; poll the queue in-process.
        for ticket in tickets:
            record = server.queue.snapshot(ticket)
            assert record["status"] == "succeeded", record
        stats = server.queue.stats()
        assert stats["completed"] == len(tickets)
        assert stats["cancelled"] == 0
        assert stats["closed"] is True


class TestPolling:
    def test_unknown_ticket_404(self, service):
        _, base, _ = service
        try:
            get_json(base + "/jobs/job-99999999")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            assert json.loads(error.read())["error"]["code"] == (
                "unknown-ticket"
            )
        else:
            raise AssertionError("expected 404")

    def test_queue_endpoint_reports_stats(self, service):
        _, base, _ = service
        status, stats = get_json(base + "/queue")
        assert status == 200
        for key in ("capacity", "depth", "in_flight", "completed",
                    "rejected_total", "workers"):
            assert key in stats

    def test_malformed_job_still_400_on_async_path(self, service):
        _, base, _ = service
        status, body, _ = post_collect(
            base + "/jobs", {"jobs": [{"kind": "nope", "job_id": "x"}]}
        )
        assert status == 400
        assert "error" in body
