"""The ``repro serve`` daemon, end to end over real HTTP.

Every test runs a :class:`~repro.execution.serve.BackgroundServer` on
an ephemeral port and speaks to it with :mod:`http.client` — the same
wire a curl user sees: job submission, ordered NDJSON event streams,
result retrieval, dedup of concurrent identical jobs, and mid-flight
cancellation of a process-backend job.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.execution.jobs import JobManager
from repro.execution.serve import BackgroundServer

SCALE = 0.02

MATRIX_BODY = {
    "benchmarks": ["adpcm", "gsm"],
    "configurations": ["sync", "mcd_base"],
    "seeds": [1],
    "scale": SCALE,
    "backend": "serial",
    "label": "http-test",
}


def request(server, method, path, body=None, timeout=120):
    """One HTTP round-trip; returns (status, parsed JSON or NDJSON list)."""
    conn = HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = conn.getresponse()
        raw = response.read().decode()
        if response.getheader("Content-Type", "").startswith(
            "application/x-ndjson"
        ):
            return response.status, [
                json.loads(line) for line in raw.splitlines() if line
            ]
        return response.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def submit(server, body=MATRIX_BODY):
    status, payload = request(server, "POST", "/jobs", body=body)
    assert status == 201, payload
    return payload["id"]


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(JobManager(cache_dir=tmp_path / "cache")) as bg:
        yield bg


class TestServeBasics:
    def test_healthz(self, server):
        from repro.version import __version__

        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        assert payload["jobs"] == 0

    def test_submit_stream_and_results(self, server):
        job_id = submit(server)
        status, events = request(server, "GET", f"/jobs/{job_id}/events")
        assert status == 200
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job_submitted"
        assert kinds[-1] == "job_finished"
        assert kinds.count("cell_finished") == 4
        # Per cell, started precedes finished in the streamed order.
        started = {}
        for position, event in enumerate(events):
            if event["event"] == "cell_started":
                started.setdefault(event["cell"], position)
        for position, event in enumerate(events):
            if event["event"] == "cell_finished":
                assert started[event["cell"]] < position
        final = events[-1]
        assert final["succeeded"] == 4 and final["failed"] == 0

        status, payload = request(server, "GET", f"/jobs/{job_id}/results")
        assert status == 200
        assert len(payload["results"]["outcomes"]) == 4

        status, payload = request(server, "GET", f"/jobs/{job_id}")
        assert status == 200
        assert payload["state"] == "finished" and payload["done"] == 4

        status, payload = request(server, "GET", "/jobs")
        assert status == 200
        assert [j["id"] for j in payload["jobs"]] == [job_id]

    def test_event_stream_offset_resumes_mid_stream(self, server):
        job_id = submit(server)
        status, full = request(server, "GET", f"/jobs/{job_id}/events")
        assert status == 200
        status, tail = request(
            server, "GET", f"/jobs/{job_id}/events?offset=3"
        )
        assert status == 200
        assert tail == full[3:]

    def test_campaign_toml_body(self, server):
        toml_text = (
            '[campaign]\nname = "fromtoml"\n'
            "[matrix]\n"
            'benchmarks = ["adpcm"]\n'
            'configurations = ["sync", "mcd_base"]\n'
            "scale = 0.02\n"
            "[execution]\n"
            'backend = "serial"\n'
        )
        status, payload = request(
            server, "POST", "/jobs", body={"campaign": toml_text}
        )
        assert status == 201
        assert payload["label"] == "fromtoml"
        assert payload["total"] == 2
        status, events = request(
            server, "GET", f"/jobs/{payload['id']}/events"
        )
        assert events[-1]["event"] == "job_finished"
        assert events[-1]["succeeded"] == 2


class TestServeErrors:
    def test_unknown_routes_and_jobs(self, server):
        assert request(server, "GET", "/nonesuch")[0] == 404
        assert request(server, "GET", "/jobs/job-999")[0] == 404
        assert request(server, "GET", "/jobs/job-999/events")[0] == 404
        assert request(server, "PUT", "/jobs")[0] == 405

    def test_bad_bodies(self, server):
        assert request(server, "POST", "/jobs")[0] == 400  # no body
        status, payload = request(server, "POST", "/jobs", body={"seeds": [1]})
        assert status == 400
        assert "benchmarks" in payload["error"]
        status, payload = request(
            server, "POST", "/jobs", body={"campaign": "[unclosed"}
        )
        assert status == 400
        assert "TOML" in payload["error"]
        status, payload = request(
            server,
            "POST",
            "/jobs",
            body={**MATRIX_BODY, "backend": "bogus"},
        )
        assert status == 400
        assert "backend" in payload["error"]

    def test_results_conflict_while_running(self, server):
        from repro.experiments import CONFIGURATIONS, register_configuration

        gate = threading.Event()

        @register_configuration("gated_http")
        def gated(ctx, benchmark, scale, seed):
            """Sync run held behind the test's gate."""
            gate.wait(30)
            factory = CONFIGURATIONS.get("sync")
            return factory(ctx, benchmark, scale=scale, seed=seed)

        try:
            job_id = submit(
                server,
                body={
                    "benchmarks": ["adpcm"],
                    "configurations": ["gated_http"],
                    "scale": SCALE,
                    "backend": "serial",
                },
            )
            status, payload = request(server, "GET", f"/jobs/{job_id}/results")
            assert status == 409
            assert "no results" in payload["error"]
            gate.set()
            request(server, "GET", f"/jobs/{job_id}/events")
            status, _ = request(server, "GET", f"/jobs/{job_id}/results")
            assert status == 200
        finally:
            gate.set()
            CONFIGURATIONS.unregister("gated_http")


class TestServeDedup:
    def test_identical_concurrent_jobs_execute_once(self, server):
        from repro.experiments import CONFIGURATIONS, register_configuration

        gate = threading.Event()

        @register_configuration("gated_dedup")
        def gated(ctx, benchmark, scale, seed):
            """Sync run held behind the gate so both jobs overlap."""
            gate.wait(30)
            factory = CONFIGURATIONS.get("sync")
            return factory(ctx, benchmark, scale=scale, seed=seed)

        body = {
            "benchmarks": ["adpcm", "gsm"],
            "configurations": ["gated_dedup"],
            "scale": SCALE,
            "backend": "thread",
            "workers": 2,
            "label": "twin",
        }
        try:
            first = submit(server, body)
            second = submit(server, body)
            assert first != second
            time.sleep(0.2)  # let both jobs reach the gate
            gate.set()
            _, events_a = request(server, "GET", f"/jobs/{first}/events")
            _, events_b = request(server, "GET", f"/jobs/{second}/events")
            assert events_a[-1]["event"] == "job_finished"
            assert events_b[-1]["event"] == "job_finished"
            _, first_results = request(server, "GET", f"/jobs/{first}/results")
            _, second_results = request(server, "GET", f"/jobs/{second}/results")
            assert first_results["results"] == second_results["results"]
            # 2 unique cells, 4 requests: the daemon executed each once.
            _, health = request(server, "GET", "/healthz")
            assert health["dedup_builds"] == 2
            assert health["dedup_hits"] == 2
        finally:
            gate.set()
            CONFIGURATIONS.unregister("gated_dedup")


class TestServeCancel:
    # Forking pool workers from the daemon's threaded process trips the
    # 3.12 multi-threaded-fork DeprecationWarning; irrelevant here.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_cancel_mid_flight_stops_a_process_job(self, server):
        from repro.experiments import CONFIGURATIONS, register_configuration

        @register_configuration("sleepy_http")
        def sleepy(ctx, benchmark, scale, seed):
            """Sync run slowed enough to cancel mid-matrix (fork-safe)."""
            time.sleep(0.3)
            factory = CONFIGURATIONS.get("sync")
            return factory(ctx, benchmark, scale=scale, seed=seed)

        try:
            job_id = submit(
                server,
                body={
                    "benchmarks": ["adpcm", "gsm", "phase_thrash"],
                    "configurations": ["sleepy_http"],
                    "seeds": [1, 2],
                    "scale": SCALE,
                    "backend": "process",
                    "workers": 2,
                    "batch": 1,
                    "label": "doomed",
                },
            )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                _, payload = request(server, "GET", f"/jobs/{job_id}")
                if payload["done"] >= 1 or payload["state"] != "running":
                    break
                time.sleep(0.05)
            assert payload["state"] == "running", payload
            status, payload = request(server, "DELETE", f"/jobs/{job_id}")
            assert status == 200 and payload["cancelled"] is True

            _, events = request(server, "GET", f"/jobs/{job_id}/events")
            assert events[-1]["event"] == "job_cancelled"
            assert 1 <= events[-1]["done"] < 6
            _, payload = request(server, "GET", f"/jobs/{job_id}")
            assert payload["state"] == "cancelled"
            status, _ = request(server, "GET", f"/jobs/{job_id}/results")
            assert status == 409
        finally:
            CONFIGURATIONS.unregister("sleepy_http")
