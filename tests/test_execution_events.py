"""The event-driven execution core.

Pins the contracts the daemon and the campaign layer build on: exact
JSON round-trips for every event type, the bus's ordering/filter/
propagation semantics, cooperative cancellation, and — the load-bearing
one — that the event stream is an *observation* of execution, not a
different execution: on every backend the finish events carry exactly
the outcomes of the returned ResultSet, cell for cell, and a campaign
resumed through the subscriber checkpoint publishes byte-identical
results with an equivalent journal.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.execution import (
    EVENT_TYPES,
    TERMINAL_EVENTS,
    CancelToken,
    CellFailed,
    CellFinished,
    CellStarted,
    EventBus,
    ExecutionCancelled,
    JobCancelled,
    JobFinished,
    JobManager,
    JobSubmitted,
    event_from_dict,
)
from repro.experiments.executor import ExecutionContext
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.scenario import Scenario, Suite

SCALE = 0.02


def small_suite(name: str = "events") -> Suite:
    return Suite(
        benchmarks=["adpcm", "gsm"],
        configurations=["sync", "mcd_base"],
        seeds=[1],
        scale=SCALE,
        name=name,
    )


class TestEventRoundTrip:
    def test_every_type_is_registered_with_a_unique_tag(self):
        assert sorted(EVENT_TYPES) == [
            "cell_failed",
            "cell_finished",
            "cell_started",
            "job_cancelled",
            "job_finished",
            "job_submitted",
        ]
        assert set(TERMINAL_EVENTS) == {"job_cancelled", "job_finished"}

    @pytest.mark.parametrize(
        "event",
        [
            JobSubmitted(job="j1", label="nightly", total=12),
            CellStarted(job="j1", cell=3, total=12, run_id="adpcm/sync/s1"),
            JobCancelled(job="j1", done=4, total=12),
            JobFinished(job="j1", total=12, succeeded=11, failed=1, elapsed_s=2.5),
            JobFinished(job="j1", total=12, error="Traceback ..."),
        ],
    )
    def test_json_round_trip_is_exact(self, event):
        data = json.loads(json.dumps(event.to_dict()))
        assert event_from_dict(data) == event
        assert data["event"] == event.kind

    def test_outcome_payloads_round_trip(self):
        ctx = ExecutionContext(scale=SCALE, use_cache=False)
        outcome = ctx.run_isolated(Scenario("adpcm", "sync"))
        assert outcome.ok
        for cls in (CellFinished, CellFailed):
            event = cls(job="j1", cell=0, total=1, outcome=outcome)
            rebuilt = event_from_dict(json.loads(json.dumps(event.to_dict())))
            assert rebuilt.outcome.to_dict() == outcome.to_dict()
            assert rebuilt.outcome.scenario == outcome.scenario

    def test_unknown_tag_and_malformed_payloads_fail_loudly(self):
        with pytest.raises(ExperimentError, match="unknown event tag"):
            event_from_dict({"event": "job_started"})
        with pytest.raises(ExperimentError, match="must be a dict"):
            event_from_dict(["job_finished"])
        with pytest.raises(ExperimentError, match="malformed"):
            event_from_dict(
                {"event": "cell_finished", "job": "j", "outcome": {"bogus": 1}}
            )


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("first", e.job)))
        bus.subscribe(lambda e: seen.append(("second", e.job)))
        bus.publish(JobSubmitted(job="a"))
        assert seen == [("first", "a"), ("second", "a")]

    def test_job_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, job="a")
        bus.publish(JobSubmitted(job="a"))
        bus.publish(JobSubmitted(job="b"))
        assert [e.job for e in seen] == ["a"]

    def test_unsubscribe_and_idempotent_subscribe(self):
        bus = EventBus()
        handler = lambda e: None  # noqa: E731
        bus.subscribe(handler)
        bus.subscribe(handler)  # no-op, not a double registration
        assert len(bus) == 1
        assert bus.unsubscribe(handler) is True
        assert bus.unsubscribe(handler) is False
        assert len(bus) == 0

    def test_subscribed_scope(self):
        bus = EventBus()
        seen = []
        with bus.subscribed(seen.append):
            bus.publish(JobSubmitted(job="in"))
        bus.publish(JobSubmitted(job="out"))
        assert [e.job for e in seen] == ["in"]

    def test_subscriber_exception_propagates_and_halts_delivery(self):
        bus = EventBus()
        later = []

        def boom(event):
            raise RuntimeError("subscriber cancelled the run")

        bus.subscribe(boom)
        bus.subscribe(later.append)
        with pytest.raises(RuntimeError):
            bus.publish(JobSubmitted(job="a"))
        assert later == []  # delivery aborted at the raising subscriber


class TestCancelToken:
    def test_one_way_flag(self):
        token = CancelToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while live
        assert token.wait(0.01) is False
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        assert token.wait(0.01) is True
        with pytest.raises(ExecutionCancelled):
            token.raise_if_cancelled()


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
class TestEventCallbackDifferential:
    """The event stream and the returned ResultSet are one execution."""

    def _knobs(self, backend, tmp_path, sub):
        return dict(
            backend=backend,
            workers=2,
            batch=2,
            scale=SCALE,
            cache_dir=tmp_path / sub,
            use_cache=False,
        )

    def test_event_stream_matches_on_result(self, backend, tmp_path):
        suite = small_suite()
        reference = Orchestrator(**self._knobs(backend, tmp_path, "plain")).run(suite)

        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        streamed = Orchestrator(
            events=bus, job_id="diff", **self._knobs(backend, tmp_path, "ev")
        ).run(suite)

        # Identical ResultSets, cell for cell, whether watched or not.
        assert streamed.to_dict() == reference.to_dict()

        total = len(suite.expand())
        finished = [e for e in events if isinstance(e, (CellFinished, CellFailed))]
        assert len(finished) == total
        assert sorted(e.cell for e in finished) == list(range(total))
        assert all(e.total == total and e.job == "diff" for e in events)
        # Each finish event carries exactly the outcome the ResultSet
        # holds at its cell.
        for event in finished:
            assert (
                event.outcome.to_dict()
                == streamed.outcomes[event.cell].to_dict()
            )
        # Per cell, started precedes its finish event on every backend.
        first_started = {}
        for position, event in enumerate(events):
            if isinstance(event, CellStarted):
                first_started.setdefault(event.cell, position)
        for position, event in enumerate(events):
            if isinstance(event, (CellFinished, CellFailed)):
                assert first_started[event.cell] < position

    def test_cancel_token_stops_the_matrix(self, backend, tmp_path):
        suite = small_suite("cancel")
        token = CancelToken()
        bus = EventBus()
        finished = []

        def cancel_after_one(event):
            if isinstance(event, (CellFinished, CellFailed)):
                finished.append(event)
                token.cancel()

        bus.subscribe(cancel_after_one)
        orchestrator = Orchestrator(
            events=bus,
            cancel=token,
            job_id="cancel",
            batch=1,
            **{
                k: v
                for k, v in self._knobs(backend, tmp_path, "tok").items()
                if k != "batch"
            },
        )
        with pytest.raises(ExecutionCancelled):
            orchestrator.run(suite)
        # At least one cell completed (and was announced) before the
        # token was honoured; the matrix did not run to completion.
        assert 1 <= len(finished) < len(suite.expand())


class SubscriberStop(Exception):
    """Raised by a test subscriber to stop a sweep."""


class TestOneCellLoop:
    """Every backend announces through one loop with one cleanup path."""

    def _shm_segments(self) -> set[str] | None:
        root = Path("/dev/shm")
        return {p.name for p in root.glob("psm_*")} if root.is_dir() else None

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_raising_subscriber_stops_the_sweep(self, backend, tmp_path):
        suite = Suite(
            benchmarks=["adpcm", "gsm", "phase_thrash"],
            configurations=["sync", "mcd_base"],
            seeds=[1, 2],
            scale=SCALE,
            name="raising",
        )
        total = len(suite.expand())
        before = self._shm_segments()
        threads = set(threading.enumerate())
        bus = EventBus()
        started = set()

        def stop_on_first_finish(event):
            if isinstance(event, CellStarted):
                started.add(event.cell)
            elif isinstance(event, (CellFinished, CellFailed)):
                raise SubscriberStop(event.cell)

        bus.subscribe(stop_on_first_finish)
        orchestrator = Orchestrator(
            backend=backend, workers=2, batch=1, scale=SCALE,
            cache_dir=tmp_path, use_cache=False, events=bus,
        )
        with pytest.raises(SubscriberStop) as stopped:
            orchestrator.run(suite)
        # ``stopped`` keeps the traceback, and with it every frame of
        # the sweep, alive: cleanup must not wait for garbage collection.
        assert stopped.value.args[0] in started  # started preceded its finish
        if backend == "serial":
            assert started == {0}  # nothing ran past the first cell
        elif backend == "thread":
            # Workers were joined and queued cells cancelled, never
            # picked up.
            assert not [
                t
                for t in set(threading.enumerate()) - threads
                if t.name.startswith("repro-sweep")
            ]
            assert len(started) < total
        elif before is not None:
            assert self._shm_segments() - before == set()

    def test_serial_per_run_sweep_announces_in_matrix_order(self, tmp_path):
        # Seeds vary slowest, so a trace-grouped order would differ.
        suite = Suite(
            benchmarks=["adpcm", "gsm"],
            configurations=["sync", "mcd_base"],
            seeds=[1, 2],
            scale=SCALE,
            name="ordered",
        )
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        Orchestrator(
            backend="serial", batch=1, scale=SCALE,
            cache_dir=tmp_path, use_cache=False, events=bus,
        ).run(suite)
        total = len(suite.expand())
        assert [(type(e), e.cell) for e in events] == [
            (kind, cell)
            for cell in range(total)
            for kind in (CellStarted, CellFinished)
        ]


class TestCampaignEventCheckpoint:
    """The journal checkpoint is a subscriber; resume stays exact."""

    CAMPAIGN = """
[campaign]
name = "evented"

[matrix]
benchmarks = ["adpcm", "gsm"]
configurations = ["sync", "mcd_base"]
seeds = [1]
scale = 0.02

[execution]
backend = "serial"
use_cache = false
"""

    def _journal_lines(self, path):
        lines = []
        for raw in path.read_text().splitlines():
            data = json.loads(raw)
            data.pop("utc", None)  # timestamps differ run to run
            lines.append(data)
        return lines

    def test_interrupted_resume_matches_uninterrupted_run(self, tmp_path):
        from repro.campaigns import CampaignRunner, CampaignSpec

        campaign = tmp_path / "campaign.toml"
        campaign.write_text(self.CAMPAIGN)

        reference_spec = CampaignSpec.load(
            campaign, output_dir=tmp_path / "reference"
        )
        CampaignRunner(reference_spec).run()

        spec = CampaignSpec.load(campaign, output_dir=tmp_path / "evented")
        runner = CampaignRunner(spec)

        class StopOnThird(Exception):
            pass

        # Subscribed ahead of the checkpoint: the third finish raises
        # before it can be journalled.
        bus = EventBus()
        seen = []

        def interrupt_on_third(event):
            if isinstance(event, (CellFinished, CellFailed)):
                seen.append(event.cell)
                if len(seen) == 3:
                    raise StopOnThird()

        bus.subscribe(interrupt_on_third)
        with pytest.raises(StopOnThird):
            runner.run(bus=bus)
        assert len(runner.state().completed) == 2

        report = runner.run(resume=True)
        assert report.ok
        assert report.restored == 2 and report.executed == 2

        # Byte-identical results; journal identical modulo timestamps.
        assert (
            spec.results_path.read_bytes()
            == reference_spec.results_path.read_bytes()
        )
        assert self._journal_lines(spec.journal_path) == self._journal_lines(
            reference_spec.journal_path
        )

    def test_external_bus_observes_the_journalled_stream(self, tmp_path):
        from repro.campaigns import CampaignRunner, CampaignSpec

        campaign = tmp_path / "campaign.toml"
        campaign.write_text(self.CAMPAIGN)
        spec = CampaignSpec.load(campaign, output_dir=tmp_path / "watched")
        bus = EventBus()
        events = []
        bus.subscribe(events.append, job="campaign:evented")
        report = CampaignRunner(spec).run(bus=bus)
        assert report.ok
        finished = [e for e in events if isinstance(e, CellFinished)]
        assert len(finished) == report.total
        assert {e.outcome.scenario.run_id for e in finished} == {
            o.scenario.run_id for o in report.results
        }


class TestJobManager:
    def test_submit_runs_to_a_terminal_finished_event(self, tmp_path):
        manager = JobManager(cache_dir=tmp_path / "cache", scale=SCALE)
        job = manager.submit(small_suite("managed"), backend="serial")
        assert job.wait(120)
        kinds = [e.kind for e in job.events_since(0)]
        assert kinds[0] == "job_submitted"
        assert kinds[-1] == "job_finished"
        assert kinds.count("cell_finished") == 4
        assert job.state == "finished"
        assert len(job.results) == 4
        payload = job.status_payload()
        assert payload["done"] == 4 and payload["failed"] == 0
        assert payload["state"] == "finished"
        # A late joiner replays the identical stream from the top.
        assert [e.kind for e in job.events_since(0)] == kinds

    def test_identical_concurrent_jobs_share_one_execution(self, tmp_path):
        from repro.experiments import CONFIGURATIONS, register_configuration

        gate = threading.Event()

        @register_configuration("gated_cfg")
        def gated(ctx, benchmark, scale, seed):
            """Sync run that waits for the test's gate (forces overlap)."""
            gate.wait(30)
            factory = CONFIGURATIONS.get("sync")
            return factory(ctx, benchmark, scale=scale, seed=seed)

        try:
            manager = JobManager(cache_dir=tmp_path / "cache", scale=SCALE)
            suite = Suite(
                benchmarks=["adpcm", "gsm"],
                configurations=["gated_cfg"],
                seeds=[1],
                scale=SCALE,
                name="dedup",
            )
            first = manager.submit(suite, backend="thread", workers=2)
            second = manager.submit(suite, backend="thread", workers=2)
            time.sleep(0.2)  # both jobs reach the gate before it opens
            gate.set()
            assert first.wait(120) and second.wait(120)
            assert first.state == second.state == "finished"
            assert first.results.to_dict() == second.results.to_dict()
            # 2 unique cells across 4 requests: exactly 2 executions.
            stats = manager.stats()
            assert stats["dedup_builds"] == 2
            assert stats["dedup_hits"] == 2
        finally:
            CONFIGURATIONS.unregister("gated_cfg")

    def test_cancel_mid_flight_terminates_with_job_cancelled(self, tmp_path):
        from repro.experiments import CONFIGURATIONS, register_configuration

        second_cell_entered = threading.Event()
        release = threading.Event()
        calls = []

        @register_configuration("slow_cfg")
        def slow(ctx, benchmark, scale, seed):
            """Sync run; every cell after the first blocks on a gate."""
            calls.append(benchmark)
            if len(calls) > 1:
                second_cell_entered.set()
                release.wait(30)
            factory = CONFIGURATIONS.get("sync")
            return factory(ctx, benchmark, scale=scale, seed=seed)

        try:
            manager = JobManager(
                cache_dir=tmp_path / "cache", use_cache=False, scale=SCALE
            )
            suite = Suite(
                benchmarks=["adpcm", "gsm", "phase_thrash"],
                configurations=["slow_cfg"],
                seeds=[1, 2],
                scale=SCALE,
                name="doomed",
            )
            job = manager.submit(suite, backend="serial")
            # Cell 1 is announced by the time cell 2 enters the gate;
            # cancel fires while cell 2 is mid-flight, so the serial
            # backend honours the token before cell 3.
            assert second_cell_entered.wait(60)
            assert manager.cancel(job.id)
            release.set()
            assert job.wait(60)
            events = job.events_since(0)
            assert events[-1].kind == "job_cancelled"
            assert job.state == "cancelled"
            assert job.results is None
            done = job.status_payload()["done"]
            assert 1 <= done < len(suite.expand())
            assert events[-1].done == done
            assert manager.cancel("job-nonesuch") is False
        finally:
            CONFIGURATIONS.unregister("slow_cfg")
