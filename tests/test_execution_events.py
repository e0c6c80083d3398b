"""The event-driven execution core.

Pins the contracts the campaign layer and the CLI build on: the bus's
ordering/filter/propagation semantics, cooperative cancellation, and —
the load-bearing one — that the event stream is an *observation* of
execution, not a different execution: on every backend the finish
events carry exactly the outcomes of the returned ResultSet, cell for
cell, and a campaign resumed through the subscriber checkpoint
publishes byte-identical results with an equivalent journal.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import threading

import pytest

from repro.execution import (
    CancelToken,
    CellFailed,
    CellFinished,
    CellStarted,
    ConsoleProgress,
    EventBus,
    ExecutionCancelled,
)
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.scenario import Suite

SCALE = 0.02


def small_suite(name: str = "events") -> Suite:
    return Suite(
        benchmarks=["adpcm", "gsm"],
        configurations=["sync", "mcd_base"],
        seeds=[1],
        scale=SCALE,
        name=name,
    )


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("first", e.job)))
        bus.subscribe(lambda e: seen.append(("second", e.job)))
        bus.publish(CellStarted(job="a"))
        assert seen == [("first", "a"), ("second", "a")]

    def test_job_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, job="a")
        bus.publish(CellStarted(job="a"))
        bus.publish(CellStarted(job="b"))
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
            bus.publish(CellStarted(job="in"))
        bus.publish(CellStarted(job="out"))
        assert [e.job for e in seen] == ["in"]

    def test_subscriber_exception_propagates_and_halts_delivery(self):
        bus = EventBus()
        later = []

        def boom(event):
            raise RuntimeError("subscriber cancelled the run")

        bus.subscribe(boom)
        bus.subscribe(later.append)
        with pytest.raises(RuntimeError):
            bus.publish(CellStarted(job="a"))
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


class TestConsoleProgress:
    def test_prints_finishes_only_and_never_raises(self):
        printed = io.StringIO()
        progress = ConsoleProgress(printed)
        progress(CellStarted(job="j", cell=1, total=2))
        progress(CellFailed(job="j", cell=1, total=2))
        assert printed.getvalue() == "[1/2] ? FAILED\n"
        # Display must never cancel a run: a dead stream is swallowed.
        printed.close()
        progress(CellFinished(job="j", cell=0, total=2))


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
        printed = io.StringIO()
        bus.subscribe(ConsoleProgress(printed))
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
        # The progress printer, one more subscriber, counts the same
        # finish events in completion order.
        assert printed.getvalue().splitlines() == [
            f"[{done}/{total}] {event.outcome.scenario.run_id} ok"
            for done, event in enumerate(finished, start=1)
        ]

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

    @pytest.mark.parametrize(
        "backend,start_method",
        [
            pytest.param("serial", None, id="serial"),
            pytest.param("thread", None, id="thread"),
            pytest.param("process", "fork", id="process"),
            pytest.param("process", "spawn", id="process-spawn"),
        ],
    )
    def test_raising_subscriber_stops_the_sweep(
        self, backend, start_method, tmp_path
    ):
        suite = Suite(
            benchmarks=["adpcm", "gsm", "phase_thrash"],
            configurations=["sync", "mcd_base"],
            seeds=[1, 2],
            scale=SCALE,
            name="raising",
        )
        total = len(suite.expand())
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
            start_method=start_method, cache_dir=tmp_path, use_cache=False,
            events=bus,
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
        else:
            # The pool was terminated and joined before the exception
            # propagated: no worker process outlives the sweep.
            assert multiprocessing.active_children() == []

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
