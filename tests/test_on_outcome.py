"""Watching a sweep: the orchestrator's ``on_outcome`` callback.

Pins the contracts the campaign checkpoint builds on: the callback is
an *observation* of execution, not a different execution — on every
backend it receives exactly the outcomes of the returned ResultSet,
failed ones included, cell for cell, in the calling thread, each after
its progress line — and an exception it raises stops the sweep through
the same cleanup as Ctrl-C.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import re
import threading

import pytest

from repro.experiments.executor import ExecutionContext
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.scenario import Suite

SCALE = 0.02

BACKENDS = ["serial", "thread", "process"]

PROGRESS_LINE = re.compile(r"^\[\d+/\d+\] ")


def _progress_lines(records) -> list[str]:
    """The orchestrator's ``[k/N] run_id status`` lines among ``records``."""
    return [
        record.getMessage()
        for record in records
        if record.name == "repro.experiments.orchestrator"
        and PROGRESS_LINE.match(record.getMessage())
    ]


def _no_sweep_threads_outlive(threads_before) -> bool:
    return not [
        t
        for t in set(threading.enumerate()) - threads_before
        if t.name.startswith("repro-sweep")
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_callback_receives_the_result_sets_outcomes(backend, tmp_path):
    knobs = dict(backend=backend, workers=2, batch=2, scale=SCALE, use_cache=False)
    suite = Suite(["adpcm", "gsm"], ["sync", "mcd_base"], seeds=[1], scale=SCALE)
    reference = Orchestrator(cache_dir=tmp_path / "plain", **knobs).run(suite)

    seen = []

    def on_outcome(cell, outcome):
        seen.append((cell, outcome, threading.current_thread()))

    watched = Orchestrator(
        cache_dir=tmp_path / "watched", on_outcome=on_outcome, **knobs
    ).run(suite)

    # Identical ResultSets, cell for cell, whether watched or not.
    assert watched.to_dict() == reference.to_dict()
    assert sorted(cell for cell, _, _ in seen) == list(range(len(suite.expand())))
    for cell, outcome, thread in seen:
        assert outcome is watched.outcomes[cell]
        assert thread is threading.current_thread()


class CallbackStop(Exception):
    """Raised by a test callback to stop a sweep."""


@pytest.mark.parametrize("backend", BACKENDS)
def test_raising_callback_stops_the_sweep(backend, tmp_path, monkeypatch):
    suite = Suite(
        benchmarks=["adpcm", "gsm", "phase_thrash"],
        configurations=["sync", "mcd_base"],
        seeds=[1, 2],
        scale=SCALE,
        name="raising",
    )
    total = len(suite.expand())
    threads = set(threading.enumerate())
    cells_run = []
    run_batch = ExecutionContext.run_batch

    def counting(ctx, scenarios):
        cells_run.append(len(scenarios))
        return run_batch(ctx, scenarios)

    monkeypatch.setattr(ExecutionContext, "run_batch", counting)

    def stop_on_first(cell, outcome):
        raise CallbackStop(cell)

    orchestrator = Orchestrator(
        backend=backend, workers=2, batch=1, scale=SCALE,
        cache_dir=tmp_path, use_cache=False, on_outcome=stop_on_first,
    )
    with pytest.raises(CallbackStop) as stopped:
        orchestrator.run(suite)
    # ``stopped`` keeps the traceback, and with it every frame of the
    # sweep, alive: cleanup must not wait for garbage collection.
    if backend == "serial":
        assert stopped.value.args[0] == 0
        assert cells_run == [1]  # nothing ran past the first cell
    elif backend == "thread":
        # Workers were joined and queued cells cancelled, never run.
        assert _no_sweep_threads_outlive(threads)
        assert len(cells_run) < total
    else:
        # The workers were terminated and joined before the exception
        # propagated: no worker process outlives the sweep.
        assert multiprocessing.active_children() == []


def test_serial_per_run_sweep_announces_in_matrix_order(tmp_path):
    # Seeds vary slowest, so a trace-grouped order would differ.
    suite = Suite(
        benchmarks=["adpcm", "gsm"],
        configurations=["sync", "mcd_base"],
        seeds=[1, 2],
        scale=SCALE,
        name="ordered",
    )
    cells = []
    Orchestrator(
        backend="serial", batch=1, scale=SCALE, cache_dir=tmp_path,
        use_cache=False, on_outcome=lambda cell, outcome: cells.append(cell),
    ).run(suite)
    assert cells == list(range(len(suite.expand())))


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_outcome_is_logged_before_its_callback(backend, tmp_path, caplog):
    suite = Suite(
        ["adpcm", "gsm"], ["sync", "mcd_base"], seeds=[1, 2], scale=SCALE,
        name="logged",
    )
    total = len(suite.expand())
    at_callback = []

    def on_outcome(cell, outcome):
        at_callback.append((outcome, _progress_lines(caplog.records)))

    with caplog.at_level(logging.INFO, logger="repro.experiments.orchestrator"):
        Orchestrator(
            backend=backend, workers=2, batch=1, scale=SCALE,
            cache_dir=tmp_path, use_cache=False, on_outcome=on_outcome,
        ).run(suite)

    # When the k-th callback runs, the k-th progress line -- counting in
    # completion order and naming that very outcome -- is already out,
    # and no later one is.
    assert len(at_callback) == total
    for done, (outcome, lines) in enumerate(at_callback, start=1):
        assert lines[-1] == f"[{done}/{total}] {outcome.scenario.run_id} ok"
        assert len(lines) == done
    assert len(_progress_lines(caplog.records)) == total


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_outcomes_reach_the_callback(backend, tmp_path, caplog):
    # ``global@100`` is below the configured frequency range: its core
    # fails to build, which the run captures into a failed outcome.
    suite = Suite(
        ["adpcm", "gsm"], ["sync", "global@100"], seeds=[1], scale=SCALE,
        name="failing",
    )
    seen = {}

    def on_outcome(cell, outcome):
        seen[cell] = outcome

    with caplog.at_level(logging.INFO, logger="repro.experiments.orchestrator"):
        results = Orchestrator(
            backend=backend, workers=2, batch=1, scale=SCALE,
            cache_dir=tmp_path, use_cache=False, on_outcome=on_outcome,
        ).run(suite)

    # The failures do not stop the sweep, and the callback sees them
    # exactly as the ResultSet holds them, each logged as FAILED first.
    assert sorted(seen) == list(range(len(suite.expand())))
    assert [o.ok for o in results.outcomes] == [True, False, True, False]
    for cell, outcome in seen.items():
        assert outcome is results.outcomes[cell]
    failed = sorted(
        line.split()[1]
        for line in _progress_lines(caplog.records)
        if line.endswith(" FAILED")
    )
    assert failed == ["adpcm:global@100#s1", "gsm:global@100#s1"]
    assert all(seen[cell].error for cell in (1, 3))


@pytest.mark.parametrize("backend", BACKENDS)
def test_interrupt_from_the_callback_is_logged_and_reraised(backend, tmp_path, caplog):
    # The campaign checkpoint interrupts this way: Ctrl-C landing in
    # the journal write surfaces as a KeyboardInterrupt from the
    # callback.
    suite = Suite(
        ["adpcm", "gsm", "phase_thrash"], ["sync", "mcd_base"], seeds=[1],
        scale=SCALE, name="interrupted",
    )
    threads = set(threading.enumerate())
    announced = []

    def interrupt_on_second(cell, outcome):
        announced.append(cell)
        if len(announced) == 2:
            raise KeyboardInterrupt

    with caplog.at_level(logging.INFO, logger="repro.experiments.orchestrator"):
        with pytest.raises(KeyboardInterrupt):
            Orchestrator(
                backend=backend, workers=2, batch=1, scale=SCALE,
                cache_dir=tmp_path, use_cache=False,
                on_outcome=interrupt_on_second,
            ).run(suite)

    assert len(announced) == 2  # nothing is announced after the interrupt
    assert any(
        "interrupted after" in record.getMessage()
        for record in caplog.records
        if record.levelno == logging.WARNING
    )
    assert _no_sweep_threads_outlive(threads)
    assert multiprocessing.active_children() == []


def test_process_workers_run_every_cell_in_one_context(tmp_path, monkeypatch):
    # Forked workers inherit the patched constructor; each appends its
    # pid to a shared file (appends this short are atomic).
    constructions = tmp_path / "constructions"
    init = ExecutionContext.__init__

    def recording_init(self, *args, **kwargs):
        with open(constructions, "a") as out:
            out.write(f"{os.getpid()}\n")
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionContext, "__init__", recording_init)
    suite = Suite(
        ["adpcm", "gsm", "phase_thrash"], ["sync", "mcd_base"], seeds=[1, 2],
        scale=SCALE, name="contexts",
    )
    results = Orchestrator(
        backend="process", workers=2, batch=1, scale=SCALE,
        cache_dir=tmp_path / "cache", use_cache=False,
    ).run(suite)

    assert all(o.ok for o in results.outcomes)
    pids = constructions.read_text().split()
    # One context per worker for all 12 cells; none in this process.
    assert len(pids) == len(set(pids)) == 2
    assert str(os.getpid()) not in pids
