"""Typed lifecycle events of an executing sweep.

Every per-cell stage of a sweep — a cell starting, finishing or
failing — is one frozen dataclass here.  Events are the *only* seam
between the execution core and its consumers: the orchestrator
publishes them on an :class:`~repro.execution.bus.EventBus`, and the
campaign journal and the CLI progress printer are plain subscribers.
There is no other way to watch a sweep.

Events are **frozen**: an event is a fact, and subscribers on other
threads must never watch one mutate.

``cell`` indices address positions in the *submitted* matrix, in
matrix order; ``total`` repeats the matrix size on every event so a
subscriber can render progress from any single event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.results import RunOutcome


@dataclass(frozen=True)
class JobEvent:
    """Base event: everything that happens happens to a named job."""

    job: str


@dataclass(frozen=True)
class CellStarted(JobEvent):
    """Cell ``cell`` began executing (best-effort per backend).

    The serial and thread backends announce the start from the worker
    that picks the cell up; the process backend cannot observe its
    workers' starts, so it announces start and finish together when the
    result arrives.  Per cell, ``CellStarted`` always precedes the
    finish event — the ordering subscribers may rely on.
    """

    cell: int = 0
    total: int = 0
    run_id: str = ""


@dataclass(frozen=True)
class CellFinished(JobEvent):
    """Cell ``cell`` completed successfully; ``outcome`` has the record."""

    cell: int = 0
    total: int = 0
    outcome: RunOutcome | None = None


@dataclass(frozen=True)
class CellFailed(JobEvent):
    """Cell ``cell`` failed; ``outcome.error`` carries the traceback.

    Failure is error-isolated: the rest of the matrix continues, and
    the failed cell's outcome is a first-class result, not an
    exception.
    """

    cell: int = 0
    total: int = 0
    outcome: RunOutcome | None = None
