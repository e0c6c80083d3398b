"""Typed lifecycle events of an executing job.

Every stage of a job's life — submission, per-cell progress, and its
terminal state — is one frozen dataclass here.  Events are the *only*
seam between the execution core and its consumers: the orchestrator
publishes them on an :class:`~repro.execution.bus.EventBus`, and the
campaign journal, the CLI progress printer, and the ``repro serve``
NDJSON streams are all plain subscribers.  There is no other way to
watch a sweep.

Design constraints:

* **Frozen** — an event is a fact; subscribers on other threads must
  never watch one mutate.
* **JSON round-trip** — :meth:`JobEvent.to_dict` /
  :func:`event_from_dict` are exact inverses, so an event can cross an
  HTTP boundary (the daemon's NDJSON stream) or land in a journal and
  be reconstructed losslessly.  ``RunOutcome`` payloads ride their own
  established ``to_dict``/``from_dict``.
* **Self-identifying** — the dict form carries an ``"event"`` tag, so
  heterogeneous streams (one NDJSON line per event) need no framing
  beyond the line itself.

``cell`` indices address positions in the *submitted* matrix, in
matrix order; ``total`` repeats the matrix size on every event so a
subscriber can render progress from any single event without having
seen the submission.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ExperimentError
from repro.experiments.results import RunOutcome

#: ``"event"`` tag -> event class, populated by ``_register``.
EVENT_TYPES: dict[str, type["JobEvent"]] = {}


def _register(cls: type["JobEvent"]) -> type["JobEvent"]:
    """Class decorator: index an event type by its ``kind`` tag."""
    EVENT_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class JobEvent:
    """Base event: everything that happens happens to a named job."""

    job: str

    #: The ``"event"`` tag of the serialized form (class attribute).
    kind = "event"

    def to_dict(self) -> dict:
        """JSON-native dict form, tagged with ``"event": kind``."""
        data: dict = {"event": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, RunOutcome):
                value = value.to_dict()
            data[f.name] = value
        return data


@_register
@dataclass(frozen=True)
class JobSubmitted(JobEvent):
    """A job entered the system: ``total`` cells under ``label``."""

    label: str = ""
    total: int = 0

    kind = "job_submitted"


@_register
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

    kind = "cell_started"


@_register
@dataclass(frozen=True)
class CellFinished(JobEvent):
    """Cell ``cell`` completed successfully; ``outcome`` has the record."""

    cell: int = 0
    total: int = 0
    outcome: RunOutcome | None = None

    kind = "cell_finished"


@_register
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

    kind = "cell_failed"


@_register
@dataclass(frozen=True)
class JobCancelled(JobEvent):
    """The job's cancellation token fired; ``done`` cells had completed.

    Cells already announced stay announced (and journalled); the rest
    were never executed.  This is a *terminal* event: no further events
    follow for the job.
    """

    done: int = 0
    total: int = 0

    kind = "job_cancelled"


@_register
@dataclass(frozen=True)
class JobFinished(JobEvent):
    """The job ran to completion.  Terminal.

    ``error`` is None for a normally completed matrix (individual cell
    failures are :class:`CellFailed` events and count in ``failed``);
    it carries a traceback only when the job itself died outside any
    cell (e.g. a backend misconfiguration surfacing at run time).
    """

    total: int = 0
    succeeded: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    error: str | None = None

    kind = "job_finished"


#: Terminal event kinds: nothing follows one of these on a job stream.
TERMINAL_EVENTS = (JobCancelled.kind, JobFinished.kind)


def event_from_dict(data: dict) -> JobEvent:
    """Rebuild an event from its :meth:`JobEvent.to_dict` form.

    Raises :class:`~repro.errors.ExperimentError` for unknown tags or
    malformed payloads, so stream consumers fail loudly instead of
    guessing.
    """
    if not isinstance(data, dict):
        raise ExperimentError(f"event payload must be a dict, got {type(data).__name__}")
    kind = data.get("event")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ExperimentError(
            f"unknown event tag {kind!r}; expected one of {sorted(EVENT_TYPES)}"
        )
    kwargs = {}
    try:
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "outcome" and value is not None:
                value = RunOutcome.from_dict(value)
            kwargs[f.name] = value
        return cls(**kwargs)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ExperimentError(f"malformed {kind!r} event payload: {exc}") from None
