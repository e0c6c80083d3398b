"""The event-driven execution core.

This package is the seam between *running* a scenario matrix and
*watching* it run: typed per-cell events (:mod:`.events`), a
thread-safe bus (:mod:`.bus`), cooperative cancellation
(:mod:`.cancel`) and console rendering (:mod:`.progress`).
"""

from repro.execution.bus import EventBus, Handler
from repro.execution.cancel import CancelToken, ExecutionCancelled
from repro.execution.events import CellFailed, CellFinished, CellStarted, JobEvent
from repro.execution.progress import ConsoleProgress

__all__ = [
    "CancelToken",
    "CellFailed",
    "CellFinished",
    "CellStarted",
    "ConsoleProgress",
    "EventBus",
    "ExecutionCancelled",
    "Handler",
    "JobEvent",
]
