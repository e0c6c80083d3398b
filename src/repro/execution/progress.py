"""Console progress rendering as a plain event subscriber.

Progress display is just another :class:`~repro.execution.bus.EventBus`
subscriber: :class:`ConsoleProgress` prints one line per completed
cell, and never raises — display must not cancel a sweep the way a
deliberately raising subscriber does.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.execution.events import CellFailed, CellFinished, JobEvent


class ConsoleProgress:
    """Prints an event stream as human progress lines.

    Subscribe the instance itself (``bus.subscribe(progress)``); it is
    a callable handler.  Tracks its own completion counter, so it
    renders correctly from any single job's stream regardless of the
    matrix's completion order.
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._done = 0

    def __call__(self, event: JobEvent) -> None:
        try:
            self._render(event)
        except Exception:  # noqa: BLE001 - display must never cancel a run
            pass

    def _render(self, event: JobEvent) -> None:
        if isinstance(event, (CellFinished, CellFailed)):
            self._done += 1
            status = "ok" if isinstance(event, CellFinished) else "FAILED"
            run_id = event.outcome.scenario.run_id if event.outcome else "?"
            print(
                f"[{self._done}/{event.total}] {run_id} {status}",
                file=self.stream,
            )
            self.stream.flush()
