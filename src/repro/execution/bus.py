"""A thread-safe publish/subscribe channel for :mod:`~repro.execution.events`.

One :class:`EventBus` per execution scope (a campaign, a daemon).
Publishers are orchestrator loops and worker threads; subscribers are
whatever wants to watch: the campaign journal checkpoint, the CLI
progress printer, the daemon's per-job NDJSON buffers.

Delivery contract
-----------------
* ``publish`` calls every matching subscriber **synchronously in the
  publishing thread**, in subscription order.  There is no queue: when
  ``publish`` returns, every subscriber has seen the event.  This is
  what lets the campaign journal fsync a cell *before* the orchestrator
  announces the next one.
* A subscriber exception **propagates to the publisher**.  That is a
  feature, not a hazard: it is exactly how a checkpointing subscriber
  cancels a sweep (the orchestrator treats it like Ctrl-C — backends
  cancel, shared memory unlinks, the exception keeps propagating).
  Subscribers that must never disturb execution (progress printers,
  stream buffers) catch their own errors.
* Subscribe/unsubscribe are safe from any thread, including from
  inside a running handler; the in-flight ``publish`` keeps using the
  snapshot it started with.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.execution.events import JobEvent

#: A subscriber: any callable taking one event.
Handler = Callable[[JobEvent], None]


class EventBus:
    """Synchronous, thread-safe event fan-out (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: subscription order is delivery order.
        self._subscribers: list[tuple[Handler, str | None]] = []

    def subscribe(self, handler: Handler, job: str | None = None) -> Handler:
        """Register ``handler`` for every event (or one job's events).

        ``job`` filters delivery to events whose ``.job`` matches.
        Returns the handler, so ``bus.subscribe(fn)`` can be used as an
        expression; the same callable can only be registered once
        (re-subscribing moves nothing and raises nothing — it is a
        no-op when the (handler, job) pair is already present).
        """
        with self._lock:
            if (handler, job) not in self._subscribers:
                self._subscribers.append((handler, job))
        return handler

    def unsubscribe(self, handler: Handler, job: str | None = None) -> bool:
        """Remove one subscription; returns whether it was present."""
        with self._lock:
            try:
                self._subscribers.remove((handler, job))
                return True
            except ValueError:
                return False

    @contextmanager
    def subscribed(self, handler: Handler, job: str | None = None) -> Iterator[Handler]:
        """Scoped subscription: unsubscribes however the block exits."""
        self.subscribe(handler, job=job)
        try:
            yield handler
        finally:
            self.unsubscribe(handler, job=job)

    def publish(self, event: JobEvent) -> None:
        """Deliver ``event`` to every matching subscriber, in order.

        Handlers run outside the bus lock (they may subscribe,
        unsubscribe, or publish); an exception from a handler aborts
        delivery to later subscribers and propagates to the caller —
        the documented cancellation lever.
        """
        with self._lock:
            subscribers = list(self._subscribers)
        for handler, job in subscribers:
            if job is None or job == event.job:
                handler(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._subscribers)
