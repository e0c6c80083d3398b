"""Small shared concurrency primitives.

The free-threaded sweep engine puts thread-safe, size-bounded memo
fronts in several layers (the result cache, the trace store).  They
all want the same structure — a lock around an LRU-ordered dict —
so it lives here once instead of being hand-rolled per site.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LockedLRU:
    """A thread-safe LRU mapping bounded to ``entries`` items.

    ``entries == 0`` disables the structure entirely: ``get`` always
    misses and ``put`` is a no-op, so callers can keep one unguarded
    code path for the memo-on and memo-off configurations.  Values are
    shared by reference — callers must treat them as read-only.
    """

    def __init__(self, entries: int) -> None:
        self.entries = max(0, entries)
        self._lock = threading.Lock()
        self._items: OrderedDict = OrderedDict()

    def get(self, key):
        """The value under ``key`` (refreshing recency), or None."""
        if not self.entries:
            return None
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key, value) -> int:
        """Insert ``key`` as most-recent; returns how many oldest it evicted."""
        if not self.entries:
            return 0
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            evicted = 0
            while len(self._items) > self.entries:
                self._items.popitem(last=False)
                evicted += 1
            return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class SingleFlight:
    """At-most-one concurrent build per key; late callers share the result.

    The building blocks the sweep engine deduplicates — trace
    generation, profiling runs, seed-free runs — are exactly the
    expensive work a cache exists to avoid, so a cache miss under
    concurrency must not fan out into N identical builds.
    :meth:`run` arbitrates: the first caller for a key builds, everyone
    else waits on an event and re-checks the caller's cache.  A failed
    build wakes the waiters and lets the next one take over (the
    exception propagates to the failed builder only).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: dict = {}

    def run(self, key, lookup, build, publish):
        """Return ``lookup()``'s value, building it at most once.

        ``lookup()`` and ``publish(value)`` execute under the internal
        lock — they must be quick, non-reentrant cache accesses
        returning/storing a non-None value.  ``build()`` executes
        outside the lock.
        """
        while True:
            with self._lock:
                value = lookup()
                if value is not None:
                    return value
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Event()
                    break
            pending.wait()
        try:
            value = build()
        except BaseException:
            with self._lock:
                del self._pending[key]
            pending.set()
            raise
        with self._lock:
            publish(value)
            del self._pending[key]
        pending.set()
        return value


class FlightMemo:
    """A thread-safe, LRU-bounded memo whose misses are single-flighted.

    A :class:`LockedLRU` behind a :class:`SingleFlight`: concurrent
    callers for one missing key wait on a single build and share its
    value.  ``hits``, ``misses`` and ``evictions`` count lookups
    served, builds kept and entries the bound pushed out; they change
    only under the flight's lock.
    """

    def __init__(self, entries: int) -> None:
        self._items = LockedLRU(entries)
        self._flight = SingleFlight()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _lookup(self, key):
        value = self._items.get(key)
        if value is not None:
            self.hits += 1
        return value

    def _publish(self, key, value) -> None:
        self.evictions += self._items.put(key, value)
        self.misses += 1

    def get_or_build(self, key, build):
        """The value under ``key``, built by ``build()`` at most once at a time."""
        return self._flight.run(
            key, lambda: self._lookup(key), build,
            lambda value: self._publish(key, value),
        )
