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
        #: Public: also guards the caller's cache structure (callers
        #: may take it for maintenance operations like clear()).
        self.lock = threading.Lock()
        self._pending: dict = {}

    def run(self, key, lookup, build, publish) -> tuple[object, bool]:
        """Return ``lookup()``'s value, building it at most once.

        ``lookup()`` and ``publish(value)`` execute under the internal
        lock — they must be quick, non-reentrant cache accesses
        returning/storing a non-None value.  ``build()`` executes
        outside the lock.  Returns ``(value, hit)`` where ``hit`` is
        True when the value came from ``lookup`` (possibly after
        waiting on another caller's build).
        """
        while True:
            with self.lock:
                value = lookup()
                if value is not None:
                    return value, True
                pending = self._pending.get(key)
                if pending is None:
                    self._pending[key] = threading.Event()
                    break
            pending.wait()
        try:
            value = build()
        except BaseException:
            self.release(key)
            raise
        self.release(key, lambda: publish(value))
        return value, False

    def claim(self, key, lookup) -> tuple[object, bool]:
        """The non-blocking half of :meth:`run`, for callers that build
        several keys in one go.

        Returns ``(lookup(), False)`` on a hit, ``(None, True)`` when
        the caller now owns ``key``'s build and must :meth:`release`
        it, and ``(None, False)`` while another caller builds it (a
        later :meth:`run` waits for that build).
        """
        with self.lock:
            value = lookup()
            if value is not None:
                return value, False
            if key in self._pending:
                return None, False
            self._pending[key] = threading.Event()
            return None, True

    def release(self, key, publish=None) -> None:
        """End an owned build: ``publish()`` under the lock, wake the waiters.

        ``publish`` None means the build failed: waiters wake, find
        nothing, and the next one builds.
        """
        with self.lock:
            if publish is not None:
                publish()
            pending = self._pending.pop(key)
        pending.set()


class FlightMemo:
    """A thread-safe, LRU-bounded memo whose misses are single-flighted.

    A :class:`LockedLRU` behind a :class:`SingleFlight`: concurrent
    callers for one missing key wait on a single build and share its
    value.  :meth:`claim` and :meth:`release` let a caller that builds
    several keys at once (a batch of runs) own each key's build too.
    ``hits``, ``misses`` and ``evictions`` count lookups served, builds
    kept and entries the bound pushed out; they change only under the
    flight's lock.
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
        value, _ = self._flight.run(
            key, lambda: self._lookup(key), build,
            lambda value: self._publish(key, value),
        )
        return value

    def claim(self, key) -> tuple[object, bool]:
        """:meth:`SingleFlight.claim` against this memo."""
        return self._flight.claim(key, lambda: self._lookup(key))

    def release(self, key, value=None) -> None:
        """End a claimed build, keeping ``value`` (None: the build failed)."""
        self._flight.release(
            key, None if value is None else lambda: self._publish(key, value)
        )
