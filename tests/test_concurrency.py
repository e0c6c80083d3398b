"""Direct unit tests for the shared concurrency primitives.

:mod:`repro.concurrency` is load-bearing under every backend (result
memory fronts, profile memoisation, and now scenario dedup), but until
now was only exercised through its consumers.  These tests pin the
contracts those consumers rely on: LRU recency/eviction order, the
``entries == 0`` disable path, and single-flight arbitration including
the failed-build handoff and the claim/release halves a batch uses.
"""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import LockedLRU, SingleFlight


class TestLockedLRU:
    def test_get_refreshes_recency_and_put_evicts_oldest(self):
        lru = LockedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh: "b" is now the oldest
        lru.put("c", 3)
        assert lru.get("b") is None  # evicted
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert len(lru) == 2

    def test_put_overwrites_in_place(self):
        lru = LockedLRU(2)
        lru.put("a", 1)
        lru.put("a", 2)
        assert lru.get("a") == 2
        assert len(lru) == 1

    def test_zero_entries_disables_everything(self):
        lru = LockedLRU(0)
        lru.put("a", 1)
        assert lru.get("a") is None
        assert len(lru) == 0

    def test_negative_entries_clamp_to_disabled(self):
        lru = LockedLRU(-3)
        assert lru.entries == 0
        lru.put("a", 1)
        assert lru.get("a") is None


class TestSingleFlight:
    def test_hit_skips_build(self):
        flight = SingleFlight()
        cache = {"k": "cached"}
        value, hit = flight.run(
            "k", lambda: cache.get("k"),
            lambda: pytest.fail("must not build on a hit"),
            lambda v: cache.__setitem__("k", v),
        )
        assert (value, hit) == ("cached", True)

    def test_concurrent_callers_build_exactly_once(self):
        flight = SingleFlight()
        cache: dict = {}
        builds = []
        build_entered = threading.Event()
        release_build = threading.Event()
        results = []

        def build():
            builds.append(threading.get_ident())
            build_entered.set()
            release_build.wait(10)
            return "built"

        def caller():
            value, hit = flight.run(
                "k", lambda: cache.get("k"), build,
                lambda v: cache.__setitem__("k", v),
            )
            results.append((value, hit))

        threads = [threading.Thread(target=caller) for _ in range(6)]
        threads[0].start()
        assert build_entered.wait(10)
        for t in threads[1:]:  # all of these must wait, not build
            t.start()
        release_build.set()
        for t in threads:
            t.join(10)
        assert len(builds) == 1
        assert sorted(r[0] for r in results) == ["built"] * 6
        # Exactly one caller reports a build; the waiters all hit.
        assert sorted(r[1] for r in results) == [False] + [True] * 5

    def test_failed_build_hands_off_to_a_waiter(self):
        flight = SingleFlight()
        cache: dict = {}
        attempts = []
        first_entered = threading.Event()
        release_first = threading.Event()
        outcomes: dict[str, object] = {}

        def build():
            attempts.append(threading.get_ident())
            if len(attempts) == 1:
                first_entered.set()
                release_first.wait(10)
                raise RuntimeError("injected build failure")
            return "second-try"

        def first():
            try:
                flight.run(
                    "k", lambda: cache.get("k"), build,
                    lambda v: cache.__setitem__("k", v),
                )
            except RuntimeError as exc:
                outcomes["first"] = exc

        def second():
            outcomes["second"] = flight.run(
                "k", lambda: cache.get("k"), build,
                lambda v: cache.__setitem__("k", v),
            )

        t1 = threading.Thread(target=first)
        t1.start()
        assert first_entered.wait(10)
        t2 = threading.Thread(target=second)
        t2.start()
        release_first.set()
        t1.join(10)
        t2.join(10)
        # The failure propagated to the failed builder only; the waiter
        # woke up, took over the build, and published.
        assert isinstance(outcomes["first"], RuntimeError)
        assert outcomes["second"] == ("second-try", False)
        assert cache["k"] == "second-try"
        assert len(attempts) == 2

    def test_distinct_keys_do_not_serialise(self):
        flight = SingleFlight()
        cache: dict = {}
        a_entered = threading.Event()
        release_a = threading.Event()

        def build_a():
            a_entered.set()
            release_a.wait(10)
            return "a"

        t = threading.Thread(
            target=flight.run,
            args=("a", lambda: cache.get("a"), build_a, lambda v: cache.__setitem__("a", v)),
        )
        t.start()
        assert a_entered.wait(10)
        # While "a" is mid-build, "b" proceeds immediately.
        value, hit = flight.run(
            "b", lambda: cache.get("b"), lambda: "b",
            lambda v: cache.__setitem__("b", v),
        )
        assert (value, hit) == ("b", False)
        release_a.set()
        t.join(10)
        assert cache == {"a": "a", "b": "b"}

    @pytest.mark.parametrize("published", [True, False], ids=["published", "failed"])
    def test_claimed_build_holds_waiters_until_released(self, published):
        """A batch claims its keys, builds them together, then releases them."""
        flight = SingleFlight()
        cache: dict = {}

        def lookup():
            return cache.get("k")

        assert flight.claim("k", lookup) == (None, True)
        assert flight.claim("k", lookup) == (None, False)  # another caller builds it
        waiter_done = threading.Event()
        result = {}

        def waiter():
            result["value"] = flight.run(
                "k", lookup, lambda: "rebuilt", lambda v: cache.__setitem__("k", v)
            )
            waiter_done.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not waiter_done.wait(0.2)  # still waiting on the claim
        flight.release("k", (lambda: cache.__setitem__("k", "batched")) if published else None)
        thread.join(10)
        if published:
            assert result["value"] == ("batched", True)
        else:
            assert result["value"] == ("rebuilt", False)
        assert flight.claim("k", lookup) == (cache["k"], False)
