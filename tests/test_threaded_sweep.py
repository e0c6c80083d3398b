"""Free-threaded sweep engine: determinism, reentrancy, shared caches.

The thread-pool backend only exists because three layers promise to be
concurrency-safe: the C hot loop releases the GIL over reentrant
per-call state, the compiled-trace layer shares instances across
threads (its numpy arrays are read-only), and the result cache front
is write-through.  These tests hold each layer to
that promise:

* a three-backend differential suite (serial / process / thread) over
  one scenario matrix, asserting byte-identical result sets;
* an N-thread stress test hammering one shared ``CompiledTrace`` with
  closed-loop runs, comparing summaries, controller diagnostics and
  regulator statistics against the serial reference;
* unit coverage for the process-wide trace cache
  (single-flight, LRU bound), the ``CacheStore`` memory front,
  ``workers='auto'`` resolution, backend selection, and the
  compiler-identity build stamp.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import ExperimentError
from repro.experiments import Orchestrator, Suite
from repro.experiments.cache import CacheStore
from repro.experiments.executor import default_workers, parse_workers
from repro.experiments.orchestrator import default_backend
from repro.metrics.summary import summarize
from repro.sim.engine import TraceCache, compiled_trace_for, scaled_mcd_config
from repro.uarch import native
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import get_benchmark

SCALE = 0.05


# ---------------------------------------------------------------------------
# Three-backend differential suite
# ---------------------------------------------------------------------------


class TestBackendDeterminism:
    """serial == process == thread, byte for byte, per scenario."""

    @pytest.fixture(scope="class")
    def suite(self):
        return Suite(
            benchmarks=["adpcm", "gsm"],
            configurations=["sync", "mcd_base", "attack_decay"],
            seeds=[1],
            scale=SCALE,
            name="backend-differential",
        )

    @pytest.fixture(scope="class")
    def serial_reference(self, suite, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("serial")
        return Orchestrator(
            workers=1, backend="serial", cache_dir=cache_dir, use_cache=False
        ).run(suite)

    @pytest.mark.parametrize("backend,workers", [("thread", 4), ("process", 2)])
    def test_backend_matches_serial(
        self, suite, serial_reference, backend, workers, tmp_path
    ):
        results = Orchestrator(
            workers=workers, backend=backend, cache_dir=tmp_path, use_cache=False
        ).run(suite)
        assert not results.errors, [o.error for o in results.errors]
        # to_dict covers scenarios, order and every RunSummary field.
        assert results.to_dict() == serial_reference.to_dict()

    def test_thread_backend_isolates_failures(self, tmp_path):
        from repro.experiments import CONFIGURATIONS, Scenario, register_configuration

        @register_configuration("thread_explode")
        def exploding(ctx, benchmark, scale, seed):
            """Test entry that always fails."""
            raise RuntimeError("injected thread failure")

        try:
            scenarios = [
                Scenario("adpcm", "sync", scale=SCALE),
                Scenario("adpcm", "thread_explode", scale=SCALE),
                Scenario("gsm", "sync", scale=SCALE),
            ]
            results = Orchestrator(
                workers=3, backend="thread", cache_dir=tmp_path, use_cache=False
            ).run(scenarios)
        finally:
            CONFIGURATIONS.unregister("thread_explode")
        assert len(results) == 3
        assert len(results.errors) == 1
        assert "injected thread failure" in results.errors[0].error
        assert results.get("adpcm", "sync").summary.instructions > 0
        assert results.get("gsm", "sync").summary.instructions > 0


# ---------------------------------------------------------------------------
# Shared-trace reentrancy stress
# ---------------------------------------------------------------------------


def _closed_loop_fingerprint(trace, seed: int = 1):
    """One warmed closed-loop run over ``trace``; full observable state."""
    bench = get_benchmark("adpcm")
    controller = AttackDecayController(SCALED_OPERATING_POINT)
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=controller,
        options=CoreOptions(
            mcd=True,
            seed=seed,
            interval_instructions=bench.interval_instructions,
        ),
    )
    core.warm_up(trace, limit=trace.total_instructions)
    result = core.run()
    return (
        summarize(result),
        {d: dataclasses.asdict(s) for d, s in controller.states.items()},
        [dataclasses.asdict(r.stats) for r in core.regulators],
    )


class TestSharedTraceStress:
    """N threads hammering one CompiledTrace stay byte-identical."""

    @pytest.fixture(scope="class")
    def shared_trace(self):
        bench = get_benchmark("adpcm")
        return compiled_trace_for(bench, scale=SCALE)

    @pytest.mark.parametrize(
        "path,threads",
        [
            pytest.param(
                "native",
                8,
                marks=pytest.mark.skipif(
                    native.load_hotpath() is None, reason="no native loop"
                ),
            ),
        ],
    )
    def test_concurrent_runs_match_serial(self, shared_trace, path, threads):
        reference = _closed_loop_fingerprint(shared_trace)
        outcomes: list = [None] * threads
        barrier = threading.Barrier(threads)

        def worker(i: int) -> None:
            try:
                barrier.wait()  # maximise overlap
                outcomes[i] = _closed_loop_fingerprint(shared_trace)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                outcomes[i] = exc

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        for i, outcome in enumerate(outcomes):
            assert not isinstance(outcome, BaseException), (
                f"thread {i} raised: {outcome!r}"
            )
            assert outcome == reference, f"thread {i} diverged on {path} path"


# ---------------------------------------------------------------------------
# Process-wide trace cache
# ---------------------------------------------------------------------------


class TestTraceCache:
    def test_single_flight_builds_once(self):
        cache = TraceCache(entries=4)
        builds = []
        gate = threading.Event()

        def build():
            builds.append(threading.current_thread().name)
            gate.wait(timeout=5)  # hold every waiter on the event path
            return "trace"

        results = [None] * 6

        def worker(i: int) -> None:
            if i == 5:
                gate.set()
            results[i] = cache.get_or_build(("k", 6), build)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in pool:
            thread.start()
        gate.set()
        for thread in pool:
            thread.join()
        assert builds and len(builds) == 1
        assert results == ["trace"] * 6
        assert cache.hits == 5 and cache.misses == 1

    def test_lru_bound_evicts_oldest(self):
        cache = TraceCache(entries=2)
        for i in range(3):
            cache.get_or_build(("k", i), lambda i=i: f"t{i}")
        assert cache.evictions == 1
        # Oldest key rebuilt, newest two served from cache.
        rebuilt = []
        cache.get_or_build(("k", 0), lambda: rebuilt.append(1) or "t0")
        assert rebuilt == [1]
        cache.get_or_build(("k", 2), lambda: pytest.fail("should be cached"))

    def test_failed_build_releases_waiters(self):
        cache = TraceCache(entries=2)

        def boom():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build(("k", 6), boom)
        # The key is buildable again (no stuck in-flight marker).
        assert cache.get_or_build(("k", 6), lambda: "ok") == "ok"

    def test_malformed_env_capacity_rejected(self, monkeypatch):
        from repro.sim.engine import trace_cache_entries

        monkeypatch.setenv("REPRO_TRACE_CACHE", "plenty")
        with pytest.raises(ExperimentError, match="plenty"):
            trace_cache_entries()

    def test_capacity_resolves_from_the_environment_on_first_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "plenty")
        cache = TraceCache()  # constructing reads no environment
        with pytest.raises(ExperimentError, match="plenty"):
            cache.get_or_build(("k", 0), lambda: "t0")
        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        for i in range(3):
            cache.get_or_build(("k", i), lambda i=i: f"t{i}")
        assert cache.evictions == 1 and len(cache._items) == 2

    def test_default_capacity_holds_the_catalog(self, monkeypatch):
        """Table 6's Global searches cycle every benchmark once per step."""
        from repro.sim.engine import trace_cache_entries
        from repro.workloads.catalog import BENCHMARKS

        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert trace_cache_entries() >= len(BENCHMARKS)
        for raw, entries in (("0", 1), ("-3", 1), ("5", 5)):
            monkeypatch.setenv("REPRO_TRACE_CACHE", raw)
            assert trace_cache_entries() == entries


# ---------------------------------------------------------------------------
# Store-level memos
# ---------------------------------------------------------------------------


class TestCacheStoreMemoryFront:
    def test_write_through_serves_from_memory(self, tmp_path):
        store = CacheStore(tmp_path, memory_entries=4)
        key = store.key({"scenario": "a"})
        store.store(key, {"value": 42})
        assert (tmp_path / f"{key}.json").exists()  # still persisted
        (tmp_path / f"{key}.json").unlink()
        assert store.load(key) == {"value": 42}

    def test_front_is_bounded(self, tmp_path):
        store = CacheStore(tmp_path, memory_entries=2)
        keys = [store.key({"scenario": i}) for i in range(3)]
        for key, i in zip(keys, range(3)):
            store.store(key, {"value": i})
        for key in keys:
            (tmp_path / f"{key}.json").unlink()
        assert store.load(keys[0]) is None  # evicted, disk gone -> miss
        assert store.load(keys[1]) == {"value": 1}
        assert store.load(keys[2]) == {"value": 2}

    def test_disk_hit_primes_the_front(self, tmp_path):
        seeded = CacheStore(tmp_path)
        key = seeded.key({"scenario": "b"})
        seeded.store(key, {"value": 7})
        fronted = CacheStore(tmp_path, memory_entries=4)
        assert fronted.load(key) == {"value": 7}  # from disk
        (tmp_path / f"{key}.json").unlink()
        assert fronted.load(key) == {"value": 7}  # from memory

    def test_default_store_has_no_front(self, tmp_path):
        store = CacheStore(tmp_path)
        key = store.key({"scenario": "c"})
        store.store(key, {"value": 1})
        (tmp_path / f"{key}.json").unlink()
        assert store.load(key) is None


# ---------------------------------------------------------------------------
# Worker/backend resolution
# ---------------------------------------------------------------------------


class TestWorkerResolution:
    def test_parse_workers_accepts_auto_and_ints(self):
        import os

        assert parse_workers(None) == 1
        assert parse_workers(3) == 3
        assert parse_workers("3") == 3
        assert parse_workers("auto") == max(1, os.cpu_count() or 1)

    def test_parse_workers_rejects_garbage(self):
        with pytest.raises(ExperimentError, match="plenty"):
            parse_workers("plenty", "REPRO_WORKERS")

    def test_repro_workers_auto(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert default_workers() == max(1, os.cpu_count() or 1)

    def test_orchestrator_accepts_auto(self):
        import os

        orchestrator = Orchestrator(workers="auto")
        assert orchestrator.workers == max(1, os.cpu_count() or 1)

    def test_cli_accepts_auto_workers(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--benchmarks",
                "adpcm",
                "--configurations",
                "sync",
                "--workers",
                "auto",
                "--backend",
                "serial",
                "--scale",
                "0.02",
                "--no-cache",
            ]
        )
        assert rc == 0
        assert "adpcm" in capsys.readouterr().out


class TestBackendSelection:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="warp"):
            Orchestrator(backend="warp")

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "hyperdrive")
        with pytest.raises(ExperimentError, match="hyperdrive"):
            default_backend()

    def test_serial_degenerations(self):
        orchestrator = Orchestrator(workers=4, backend="thread")
        assert orchestrator._resolve_backend(total=1) == "serial"
        assert Orchestrator(workers=1, backend="thread")._resolve_backend(4) == "serial"
        assert Orchestrator(workers=4, backend="serial")._resolve_backend(4) == "serial"

    def test_auto_with_start_method_means_processes(self):
        orchestrator = Orchestrator(workers=4, start_method="spawn")
        assert orchestrator._resolve_backend(total=4) == "process"

    @pytest.mark.skipif(native.load_hotpath() is None, reason="no native loop")
    def test_auto_picks_threads_with_native_loop(self):
        assert Orchestrator(workers=4)._resolve_backend(total=4) == "thread"

    def test_auto_falls_back_to_processes_without_native(self, monkeypatch):
        monkeypatch.setattr(native, "_cached", None)
        monkeypatch.setattr(native, "_attempted", True)
        assert Orchestrator(workers=4)._resolve_backend(total=4) == "process"


# ---------------------------------------------------------------------------
# Build-stamp compiler identity
# ---------------------------------------------------------------------------


class TestBuildStamp:
    def test_stamp_tracks_compiler_identity(self, monkeypatch):
        identities = {"ccA": b"/usr/bin/ccA\nccA 1.0", "ccB": b"/usr/bin/ccB\nccB 2.0"}
        monkeypatch.setattr(
            native, "_compiler_identity", lambda compiler: identities[compiler]
        )
        assert native._build_stamp("ccA") != native._build_stamp("ccB")
        assert native._build_stamp("ccA") == native._build_stamp("ccA")

    def test_stamp_tracks_flags_numpy_version_and_library(self, monkeypatch, tmp_path):
        import numpy as np

        monkeypatch.setattr(native, "_compiler_identity", lambda compiler: b"cc 1.0")
        library = tmp_path / "libnpyrandom.a"
        library.write_bytes(b"numpy's distributions")
        monkeypatch.setattr(native, "_npyrandom_library", lambda: library)
        base = native._build_stamp("cc")
        changes = {
            "flags": lambda m: m.setattr(native, "_FLAGS", (*native._FLAGS, "-DNDEBUG")),
            "numpy": lambda m: m.setattr(np, "__version__", np.__version__ + ".post1"),
            "library": lambda m: library.write_bytes(b"numpy's distributions, rebuilt"),
        }
        for name, change in changes.items():
            with monkeypatch.context() as m:
                change(m)
                assert native._build_stamp("cc") != base, name
            library.write_bytes(b"numpy's distributions")
            assert native._build_stamp("cc") == base, name

    def test_identity_includes_resolved_path_and_banner(self):
        compiler = native._resolve_compiler()
        if compiler is None:
            pytest.skip("no C compiler on this host")
        identity = native._compiler_identity(compiler)
        import shutil

        resolved = shutil.which(compiler) or compiler
        assert identity.startswith(resolved.encode())
        assert len(identity) > len(resolved) + 1  # --version banner present
