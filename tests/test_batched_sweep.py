"""Batched native sweeps: the differential harness.

The batch entry point (``_hotpath.run_batch``) only earns its keep if
it is invisible in the results: a batched sweep must be byte-identical
to the per-run paths on every backend, at every batch size, for every
controller variant.  This module locks that property down:

* an engine-level differential fuzz — a seeded matrix of specs
  (catalog + derived stressor benchmarks, both ``literal_listing``
  controller variants, mixed seeds) executed through
  :func:`~repro.sim.engine.run_specs_batch` at batch sizes {1, 3,
  matrix} and compared summary-for-summary against per-run
  :func:`~repro.sim.engine.run_spec` and the pure-Python reference
  interpreter (>= 30 compared cases in total);
* an orchestrator-level differential: serial / thread / process
  backends x batch sizes {1, 3, matrix, > matrix}, all equal to the
  serial per-run reference, with per-scenario error isolation inside a
  batch cell;
* process workers resolving their own traces through
  :func:`~repro.sim.engine.compiled_trace_for` — the owner builds
  none, workers fill, reuse and repair the disk store, inherit the
  owner's memo under fork and skip a disabled store — and every
  process sweep, finished, failed or stopped, joining its workers;
* unit coverage for ``parse_batch`` / ``default_batch``,
  ``Orchestrator._resolve_batch`` / ``_batch_cells`` edge cases
  (serial with an explicit batch, batch > matrix, the 32-cell cap),
  and CLI exit code 2 on malformed ``--batch`` / ``REPRO_BATCH``.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import random
import signal
from collections import Counter

import numpy as np
import pytest

from repro.config.algorithm import AttackDecayParams
from repro.control.attack_decay import AttackDecayController
from repro.errors import ExperimentError
from repro.experiments import Orchestrator, Scenario, Suite
from repro.experiments.executor import default_batch, parse_batch
from repro.metrics.summary import summarize
from repro.sim import engine
from repro.sim.engine import (
    SimulationSpec,
    TraceCache,
    compiled_trace_for,
    run_spec,
    run_specs_batch,
)
from repro.uarch import native
from repro.uarch.compiled_trace import TraceStore, from_columns, trace_columns
from repro.workloads.catalog import BenchmarkSpec, get_benchmark

needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)

SCALE = 0.05
#: Legend-labelled configuration names select the controller variant:
#: the trailing ``[literal]`` runs the paper's listing verbatim.
_LEGEND = AttackDecayParams().legend()
CONFIG_PLAIN = f"attack_decay[{_LEGEND}]"
CONFIG_LITERAL = f"attack_decay[{_LEGEND}][literal]"


def _summary_dict(result) -> dict:
    """A run's full observable surface, as plain data."""
    return dataclasses.asdict(summarize(result))


def _spec(benchmark: str, *, seed: int, literal: bool, controller: bool = True,
          path: str = "auto") -> SimulationSpec:
    """One closed-loop spec; controllers are built fresh per spec."""
    ctrl = (
        AttackDecayController(AttackDecayParams(), literal_listing=literal)
        if controller
        else None
    )
    return SimulationSpec(
        benchmark=benchmark,
        controller=ctrl,
        scale=SCALE,
        seed=seed,
        path=path,
    )


def _fuzz_matrix() -> list[dict]:
    """A seeded spec matrix: catalog + derived stressors, both
    ``literal_listing`` variants, mixed seeds and plain-MCD runs."""
    rng = random.Random(0x5EED)
    benchmarks = ["adpcm", "gsm", "phase_thrash", "adv_sawtooth"]
    matrix = []
    for index in range(10):
        matrix.append(
            {
                "benchmark": benchmarks[index % len(benchmarks)],
                "seed": rng.randint(1, 5),
                "literal": rng.random() < 0.5,
                "controller": index != 7,  # one uncontrolled MCD run
            }
        )
    # Guarantee both controller variants appear regardless of the draw.
    matrix[0]["literal"] = False
    matrix[1]["literal"] = True
    return matrix


# ---------------------------------------------------------------------------
# Engine-level differential fuzz
# ---------------------------------------------------------------------------


class TestBatchedEngineDifferential:
    """Batched native == per-run native == the reference interpreter."""

    @pytest.fixture(scope="class")
    def reference(self):
        return [
            _summary_dict(run_spec(_spec(**case))) for case in _fuzz_matrix()
        ]

    def test_batch_sizes_match_per_run(self, reference):
        cases = _fuzz_matrix()
        compared = 0
        for batch in (1, 3, len(cases)):
            summaries = []
            for start in range(0, len(cases), batch):
                cell = [_spec(**case) for case in cases[start : start + batch]]
                summaries.extend(
                    _summary_dict(result) for result in run_specs_batch(cell)
                )
            assert summaries == reference, f"batch size {batch} diverged"
            compared += len(summaries)
        # The harness promises a >= 30-case differential; hold it to that.
        assert compared >= 30

    def test_python_and_generator_paths_match(self, reference):
        # path="python" is the reference interpreter over the generator
        # trace.
        cases = _fuzz_matrix()
        for index in (0, 1, 7):  # plain, literal, uncontrolled
            python = _summary_dict(run_spec(_spec(**cases[index], path="python")))
            assert python == reference[index]

    def test_non_batchable_specs_fall_back(self):
        # Reference-interpreter specs cannot take the native batch; the
        # vector must silently run per-spec with identical results.
        cell = [
            _spec(benchmark="adpcm", seed=seed, literal=False, path="python")
            for seed in (1, 2)
        ]
        expected = [
            _summary_dict(run_spec(_spec(benchmark="adpcm", seed=seed,
                                         literal=False, path="python")))
            for seed in (1, 2)
        ]
        assert [_summary_dict(r) for r in run_specs_batch(cell)] == expected


# ---------------------------------------------------------------------------
# Orchestrator-level differential
# ---------------------------------------------------------------------------


class TestBatchedBackends:
    """Every backend x batch size reproduces the serial per-run sweep."""

    @pytest.fixture(scope="class")
    def suite(self):
        return Suite(
            benchmarks=["adpcm", "phase_thrash"],
            configurations=[CONFIG_PLAIN, CONFIG_LITERAL],
            seeds=[1, 2],
            scale=SCALE,
            name="batched-differential",
        )

    @pytest.fixture(scope="class")
    def serial_reference(self, suite, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("serial-ref")
        results = Orchestrator(
            workers=1, backend="serial", batch=1,
            cache_dir=cache_dir, use_cache=False,
        ).run(suite)
        assert not results.errors, [o.error for o in results.errors]
        return results.to_dict()

    @pytest.mark.parametrize(
        "backend,workers,batch",
        [
            ("serial", 1, 3),
            ("serial", 1, 8),
            ("thread", 2, 3),
            ("thread", 2, 8),
            ("process", 2, 1),
            ("process", 2, 3),
            ("process", 2, 99),  # batch > matrix clamps, still one cell set
        ],
    )
    def test_backend_batch_matches_serial(
        self, suite, serial_reference, backend, workers, batch, tmp_path,
    ):
        results = Orchestrator(
            workers=workers, backend=backend, batch=batch,
            cache_dir=tmp_path, use_cache=False,
        ).run(suite)
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == serial_reference

    def test_batch_cell_isolates_failures(self, suite, serial_reference, tmp_path):
        from repro.experiments import CONFIGURATIONS, register_configuration

        @register_configuration("batch_explode")
        def exploding(ctx, benchmark, scale, seed):
            """Test entry that always fails."""
            raise RuntimeError("injected batch failure")

        scenarios = list(suite.expand())
        poison = Scenario("adpcm", "batch_explode", scale=SCALE)
        try:
            results = Orchestrator(
                workers=2, backend="process", batch=3,
                cache_dir=tmp_path, use_cache=False,
            ).run([*scenarios, poison])
        finally:
            CONFIGURATIONS.unregister("batch_explode")
        assert len(results) == len(scenarios) + 1
        assert len(results.errors) == 1
        assert "injected batch failure" in results.errors[0].error
        healthy = results.to_dict()
        healthy["outcomes"] = healthy["outcomes"][:-1]
        reference = dict(serial_reference)
        assert healthy["outcomes"] == reference["outcomes"]


class _RaiseOnThirdInterval:
    """A per-interval Python controller that fails every run it joins."""

    instantaneous = False

    def begin(self, config, initial_mhz):
        self.intervals = 0

    def on_interval(self, snapshot):
        self.intervals += 1
        if self.intervals == 3:
            raise RuntimeError("injected third-interval failure")
        return {}


class TestBatchFallback:
    """A failing spec costs its cell one per-run re-run, not two."""

    @pytest.fixture
    def failing_at_interval(self):
        from repro.experiments import CONFIGURATIONS, register_configuration

        @register_configuration("raise_third")
        def raise_third(ctx, benchmark, scale, seed):
            """MCD run whose controller raises at its third interval."""
            return SimulationSpec(
                benchmark=benchmark, mcd=True, controller=_RaiseOnThirdInterval(),
                scale=scale, seed=seed,
            )

        yield "raise_third"
        CONFIGURATIONS.unregister("raise_third")

    @pytest.fixture
    def failing_at_build(self):
        from repro.experiments import CONFIGURATIONS, register_configuration

        @register_configuration("mcd_at_100")
        def mcd_at_100(ctx, benchmark, scale, seed):
            """MCD run at 100 MHz, below the frequency scale: its core build raises."""
            return SimulationSpec(
                benchmark=benchmark, mcd=True, global_frequency_mhz=100.0,
                scale=scale, seed=seed,
            )

        yield "mcd_at_100"
        CONFIGURATIONS.unregister("mcd_at_100")

    @pytest.mark.parametrize("failing", ["interval", "build", "global@100"])
    def test_failing_spec_falls_back_once(
        self, failing, failing_at_interval, failing_at_build, monkeypatch, caplog
    ):
        from repro.experiments.executor import ExecutionContext
        from repro.sim import engine

        # "interval" raises inside the simulation and "build" while its
        # core is built, both in the cell's batch vector.  global@100
        # raises while its core is built too, but as a seed-free run it
        # runs on its own, outside the vector.
        configuration = {
            "interval": failing_at_interval, "build": failing_at_build
        }.get(failing, failing)
        cell = [
            Scenario("adpcm", "sync", scale=SCALE),
            Scenario("adpcm", configuration, scale=SCALE),
            Scenario("adpcm", "mcd_base", scale=SCALE),
        ]
        # Every simulation attempt, batched or per run, builds its core
        # once: count builds per spec object.
        builds: list = []
        build_core = engine._build_core

        def counting_build(spec):
            builds.append(spec)
            return build_core(spec)

        monkeypatch.setattr(engine, "_build_core", counting_build)
        ctx = ExecutionContext(scale=SCALE, use_cache=False)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
            outcomes = ctx.run_batch(cell)
        monkeypatch.undo()

        # ``builds`` keeps every spec alive, so ids stay unique.
        per_spec = Counter(id(spec) for spec in builds)
        assert len(per_spec) == len(cell)
        assert max(per_spec.values()) <= 2
        assert [o.ok for o in outcomes] == [True, False, True]
        reference = ExecutionContext(scale=SCALE, use_cache=False)
        for scenario, outcome in zip(cell, outcomes):
            if outcome.ok:
                assert outcome.to_dict() == reference.run_isolated(scenario).to_dict()
        # The fallback is a logged fact, not a silent retry, and only a
        # failure inside the vector needs one.
        fell_back = any("per run" in r.message for r in caplog.records)
        assert fell_back == (failing != "global@100")


# ---------------------------------------------------------------------------
# Batch resolution and chunking
# ---------------------------------------------------------------------------


class TestBatchResolution:
    def test_parse_batch(self):
        assert parse_batch(None) is None
        assert parse_batch("auto") is None
        assert parse_batch(4) == 4
        assert parse_batch("4") == 4
        with pytest.raises(ExperimentError, match="malformed batch"):
            parse_batch("bogus")
        with pytest.raises(ExperimentError, match=">= 1"):
            parse_batch(0)
        with pytest.raises(ExperimentError, match="REPRO_BATCH"):
            parse_batch("-2", "REPRO_BATCH")

    def test_default_batch_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert default_batch() is None
        monkeypatch.setenv("REPRO_BATCH", "auto")
        assert default_batch() is None
        monkeypatch.setenv("REPRO_BATCH", "6")
        assert default_batch() == 6
        monkeypatch.setenv("REPRO_BATCH", "zero")
        with pytest.raises(ExperimentError, match="REPRO_BATCH"):
            default_batch()

    def test_resolve_batch_explicit_applies_everywhere(self):
        orch = Orchestrator(workers=1, batch=5)
        # A 1-worker orchestrator resolves to the serial backend, and
        # an explicit batch still applies there, clamped to the matrix.
        assert orch._resolve_backend(total=3) == "serial"
        assert orch._resolve_batch(3, "serial") == 3
        assert orch._resolve_batch(12, "serial") == 5
        assert orch._resolve_batch(0, "serial") == 1

    def test_resolve_batch_auto_per_backend(self):
        orch = Orchestrator(workers=4, batch="auto")
        assert orch._resolve_batch(12, "serial") == 1
        assert orch._resolve_batch(12, "thread") == 3
        assert orch._resolve_batch(12, "process") == 3
        assert orch._resolve_batch(2, "process") == 1
        # Huge matrices keep load-balancing granularity via the cap.
        assert orch._resolve_batch(100_000, "process") == 32

    def test_batch_cells_group_by_trace_identity(self):
        scenarios = [
            Scenario("adpcm", "sync", seed=1, scale=0.05),
            Scenario("gsm", "sync", seed=1, scale=0.05),
            Scenario("adpcm", "sync", seed=2, scale=0.05),
            Scenario("adpcm", "sync", seed=3, scale=0.1),
            Scenario("gsm", "sync", seed=2, scale=0.05),
            Scenario("adpcm", "sync", seed=4, scale=0.05),
        ]
        cells = Orchestrator._batch_cells(scenarios, 2)
        # Every index exactly once, matrix order within a cell.
        assert sorted(i for cell in cells for i in cell) == list(range(6))
        for cell in cells:
            assert len(cell) <= 2
            assert cell == sorted(cell)
            identities = {
                (scenarios[i].benchmark, scenarios[i].scale) for i in cell
            }
            assert len(identities) == 1, "cell mixes trace identities"
        # (adpcm, 0.05) has three members: two cells, one of them short.
        adpcm_cells = [
            cell for cell in cells
            if scenarios[cell[0]].benchmark == "adpcm"
            and scenarios[cell[0]].scale == 0.05
        ]
        assert [len(cell) for cell in adpcm_cells] == [2, 1]

    def test_batch_of_one_is_matrix_order(self):
        scenarios = [
            Scenario("adpcm", "sync", seed=1, scale=0.05),
            Scenario("gsm", "sync", seed=1, scale=0.05),
            Scenario("adpcm", "sync", seed=2, scale=0.05),
        ]
        assert Orchestrator._batch_cells(scenarios, 1) == [[0], [1], [2]]

    def test_cli_rejects_malformed_batch(self, monkeypatch):
        from repro.cli import main

        args = ["sweep", "--benchmarks", "adpcm", "--configurations", "sync",
                "--scale", "0.05", "--no-cache"]
        assert main([*args, "--batch", "bogus"]) == 2
        assert main([*args, "--batch", "0"]) == 2
        monkeypatch.setenv("REPRO_BATCH", "nope")
        assert main(args) == 2

    def test_orchestrator_rejects_malformed_batch(self):
        with pytest.raises(ExperimentError, match="malformed batch"):
            Orchestrator(batch="many")


# ---------------------------------------------------------------------------
# Process workers resolve their own traces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def worker_suite():
    return Suite(
        benchmarks=["adpcm", "gsm"],
        configurations=[CONFIG_PLAIN],
        seeds=[1, 2],
        scale=SCALE,
        name="worker-traces",
    )


@pytest.fixture(scope="module")
def worker_reference(worker_suite, tmp_path_factory):
    results = Orchestrator(
        workers=1, backend="serial", batch=1,
        cache_dir=tmp_path_factory.mktemp("worker-ref"), use_cache=False,
    ).run(worker_suite)
    assert not results.errors, [o.error for o in results.errors]
    return results.to_dict()


def _process_sweep(suite, tmp_path, scenarios=None):
    return Orchestrator(
        workers=2, backend="process", batch=2,
        cache_dir=tmp_path / "results", use_cache=False,
    ).run(suite if scenarios is None else scenarios)


def _same_trace(a, b) -> bool:
    return a.arrays.keys() == b.arrays.keys() and all(
        np.array_equal(a.arrays[name], b.arrays[name]) for name in a.arrays
    )


@needs_native
class TestWorkersResolveTheirOwnTraces:
    """Process workers take :func:`compiled_trace_for`'s one path.

    The owner ships scenarios and settings only; each worker resolves
    its traces through the memo, then the disk store, then generation.
    Forked workers inherit the owner's module state, so patching
    ``engine._TRACE_STORE``, ``engine._TRACE_MEMO`` or
    ``BenchmarkSpec.build_trace`` before the pool starts reaches them.
    """

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        store = TraceStore(tmp_path / "traces")
        monkeypatch.setattr(engine, "_TRACE_STORE", store)
        monkeypatch.setattr(engine, "_TRACE_MEMO", TraceCache())
        return store

    @staticmethod
    def _entries(store):
        return sorted(store.directory.glob("*.npz"))

    @staticmethod
    def _warm(suite):
        for name in suite.benchmarks:
            compiled_trace_for(get_benchmark(name), scale=SCALE)

    @staticmethod
    def _forbid_generation(monkeypatch):
        def refuse(self, scale=1.0, seed_offset=0):
            raise AssertionError(f"{self.name}: trace generated, not resolved")

        monkeypatch.setattr(BenchmarkSpec, "build_trace", refuse)

    def test_owner_builds_no_trace(
        self, worker_suite, worker_reference, store, tmp_path
    ):
        results = _process_sweep(worker_suite, tmp_path)
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == worker_reference
        assert engine._TRACE_MEMO.misses == 0
        assert not engine._TRACE_MEMO._items

    def test_workers_fill_the_store(
        self, worker_suite, worker_reference, store, tmp_path
    ):
        results = _process_sweep(worker_suite, tmp_path)
        assert results.to_dict() == worker_reference
        stored = [store.load(path.stem) for path in self._entries(store)]
        assert len(stored) == len(worker_suite.benchmarks)
        # One entry per unique trace, byte-identical to a fresh build.
        for name in worker_suite.benchmarks:
            trace = get_benchmark(name).build_trace(scale=SCALE)
            fresh = from_columns(trace_columns(trace))
            assert sum(_same_trace(fresh, entry) for entry in stored) == 1, name

    def test_workers_load_the_store(
        self, worker_suite, worker_reference, store, tmp_path, monkeypatch
    ):
        self._warm(worker_suite)
        assert len(self._entries(store)) == len(worker_suite.benchmarks)
        # An empty memo sends the workers to disk; a generation raises.
        monkeypatch.setattr(engine, "_TRACE_MEMO", TraceCache())
        self._forbid_generation(monkeypatch)
        results = _process_sweep(worker_suite, tmp_path)
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == worker_reference

    def test_forked_workers_inherit_the_owner_memo(
        self, worker_suite, worker_reference, store, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
        self._warm(worker_suite)
        assert self._entries(store) == []
        self._forbid_generation(monkeypatch)
        results = _process_sweep(worker_suite, tmp_path)
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == worker_reference

    def test_workers_rebuild_through_a_corrupt_store(
        self, worker_suite, worker_reference, store, tmp_path, monkeypatch
    ):
        self._warm(worker_suite)
        entries = self._entries(store)
        assert len(entries) == len(worker_suite.benchmarks)
        for path in entries:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 3])
        monkeypatch.setattr(engine, "_TRACE_MEMO", TraceCache())
        results = _process_sweep(worker_suite, tmp_path)
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == worker_reference
        # Each worker's miss rewrote the entry whole.
        assert self._entries(store) == entries
        assert all(store.load(path.stem) is not None for path in entries)

    def test_workers_skip_a_disabled_store(
        self, worker_suite, worker_reference, store, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
        results = _process_sweep(worker_suite, tmp_path)
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == worker_reference
        assert self._entries(store) == []


class TestProcessSweepsLeaveNoWorkers:
    """However a process sweep ends, its pool is terminated and joined."""

    def test_finished_sweep_joins_its_workers(
        self, worker_suite, worker_reference, tmp_path
    ):
        results = _process_sweep(worker_suite, tmp_path)
        assert results.to_dict() == worker_reference
        assert multiprocessing.active_children() == []

    def test_workers_ignore_an_inherited_sigterm_handler(
        self, worker_suite, worker_reference, tmp_path, capfd
    ):
        # Forked workers inherit this process's signal handlers.  One
        # that turns SIGTERM into KeyboardInterrupt must not make the
        # teardown's terminate print a traceback from every worker.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, interrupt)
        try:
            results = _process_sweep(worker_suite, tmp_path)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert results.to_dict() == worker_reference
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert "Traceback" not in err and "KeyboardInterrupt" not in err

    def test_workers_joined_after_a_scenario_fails(self, worker_suite, tmp_path):
        from repro.experiments import CONFIGURATIONS, register_configuration

        @register_configuration("teardown_explode")
        def exploding(ctx, benchmark, scale, seed):
            """Test entry that always fails."""
            raise RuntimeError("injected teardown-check failure")

        scenarios = [
            *worker_suite.expand(),
            Scenario("adpcm", "teardown_explode", scale=SCALE),
        ]
        try:
            results = _process_sweep(worker_suite, tmp_path, scenarios=scenarios)
        finally:
            CONFIGURATIONS.unregister("teardown_explode")
        assert len(results.errors) == 1
        assert multiprocessing.active_children() == []

    def test_a_worker_dying_mid_cell_fails_the_sweep(self, worker_suite, tmp_path):
        # A pool that replaces a dead worker waits forever for its cell.
        from repro.experiments import CONFIGURATIONS, register_configuration

        owner = os.getpid()

        @register_configuration("teardown_worker_dies")
        def dying(ctx, benchmark, scale, seed):
            """Test entry whose worker process is killed mid-cell."""
            if os.getpid() == owner:
                raise RuntimeError("meant to run in a worker process")
            os.kill(os.getpid(), signal.SIGKILL)

        scenarios = [
            *worker_suite.expand(),
            Scenario("adpcm", "teardown_worker_dies", scale=SCALE),
        ]
        try:
            with pytest.raises(ExperimentError, match=r"died mid-cell \(exit code -9\)"):
                _process_sweep(worker_suite, tmp_path, scenarios=scenarios)
        finally:
            CONFIGURATIONS.unregister("teardown_worker_dies")
        assert multiprocessing.active_children() == []

    def test_stopped_sweep_joins_its_workers(self, worker_suite, tmp_path):
        # The propagating exception keeps the sweep's frames, and so its
        # workers' handles, alive: only an explicit terminate-and-join
        # reaps the workers here.
        def stop(cell, outcome):
            raise RuntimeError("stop the sweep")

        orchestrator = Orchestrator(
            workers=2, backend="process", batch=1, cache_dir=tmp_path,
            use_cache=False, on_outcome=stop,
        )
        with pytest.raises(RuntimeError, match="stop the sweep"):
            orchestrator.run(worker_suite)
        assert multiprocessing.active_children() == []
