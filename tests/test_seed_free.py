"""Seed-free runs: the seed reaches only MCD cores, so a sweep runs the rest once.

The fully synchronous baseline has one clock with no random phase and
no jitter, so a spec without MCD clocking must give the same result at
every seed (``SimulationSpec.clock_seed``).  The execution context
leans on that rule: it memoises the summary of every produced spec with
``mcd=False`` and no controller, keyed by the spec's fields minus the
seed.  These tests pin:

* the seed rule itself, on every catalog benchmark and both
  interpreters;
* the saving — a 2-seed ``sync``/``mcd_base``/``attack_decay`` sweep
  builds 5 cores per benchmark instead of 6 on every backend and batch
  size, with results equal to a memo-free oracle's;
* batched cells whose factories wait on seed-free runs finish, in one
  cell, across two cells and in batched sweeps;
* the memo's key — a factory deriving another spec field from the seed
  keeps per-seed results, and a re-registered workload is simulated
  (and profiled) afresh.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import asdict

import pytest

from repro.experiments import CONFIGURATIONS, Orchestrator, Scenario, Suite
from repro.experiments.builtins import register_configuration
from repro.experiments.executor import ExecutionContext
from repro.experiments.results import ResultSet
from repro.sim.engine import SimulationSpec, _build_core, run_spec
from repro.uarch import native
from repro.uarch.core import MCDCore
from repro.workloads import catalog
from repro.workloads.catalog import BENCHMARKS, get_benchmark, register_benchmark

SCALE = 0.02

needs_native = pytest.mark.skipif(native.load_hotpath() is None, reason="no native loop")

MATRIX = Suite(
    ["adpcm", "gsm"], ["sync", "mcd_base", "attack_decay"], seeds=[1, 2], scale=SCALE
)


def _oracle(scenarios) -> dict:
    """Memo-free results: every scenario runs in a context of its own."""
    return ResultSet(
        [ExecutionContext(scale=SCALE, use_cache=False).run_isolated(s) for s in scenarios]
    ).to_dict()


@pytest.fixture
def cores_built(tmp_path, monkeypatch):
    """A callable returning how many cores were built so far, in any process.

    Each construction appends a line to a file, so forked process
    workers count too.
    """
    log = tmp_path / "cores.log"
    original = MCDCore.__init__

    def counting(self, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write("core\n")
        original(self, *args, **kwargs)

    monkeypatch.setattr(MCDCore, "__init__", counting)
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


# ------------------------------------------------------------ the seed rule
class TestSeedRule:
    @pytest.mark.parametrize(
        "path", [pytest.param("native", marks=needs_native), "python"]
    )
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_non_mcd_result_is_the_same_at_every_seed(self, name, path):
        results = [
            asdict(run_spec(SimulationSpec(
                name, mcd=False, seed=seed, scale=SCALE, path=path, record_intervals=True,
            )))
            for seed in (1, 7)
        ]
        assert results[0] == results[1]

    def test_global_configuration_is_the_same_at_every_seed(self):
        factory, parsed = CONFIGURATIONS.resolve("global@725.000")
        ctx = ExecutionContext(scale=SCALE, use_cache=False)
        results = [
            asdict(run_spec(factory(ctx, "mcf", scale=SCALE, seed=seed, **parsed)))
            for seed in (1, 7)
        ]
        assert results[0] == results[1]

    def test_mcd_result_depends_on_the_seed(self):
        results = [
            run_spec(SimulationSpec("gsm", seed=seed, scale=SCALE)).wall_time_ns
            for seed in (1, 7)
        ]
        assert results[0] != results[1]

    def test_core_sees_the_seed_only_under_mcd(self):
        sync = SimulationSpec("adpcm", mcd=False, seed=5, scale=SCALE)
        mcd = SimulationSpec("adpcm", seed=5, scale=SCALE)
        assert sync.clock_seed is None and mcd.clock_seed == 5
        assert _build_core(sync)[0].options.seed is None
        assert _build_core(mcd)[0].options.seed == 5


# ------------------------------------------------------- simulations saved
@pytest.mark.parametrize(
    "backend, batch",
    [
        ("serial", None),
        ("serial", 3),
        ("thread", None),
        ("thread", 1),
        ("thread", 2),
        ("process", None),
    ],
)
def test_two_seed_sweep_builds_five_cores_per_benchmark(backend, batch, cores_built):
    scenarios = MATRIX.expand()
    oracle = _oracle(scenarios)
    assert cores_built() == 6 * 2  # the oracle runs every seed
    results = Orchestrator(
        workers=2, backend=backend, batch=batch, scale=SCALE, use_cache=False,
        start_method="fork" if backend == "process" else None,
    ).run(scenarios)
    assert not results.errors, [o.error for o in results.errors]
    assert cores_built() - 12 == 5 * 2
    assert results.to_dict() == oracle


def test_a_cell_carries_each_seed_free_run_once(cores_built, monkeypatch):
    from repro.sim import engine

    vectors = []
    batch = engine.run_specs_batch
    monkeypatch.setattr(
        engine, "run_specs_batch", lambda specs: vectors.append(len(specs)) or batch(specs)
    )
    scenarios = Suite(["gsm"], ["sync", "mcd_base"], seeds=[1, 2, 3], scale=SCALE).expand()
    ctx = ExecutionContext(scale=SCALE, use_cache=False)
    outcomes = ctx.run_batch(scenarios)
    assert vectors == [4] and cores_built() == 4
    assert ResultSet(outcomes).to_dict() == _oracle(scenarios)
    # A later cell finds every seed-free run in the memo.
    ctx.run_batch(Suite(["gsm"], ["sync"], seeds=[4, 5], scale=SCALE).expand())
    assert vectors == [4] and cores_built() == 4 + 6


def _finishes(call, seconds=60.0):
    """``call()``'s value, or a failure if it has not returned in ``seconds``."""
    box: dict = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds:.0f}s: deadlocked"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def sync_referenced():
    """A configuration whose factory waits on a seed-free ``sync`` run."""

    @register_configuration("sync_referenced")
    def sync_referenced(ctx, benchmark, scale, seed):
        """MCD baseline, after the synchronous run of the same seed."""
        ctx.summary(benchmark, "sync", scale=scale, seed=seed)
        return SimulationSpec(benchmark=benchmark, scale=scale, seed=seed)

    yield "sync_referenced"
    CONFIGURATIONS.unregister("sync_referenced")


class TestFactoriesWaitingOnSeedFreeRuns:
    """Regression: ``run_batch`` held a cell's seed-free claims while it
    ran later scenarios' factories, so a factory that needed one of
    those runs waited on its own cell for good."""

    def test_in_one_cell(self, sync_referenced):
        scenarios = [
            Scenario("adpcm", "sync", seed=1),
            Scenario("adpcm", sync_referenced, seed=1),
        ]
        ctx = ExecutionContext(scale=SCALE, use_cache=False)
        outcomes = _finishes(lambda: ctx.run_batch(scenarios))
        assert ResultSet(outcomes).to_dict() == _oracle(scenarios)

    def test_across_cells_claiming_each_others_runs(self):
        # Each cell starts with the sync run the other cell's factory
        # needs, and the factories wait until both cells reach them.
        gate = {"barrier": threading.Barrier(2, timeout=30)}

        @register_configuration("sync_referenced_in_step")
        def sync_referenced_in_step(ctx, benchmark, scale, seed):
            """MCD baseline, after the synchronous run, in step with a peer."""
            gate["barrier"].wait()
            ctx.summary(benchmark, "sync", scale=scale, seed=seed)
            return SimulationSpec(benchmark=benchmark, scale=scale, seed=seed)

        cells = [
            [Scenario(first, "sync", seed=1), Scenario(second, "sync_referenced_in_step", seed=1)]
            for first, second in (("adpcm", "gsm"), ("gsm", "adpcm"))
        ]
        ctx = ExecutionContext(scale=SCALE, use_cache=False)

        def run_cells():
            outcomes: list = [None, None]

            def cell(index):
                outcomes[index] = ctx.run_batch(cells[index])

            threads = [threading.Thread(target=cell, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return outcomes

        try:
            outcomes = _finishes(run_cells)
            gate["barrier"] = threading.Barrier(1)  # the oracle runs alone
            for cell, cell_outcomes in zip(cells, outcomes):
                assert ResultSet(cell_outcomes).to_dict() == _oracle(cell)
        finally:
            CONFIGURATIONS.unregister("sync_referenced_in_step")

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_in_a_batched_sweep(self, backend, sync_referenced):
        scenarios = Suite(
            ["adpcm", "gsm"], ["sync", sync_referenced], seeds=[1, 2], scale=SCALE
        ).expand()
        results = _finishes(
            lambda: Orchestrator(
                workers=2, backend=backend, batch=4, scale=SCALE, use_cache=False
            ).run(scenarios)
        )
        assert not results.errors, [o.error for o in results.errors]
        assert results.to_dict() == _oracle(scenarios)


def test_failed_batch_releases_its_seed_free_claims(monkeypatch):
    from repro.sim import engine

    def failing(specs):
        raise RuntimeError("injected batch failure")

    monkeypatch.setattr(engine, "run_specs_batch", failing)
    scenarios = Suite(["adpcm"], ["sync", "mcd_base"], seeds=[1, 2], scale=SCALE).expand()
    outcomes = ExecutionContext(scale=SCALE, use_cache=False).run_batch(scenarios)
    assert ResultSet(outcomes).to_dict() == _oracle(scenarios)


# ---------------------------------------------------------- the memo's key
def test_factory_deriving_a_field_from_the_seed_keeps_per_seed_results(cores_built):
    @register_configuration("seeded_global")
    def seeded_global(ctx, benchmark, scale, seed):
        """Synchronous processor at a global frequency picked by the seed."""
        return SimulationSpec(
            benchmark=benchmark, scale=scale, seed=seed, mcd=False,
            global_frequency_mhz=700.0 + 50.0 * seed, memory_tracks_global=True,
        )

    try:
        scenarios = Suite(["adpcm"], ["seeded_global"], seeds=[1, 2], scale=SCALE).expand()
        oracle = _oracle(scenarios)
        results = Orchestrator(workers=1, scale=SCALE, use_cache=False, batch=2).run(scenarios)
    finally:
        CONFIGURATIONS.unregister("seeded_global")
    assert results.to_dict() == oracle
    first, second = (outcome.record.summary for outcome in results)
    assert first.wall_time_ns != second.wall_time_ns
    assert cores_built() == 2 + 2


def test_re_registered_workload_is_simulated_and_profiled_afresh(monkeypatch):
    """Regression: the profile memo left out the workload identity.

    A ``dynamic_5`` run after re-registering its benchmark name to
    another trace was served the old trace's profile and baseline.
    """
    monkeypatch.setitem(
        catalog._EXTRA_BENCHMARKS, "rt_bench",
        dataclasses.replace(get_benchmark("gsm"), name="rt_bench"),
    )
    ctx = ExecutionContext(scale=SCALE, use_cache=False)
    for configuration in ("dynamic_5", "sync"):
        ctx.run(Scenario("rt_bench", configuration, seed=1))
    register_benchmark(dataclasses.replace(get_benchmark("mcf"), name="rt_bench"), replace=True)
    for configuration, seed in (("dynamic_5", 1), ("sync", 2)):
        again = ctx.run(Scenario("rt_bench", configuration, seed=seed)).summary
        fresh = ExecutionContext(scale=SCALE, use_cache=False).run(
            Scenario("rt_bench", configuration, seed=seed)
        ).summary
        assert again == fresh, configuration
