"""Tests for the engine, scenario execution and sweeps (small scale)."""

import pytest

from repro.config.algorithm import AttackDecayParams
from repro.errors import ExperimentError
from repro.experiments import ExecutionContext, Orchestrator, RunRecord, Scenario
from repro.experiments.builtins import attack_decay_scenario
from repro.metrics.aggregate import aggregate
from repro.metrics.summary import compare
from repro.sim.engine import SimulationSpec, run_spec
from repro.sim.sweeps import FIGURE6_BASE, sweep_attack_decay_parameter
from repro.workloads.catalog import BENCHMARKS

#: A tiny scale so the whole module runs in seconds.
SCALE = 0.08


@pytest.fixture
def ctx(tmp_path) -> ExecutionContext:
    return ExecutionContext(cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=True)


@pytest.fixture
def orchestrator(tmp_path) -> Orchestrator:
    return Orchestrator(cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=True)


@pytest.fixture
def no_native(monkeypatch):
    """Force the native loader off, as on a host without a C compiler."""
    from repro.uarch import native

    monkeypatch.setattr(native, "_cached", None)
    monkeypatch.setattr(native, "_attempted", True)


class TestEngine:
    def test_run_spec_basic(self):
        result = run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE))
        assert result.instructions == pytest.approx(80_000 * SCALE, rel=0.01)

    def test_unknown_benchmark_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            run_spec(SimulationSpec(benchmark="nope"))

    def test_unknown_path_raises(self):
        for path in ("warp", "generator"):
            with pytest.raises(ExperimentError, match="execution path"):
                run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE, path=path))

    def test_explicit_paths_match_auto(self):
        from repro.metrics.summary import summarize
        from repro.uarch.native import load_hotpath

        auto = summarize(run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE)))
        for path in ("python",) + (
            ("native",) if load_hotpath() is not None else ()
        ):
            forced = summarize(
                run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE, path=path))
            )
            assert forced == auto, f"{path} path diverged from auto"

    def test_trace_type_follows_the_path(self):
        from repro.sim import engine
        from repro.uarch.native import load_hotpath

        core, _ = engine._build_core(
            SimulationSpec(benchmark="adpcm", scale=SCALE, path="python")
        )
        assert core.compiled is None
        if load_hotpath() is not None:
            core, trace = engine._build_core(
                SimulationSpec(benchmark="adpcm", scale=SCALE)
            )
            assert core.compiled is trace

    def test_compiled_core_without_extension_raises(self, no_native):
        from repro.config.processor import ProcessorConfig
        from repro.errors import SimulationError
        from repro.sim.engine import scaled_mcd_config
        from repro.uarch.compiled_trace import compile_trace
        from repro.uarch.core import MCDCore
        from repro.workloads.catalog import get_benchmark

        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        core = MCDCore(ProcessorConfig(), scaled_mcd_config(), compile_trace(trace))
        with pytest.raises(SimulationError, match="native loop"):
            core.run()
        with pytest.raises(SimulationError, match="extension is unavailable"):
            run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE, path="native"))

    def test_auto_without_extension_runs_reference_interpreter(
        self, no_native, monkeypatch
    ):
        from repro.metrics.summary import summarize
        from repro.sim import engine

        specs = [
            SimulationSpec(benchmark="adpcm", scale=SCALE, seed=seed)
            for seed in (1, 2)
        ]
        core, _ = engine._build_core(specs[0])
        assert core.compiled is None  # built over the generator trace
        expected = [summarize(run_spec(spec)) for spec in specs]
        per_run = []

        def counted(spec):
            per_run.append(spec)
            return run_spec(spec)

        monkeypatch.setattr(engine, "run_spec", counted)
        batched = [summarize(r) for r in engine.run_specs_batch(specs)]
        assert batched == expected
        assert per_run == specs  # fell back to one run_spec per spec

    def test_global_frequency_applies_to_all_domains(self):
        result = run_spec(
            SimulationSpec(
                benchmark="adpcm", mcd=False, global_frequency_mhz=500.0, scale=SCALE
            )
        )
        assert all(
            f == pytest.approx(500.0, abs=2.0)
            for f in result.final_frequencies_mhz.values()
        )

    def test_global_frequency_out_of_range_rejected(self):
        with pytest.raises(ExperimentError):
            run_spec(
                SimulationSpec(benchmark="adpcm", global_frequency_mhz=100.0)
            )

    def test_global_run_slower_and_cheaper(self):
        full = run_spec(SimulationSpec(benchmark="adpcm", mcd=False, scale=SCALE))
        slow = run_spec(
            SimulationSpec(
                benchmark="adpcm", mcd=False, global_frequency_mhz=600.0, scale=SCALE
            )
        )
        assert slow.wall_time_ns > full.wall_time_ns
        assert slow.energy < full.energy


class TestExecutionContext:
    def test_cache_round_trip(self, ctx, tmp_path):
        first = ctx.run(Scenario("adpcm", "sync"))
        second = ctx.run(Scenario("adpcm", "sync"))
        assert first.summary == second.summary
        # A fresh context sharing the cache dir loads from disk.
        other = ExecutionContext(cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=True)
        third = other.run(Scenario("adpcm", "sync"))
        assert third.summary == first.summary

    def test_cache_key_distinguishes_configurations(self, ctx):
        sync = ctx.run(Scenario("adpcm", "sync"))
        mcd = ctx.run(Scenario("adpcm", "mcd_base"))
        assert sync.summary != mcd.summary

    def test_attack_decay_record(self, ctx):
        record = ctx.run(
            attack_decay_scenario("adpcm", AttackDecayParams(decay_pct=1.0))
        )
        base = ctx.run(Scenario("adpcm", "mcd_base"))
        comparison = compare(record.summary, base.summary)
        assert -0.05 < comparison.performance_degradation < 0.5

    def test_dynamic_targets_monotone(self, ctx):
        d1 = ctx.run(Scenario("gsm", "dynamic_1", overrides={"iterations": 2}))
        d5 = ctx.run(Scenario("gsm", "dynamic_5", overrides={"iterations": 2}))
        assert d5.summary.energy <= d1.summary.energy

    def test_run_record_round_trip(self):
        from repro.metrics.summary import RunSummary

        record = RunRecord(
            benchmark="x",
            configuration="y",
            summary=RunSummary(1, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
        )
        assert RunRecord.from_dict(record.to_dict()) == record


class TestOfflineDynamic:
    """The off-line Dynamic search: its baseline, run count and inputs."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_profiling_run_is_the_mcd_base_run(self, name):
        ctx = ExecutionContext(scale=0.05, seed=1, use_cache=False)
        for seed in (1, 2):
            profiled = ctx.profile(name, seed=seed)
            base = ctx.run(Scenario(name, "mcd_base", seed=seed)).summary
            assert profiled.summary == base
            assert len(profiled.profile) > 0

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_dynamic_runs_one_simulation_per_schedule_plus_the_profile(
        self, iterations, monkeypatch
    ):
        from repro.uarch.core import MCDCore

        built = []
        init = MCDCore.__init__

        def counting(core, *args, **kwargs):
            built.append(core)
            init(core, *args, **kwargs)

        monkeypatch.setattr(MCDCore, "__init__", counting)
        ctx = ExecutionContext(scale=SCALE, seed=1, use_cache=False)
        ctx.run(Scenario("gsm", "dynamic_5", overrides={"iterations": iterations}))
        assert 2 <= len(built) <= 1 + iterations

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"target_pct": float("nan")}, "target_pct"),
            ({"target_pct": float("inf")}, "target_pct"),
            ({"target_pct": -1.0}, "target_pct"),
            ({"iterations": 2.5}, "iterations"),
            ({"iterations": True}, "iterations"),
            ({"iterations": 0}, "iterations"),
            ({"iterations": -3}, "iterations"),
        ],
    )
    def test_dynamic_rejects_malformed_inputs(self, overrides, field):
        ctx = ExecutionContext(scale=SCALE, seed=1, use_cache=False)
        with pytest.raises(ExperimentError, match=field):
            ctx.run(Scenario("gsm", "dynamic_5", overrides=overrides))


class TestSweeps:
    def test_sweep_produces_points(self, orchestrator):
        points = sweep_attack_decay_parameter(
            orchestrator, "decay_pct", [0.5, 1.0], ["adpcm"]
        )
        assert len(points) == 2
        assert points[0].value == 0.5
        assert points[0].aggregate.count == 1

    def test_sweep_is_one_orchestrated_run(self, tmp_path):
        # Every value x benchmark scenario and one baseline per
        # benchmark run in a single matrix: its six cells announce once.
        announced = []
        orchestrator = Orchestrator(
            cache_dir=tmp_path, scale=SCALE, use_cache=False,
            on_outcome=lambda cell, outcome: announced.append((cell, outcome)),
        )
        points = sweep_attack_decay_parameter(
            orchestrator, "decay_pct", [0.5, 1.0], ["adpcm", "gsm"]
        )
        assert sorted(cell for cell, _ in announced) == list(range(6))
        assert sum(o.scenario.configuration == "mcd_base" for _, o in announced) == 2
        ctx = ExecutionContext(cache_dir=tmp_path, scale=SCALE, use_cache=False)
        for point in points:
            params = FIGURE6_BASE["decay_pct"].with_(decay_pct=point.value)
            expected = aggregate(
                {
                    b: compare(
                        ctx.run(attack_decay_scenario(b, params)).summary,
                        ctx.run(Scenario(b, "mcd_base")).summary,
                    )
                    for b in ("adpcm", "gsm")
                }
            )
            assert point.aggregate == expected

    def test_fractional_endstop_rejected(self, orchestrator):
        # int(2.7) would simulate 2 intervals under a 2.7 label.
        with pytest.raises(ExperimentError, match="2.7"):
            sweep_attack_decay_parameter(
                orchestrator, "endstop_intervals", [2.0, 2.7], ["adpcm"]
            )

    def test_whole_endstop_values_accepted(self, orchestrator):
        points = sweep_attack_decay_parameter(
            orchestrator, "endstop_intervals", [2.0, 5], ["adpcm"]
        )
        assert [p.value for p in points] == [2.0, 5]

    def test_failed_run_raises_naming_it(self, tmp_path, monkeypatch):
        from repro.experiments import executor

        real = executor.run_spec

        def failing(spec):
            if spec.controller is not None:
                raise RuntimeError("boom")
            return real(spec)

        monkeypatch.setattr(executor, "run_spec", failing)
        orchestrator = Orchestrator(
            cache_dir=tmp_path, scale=SCALE, use_cache=False, backend="serial"
        )
        with pytest.raises(ExperimentError, match="adpcm:attack_decay"):
            sweep_attack_decay_parameter(orchestrator, "decay_pct", [0.5], ["adpcm"])

    def test_out_of_range_value_rejected(self, orchestrator):
        with pytest.raises(ExperimentError):
            sweep_attack_decay_parameter(orchestrator, "decay_pct", [5.0], ["adpcm"])

    def test_unknown_parameter_rejected(self, orchestrator):
        with pytest.raises(ExperimentError):
            sweep_attack_decay_parameter(orchestrator, "nope", [0.5], ["adpcm"])

    def test_empty_benchmarks_rejected(self, orchestrator):
        with pytest.raises(ExperimentError):
            sweep_attack_decay_parameter(orchestrator, "decay_pct", [0.5], [])
