"""Tests for the engine, experiment runner and sweeps (small scale)."""

import pytest

from repro.config.algorithm import AttackDecayParams
from repro.config.mcd import Domain
from repro.control.attack_decay import AttackDecayController
from repro.errors import ExperimentError
from repro.sim.engine import SimulationSpec, run_spec
from repro.sim.experiment import ExperimentRunner, RunRecord
from repro.sim.sweeps import sweep_attack_decay_parameter

#: A tiny scale so the whole module runs in seconds.
SCALE = 0.08


@pytest.fixture
def runner(tmp_path) -> ExperimentRunner:
    return ExperimentRunner(cache_dir=tmp_path, scale=SCALE, seed=1)


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


class TestExperimentRunner:
    def test_cache_round_trip(self, runner):
        first = runner.sync_baseline("adpcm")
        second = runner.sync_baseline("adpcm")
        assert first.summary == second.summary
        # A fresh runner sharing the cache dir loads from disk.
        other = ExperimentRunner(cache_dir=runner.cache_dir, scale=SCALE, seed=1)
        third = other.sync_baseline("adpcm")
        assert third.summary == first.summary

    def test_cache_key_distinguishes_configurations(self, runner):
        sync = runner.sync_baseline("adpcm")
        mcd = runner.mcd_baseline("adpcm")
        assert sync.summary != mcd.summary

    def test_attack_decay_record(self, runner):
        record = runner.attack_decay("adpcm", AttackDecayParams(decay_pct=1.0))
        comparison = runner.compare_to_mcd_base(record)
        assert -0.05 < comparison.performance_degradation < 0.5

    def test_dynamic_targets_monotone(self, runner):
        d1 = runner.dynamic("gsm", 1.0, iterations=2)
        d5 = runner.dynamic("gsm", 5.0, iterations=2)
        assert d5.summary.energy <= d1.summary.energy

    def test_global_matched_converges(self, runner):
        base = runner.mcd_baseline("adpcm").summary
        target = base.wall_time_ns * 1.05
        record = runner.global_matched("adpcm", target)
        assert record.summary.wall_time_ns == pytest.approx(target, rel=0.04)

    def test_run_record_round_trip(self):
        from repro.metrics.summary import RunSummary

        record = RunRecord(
            benchmark="x",
            configuration="y",
            summary=RunSummary(1, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
        )
        assert RunRecord.from_dict(record.to_dict()) == record


class TestSweeps:
    def test_sweep_produces_points(self, runner):
        points = sweep_attack_decay_parameter(
            runner, "decay_pct", [0.5, 1.0], ["adpcm"]
        )
        assert len(points) == 2
        assert points[0].value == 0.5
        assert points[0].aggregate.count == 1

    def test_out_of_range_value_rejected(self, runner):
        with pytest.raises(ExperimentError):
            sweep_attack_decay_parameter(runner, "decay_pct", [5.0], ["adpcm"])

    def test_unknown_parameter_rejected(self, runner):
        with pytest.raises(ExperimentError):
            sweep_attack_decay_parameter(runner, "nope", [0.5], ["adpcm"])

    def test_empty_benchmarks_rejected(self, runner):
        with pytest.raises(ExperimentError):
            sweep_attack_decay_parameter(runner, "decay_pct", [0.5], [])
