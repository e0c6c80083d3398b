"""Tests for the registry-driven scenario API and the orchestrator."""

import json

import pytest

from repro.config.algorithm import AttackDecayParams
from repro.control.attack_decay import AttackDecayController
from repro.errors import ExperimentError
from repro.experiments import (
    CONFIGURATIONS,
    CacheStore,
    ExecutionContext,
    Orchestrator,
    ResultSet,
    Scenario,
    Suite,
    register_configuration,
)
from repro.experiments.builtins import attack_decay_scenario
from repro.experiments.results import RunOutcome, RunRecord
from repro.metrics.summary import RunSummary, summarize
from repro.sim.engine import SimulationSpec, run_spec

#: A tiny scale so the whole module runs in seconds.
SCALE = 0.05


@pytest.fixture
def ctx(tmp_path) -> ExecutionContext:
    # use_cache pinned so an ambient REPRO_CACHE=0 cannot break the
    # cache-asserting tests.
    return ExecutionContext(cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=True)


class TestRegistry:
    def test_paper_configurations_resolvable(self):
        for name in (
            "sync",
            "mcd_base",
            "attack_decay",
            "dynamic_1",
            "dynamic_5",
            "global@640.000",
        ):
            factory, params = CONFIGURATIONS.resolve(name)
            assert callable(factory), name

    def test_pattern_names_parse_parameters(self):
        _, params = CONFIGURATIONS.resolve("dynamic_5")
        assert params == {"target_pct": 5.0}
        _, params = CONFIGURATIONS.resolve("global@725.5")
        assert params == {"frequency_mhz": 725.5}
        _, params = CONFIGURATIONS.resolve("attack_decay[1.750_06.0_0.175_2.5][literal]")
        assert params["decay_pct"] == 0.175
        assert params["literal_listing"] is True

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ExperimentError):
            CONFIGURATIONS.resolve("nonesuch")

    def test_duplicate_name_rejected(self):
        @register_configuration("test_dup_cfg")
        def first(ctx, benchmark, scale, seed):
            """Test entry."""
            return SimulationSpec(benchmark=benchmark, scale=scale, seed=seed)

        try:
            with pytest.raises(ExperimentError):

                @register_configuration("test_dup_cfg")
                def second(ctx, benchmark, scale, seed):
                    """Conflicting test entry."""
                    return SimulationSpec(benchmark=benchmark, scale=scale, seed=seed)

        finally:
            CONFIGURATIONS.unregister("test_dup_cfg")

    def test_contains_and_names(self):
        assert "sync" in CONFIGURATIONS
        assert "dynamic_2.5" in CONFIGURATIONS
        assert "bogus" not in CONFIGURATIONS
        assert "sync" in CONFIGURATIONS.names()


class TestSuite:
    def test_cross_product_expansion(self):
        suite = Suite(
            benchmarks=["adpcm", "gsm"],
            configurations=["sync", "mcd_base", "attack_decay"],
            seeds=[1, 2],
        )
        matrix = suite.expand()
        assert len(matrix) == len(suite) == 12
        # Deterministic order, configurations varying fastest.
        assert matrix[0] == Scenario("adpcm", "sync", seed=1)
        assert matrix[1] == Scenario("adpcm", "mcd_base", seed=1)
        assert {s.seed for s in matrix} == {1, 2}

    def test_override_axis(self):
        suite = Suite(
            benchmarks=["adpcm"],
            configurations=["attack_decay"],
            overrides=[{"decay_pct": 0.5}, {"decay_pct": 1.0}],
        )
        matrix = suite.expand()
        assert len(matrix) == 2
        assert matrix[0].overrides == (("decay_pct", 0.5),)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ExperimentError):
            Suite(benchmarks=["nope"], configurations=["sync"]).expand()

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ExperimentError):
            Suite(benchmarks=["adpcm"], configurations=["nope"]).expand()

    def test_empty_axes_rejected(self):
        with pytest.raises(ExperimentError):
            Suite(benchmarks=[], configurations=["sync"]).expand()
        with pytest.raises(ExperimentError):
            Suite(benchmarks=["adpcm"], configurations=["sync"], seeds=[]).expand()

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_scale_rejected(self, scale):
        suite = Suite(benchmarks=["adpcm"], configurations=["sync"], scale=scale)
        with pytest.raises(ExperimentError, match="scale"):
            suite.expand()

    @pytest.mark.parametrize(
        "axes, named",
        [
            ({"benchmarks": ["adpcm", "gsm", "adpcm"]}, "benchmark 'adpcm'"),
            ({"configurations": ["sync", "sync"]}, "configuration 'sync'"),
            ({"seeds": [1, 2, 1]}, "seed 1"),
            (
                {"overrides": [{"decay_pct": 0.5}, {"decay_pct": 1.0}, {"decay_pct": 0.5}]},
                "override set",
            ),
        ],
    )
    def test_repeated_entries_rejected(self, axes, named):
        fields = {"benchmarks": ["adpcm"], "configurations": ["attack_decay"], **axes}
        with pytest.raises(ExperimentError, match=f"repeats {named}"):
            Suite(**fields).expand()

    def test_scenario_round_trip(self):
        scenario = Scenario(
            "adpcm", "attack_decay", seed=3, scale=0.5, overrides={"decay_pct": 1.0}
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        store = CacheStore(tmp_path)
        key = store.key({"benchmark": "x", "configuration": "y"})
        assert store.load(key) is None
        store.store(key, {"value": 42})
        assert store.load(key) == {"value": 42}
        # No stray temp files after a completed write.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_entry_is_logged_miss(self, tmp_path, caplog):
        store = CacheStore(tmp_path)
        key = store.key({"benchmark": "x"})
        store.store(key, {"value": 1})
        (tmp_path / f"{key}.json").write_text("{truncated")
        with caplog.at_level("WARNING"):
            assert store.load(key) is None
        assert any("treating as miss" in r.message for r in caplog.records)

    def test_disabled_store_misses(self, tmp_path):
        store = CacheStore(tmp_path, enabled=False)
        key = store.key({"benchmark": "x"})
        store.store(key, {"value": 1})
        assert store.load(key) is None
        assert not any(tmp_path.iterdir())

    def test_key_distinguishes_overrides(self, ctx):
        plain = ctx.cache_key(Scenario("adpcm", "attack_decay"))
        tweaked = ctx.cache_key(
            Scenario("adpcm", "attack_decay", overrides={"decay_pct": 0.5})
        )
        assert plain != tweaked

    def test_key_rejects_non_serialisable_payload_values(self, tmp_path):
        """Regression: ``default=str`` silently collided distinct values.

        Two payload values with equal ``str()`` used to hash to one
        cache identity, so one configuration could be served the other
        one's results.  Non-JSON values must raise instead.
        """
        store = CacheStore(tmp_path)

        class Opaque:
            def __init__(self, value):
                self.value = value

            def __str__(self):  # identical str() for distinct values
                return "opaque"

        with pytest.raises(ExperimentError, match="JSON-serialisable"):
            store.key({"benchmark": "x", "knob": Opaque(1)})
        with pytest.raises(ExperimentError, match="JSON-serialisable"):
            store.key({"benchmark": "x", "knob": Opaque(2)})

    def test_key_separates_values_str_would_merge(self, tmp_path):
        """JSON-distinguishable values that stringify alike stay distinct."""
        store = CacheStore(tmp_path)
        as_string = store.key({"scale": "0.5"})
        as_number = store.key({"scale": 0.5})
        assert as_string != as_number


class TestExecutionContext:
    def test_run_matches_direct_spec(self, ctx):
        record = ctx.run(Scenario("adpcm", "sync"))
        direct = summarize(
            run_spec(SimulationSpec(benchmark="adpcm", mcd=False, scale=SCALE, seed=1))
        )
        assert record.summary == direct

    def test_cache_round_trip(self, ctx, tmp_path):
        first = ctx.run(Scenario("adpcm", "mcd_base"))
        other = ExecutionContext(
            cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=True
        )
        second = other.run(Scenario("adpcm", "mcd_base"))
        assert first == second

    def test_scenario_scale_overrides_context(self, ctx):
        default = ctx.run(Scenario("adpcm", "sync"))
        bigger = ctx.run(Scenario("adpcm", "sync", scale=SCALE * 2))
        assert bigger.summary.instructions > default.summary.instructions

    def test_seed_in_cache_identity(self, ctx):
        assert ctx.cache_key(Scenario("adpcm", "mcd_base")) != ctx.cache_key(
            Scenario("adpcm", "mcd_base", seed=7)
        )


class TestOrchestrator:
    def test_parallel_matches_serial(self, tmp_path):
        suite = Suite(
            benchmarks=["adpcm", "gsm"],
            configurations=["sync", "mcd_base", "attack_decay"],
            scale=SCALE,
        )
        serial = Orchestrator(
            workers=1, cache_dir=tmp_path / "serial", use_cache=True
        ).run(suite)
        parallel = Orchestrator(
            workers=3, cache_dir=tmp_path / "par", use_cache=True
        ).run(suite)
        assert len(serial) == len(parallel) == 6
        assert [o.record.summary for o in serial] == [
            o.record.summary for o in parallel
        ]
        # Identical cache keys on disk, wherever a run was computed.
        assert sorted(p.name for p in (tmp_path / "serial").iterdir()) == sorted(
            p.name for p in (tmp_path / "par").iterdir()
        )

    def test_forced_spawn_reproduces_fork_over_runtime_registration(
        self, tmp_path
    ):
        """Regression: spawn workers silently dropped runtime workloads.

        The orchestrator hard-coded the fork start method because
        spawn re-imports only the built-ins; the fix ships a registry
        snapshot through the pool initializer.  A runtime-registered
        workload must therefore run — and produce the same summaries —
        under a forced-spawn pool as under fork/serial.
        """
        import multiprocessing

        from repro.workloads import algebra
        from repro.workloads.catalog import get_benchmark, register_benchmark

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        register_benchmark(
            algebra.scale(get_benchmark("adpcm"), 0.5, name="spawn_reg_bench"),
            replace=True,
        )
        matrix = [
            Scenario("spawn_reg_bench", "sync"),
            Scenario("spawn_reg_bench", "mcd_base"),
            Scenario("adpcm", "attack_decay"),
        ]
        spawned = Orchestrator(
            workers=2,
            cache_dir=tmp_path / "spawn",
            scale=SCALE,
            use_cache=False,
            start_method="spawn",
        ).run(matrix)
        assert not spawned.errors, [o.error for o in spawned.errors]
        serial = Orchestrator(
            workers=1, cache_dir=tmp_path / "serial", scale=SCALE, use_cache=False
        ).run(matrix)
        assert [o.record.summary for o in spawned] == [
            o.record.summary for o in serial
        ]

    def test_unknown_start_method_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="start method"):
            Orchestrator(
                workers=2, cache_dir=tmp_path, scale=SCALE, start_method="warp"
            ).run([Scenario("adpcm", "sync"), Scenario("gsm", "sync")])

    def test_rerun_hits_cache(self, tmp_path):
        suite = Suite(
            benchmarks=["adpcm"], configurations=["sync", "mcd_base"], scale=SCALE
        )
        orchestrator = Orchestrator(workers=1, cache_dir=tmp_path, use_cache=True)
        first = orchestrator.run(suite)
        before = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        second = orchestrator.run(suite)
        after = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        assert before == after  # nothing recomputed or rewritten
        assert [o.record for o in first] == [o.record for o in second]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_run_is_isolated(self, tmp_path, workers):
        @register_configuration("test_explode")
        def exploding(ctx, benchmark, scale, seed):
            """Test entry that always fails."""
            raise RuntimeError("injected failure")

        try:
            scenarios = [
                Scenario("adpcm", "sync", scale=SCALE),
                Scenario("adpcm", "test_explode", scale=SCALE),
                Scenario("gsm", "sync", scale=SCALE),
            ]
            results = Orchestrator(workers=workers, cache_dir=tmp_path).run(scenarios)
        finally:
            CONFIGURATIONS.unregister("test_explode")
        assert len(results) == 3
        assert len(results.errors) == 1
        failed = results.errors[0]
        assert failed.scenario.configuration == "test_explode"
        assert "injected failure" in failed.error
        # The other runs completed and are queryable.
        assert results.get("adpcm", "sync").summary.instructions > 0
        assert results.get("gsm", "sync").summary.instructions > 0


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        suite = Suite(
            benchmarks=["adpcm", "gsm"],
            configurations=["sync", "mcd_base"],
            scale=SCALE,
        )
        return Orchestrator(
            workers=1, cache_dir=tmp_path_factory.mktemp("cache")
        ).run(suite)

    def test_filter_and_group(self, results):
        assert len(results.filter(benchmark="adpcm")) == 2
        assert len(results.filter(configuration="sync")) == 2
        groups = results.group_by("configuration")
        assert set(groups) == {"sync", "mcd_base"}
        assert all(len(g) == 2 for g in groups.values())

    def test_compare_and_aggregate(self, results):
        comparisons = results.compare("mcd_base", reference="sync")
        assert set(comparisons) == {"adpcm", "gsm"}
        agg = results.aggregate("mcd_base", reference="sync")
        assert agg.count == 2

    def test_aggregate_without_common_runs_rejected(self, results):
        with pytest.raises(ExperimentError):
            results.aggregate("sync", reference="dynamic_1")

    def test_get_requires_unique_match(self, results):
        with pytest.raises(ExperimentError):
            results.get("adpcm", "dynamic_1")

    def test_json_round_trip(self, results):
        data = json.loads(json.dumps(results.to_dict()))
        restored = ResultSet.from_dict(data)
        assert [o.record for o in restored] == [o.record for o in results]

    def test_outcome_round_trip(self):
        outcome = RunOutcome(
            scenario=Scenario("adpcm", "sync"),
            record=RunRecord("adpcm", "sync", RunSummary(1, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
        )
        assert RunOutcome.from_dict(outcome.to_dict()) == outcome


class TestAttackDecayScenarios:
    """An Attack/Decay scenario runs exactly the operating point given."""

    def test_attack_decay_params_respected(self, ctx):
        params = AttackDecayParams(decay_pct=1.0, interval_instructions=500)
        record = ctx.run(attack_decay_scenario("adpcm", params))
        direct = summarize(
            run_spec(
                SimulationSpec(
                    benchmark="adpcm",
                    mcd=True,
                    controller=AttackDecayController(params),
                    scale=SCALE,
                    seed=1,
                )
            )
        )
        assert record.summary == direct
        assert record.configuration == f"attack_decay[{params.legend()}]"

    def test_attack_decay_non_legend_fields_in_cache_identity(self, ctx):
        # The legend covers only four fields; the rest must still be
        # part of the cache identity (the seed runner collided them).
        coarse = attack_decay_scenario("adpcm", AttackDecayParams())
        fine = attack_decay_scenario(
            "adpcm", AttackDecayParams(interval_instructions=500)
        )
        assert coarse.configuration == fine.configuration
        assert ctx.cache_key(coarse) != ctx.cache_key(fine)

    def test_attack_decay_scenario_helper_round_trip(self):
        params = AttackDecayParams(decay_pct=0.5, endstop_intervals=5)
        scenario = attack_decay_scenario("gsm", params)
        assert scenario.configuration == f"attack_decay[{params.legend()}]"
        assert dict(scenario.overrides) == {"endstop_intervals": 5}

    def test_attack_decay_exact_fractional_params(self, ctx):
        # The legend string is fixed-precision; values it cannot
        # represent must still be simulated exactly (and cached
        # distinctly), via overrides that win over the parsed name.
        params = AttackDecayParams(reaction_change_pct=2.642857142857143)
        scenario = attack_decay_scenario("adpcm", params)
        assert dict(scenario.overrides) == {
            "reaction_change_pct": 2.642857142857143
        }
        rounded = attack_decay_scenario(
            "adpcm", AttackDecayParams(reaction_change_pct=2.6)
        )
        assert scenario.configuration == rounded.configuration
        assert ctx.cache_key(scenario) != ctx.cache_key(rounded)
        record = ctx.run(scenario)
        direct = summarize(
            run_spec(
                SimulationSpec(
                    benchmark="adpcm",
                    mcd=True,
                    controller=AttackDecayController(params),
                    scale=SCALE,
                    seed=1,
                )
            )
        )
        assert record.summary == direct


class TestEnvironmentValidation:
    def test_malformed_scale_rejected(self, monkeypatch):
        from repro.experiments.executor import benchmark_scale

        monkeypatch.setenv("REPRO_SCALE", "fast")
        with pytest.raises(ExperimentError, match="fast"):
            benchmark_scale()

    def test_non_positive_scale_rejected(self, monkeypatch):
        from repro.experiments.executor import benchmark_scale

        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ExperimentError, match="-1"):
            benchmark_scale()

    def test_unknown_benchmarks_rejected(self, monkeypatch):
        from repro.experiments.executor import quick_benchmarks

        monkeypatch.setenv("REPRO_BENCHMARKS", "adpcm,nonesuch")
        with pytest.raises(ExperimentError, match="nonesuch"):
            quick_benchmarks()

    def test_malformed_workers_rejected(self, monkeypatch):
        from repro.experiments.executor import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ExperimentError, match="many"):
            default_workers()
