"""Workload algebra: operator laws plus the differential fuzz harness.

The load-bearing property of the whole workload subsystem is that a
*composed* workload — any combination of ``concat``/``interleave``/
``repeat``/``scale``/``perturb``/``splice`` over catalog entries — runs
byte-identically through both core interpreters (the pure-Python
reference over the generator trace, the native C loop over the compiled
trace).  The fuzz harness below draws ~50 seeded random compositions
and asserts exactly that, so new operators or derived scenarios can
never silently drift results between paths.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import WorkloadError
from repro.metrics.summary import summarize
from repro.sim.engine import scaled_mcd_config
from repro.uarch import native
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads import algebra
from repro.workloads.catalog import (
    BENCHMARKS,
    CATALOG_INTERVAL_INSTRUCTIONS,
    get_benchmark,
)
from repro.workloads.derived import DERIVED_BENCHMARKS


# ------------------------------------------------------------- operators
class TestConcat:
    def test_lengths_add(self):
        a, b = get_benchmark("adpcm"), get_benchmark("gsm")
        combined = algebra.concat(a, b)
        assert combined.sim_instructions == a.sim_instructions + b.sim_instructions
        assert len(combined.phases) == len(a.phases) + len(b.phases)

    def test_needs_two_operands(self):
        with pytest.raises(WorkloadError):
            algebra.concat(get_benchmark("adpcm"))

    def test_operands_unchanged(self):
        a = get_benchmark("adpcm")
        before = a.phases
        algebra.concat(a, get_benchmark("gsm"))
        assert a.phases == before


class TestRepeat:
    def test_multiplies_length(self):
        spec = algebra.repeat(get_benchmark("adpcm"), 3)
        assert spec.sim_instructions == 3 * get_benchmark("adpcm").sim_instructions

    def test_rejects_zero(self):
        with pytest.raises(WorkloadError):
            algebra.repeat(get_benchmark("adpcm"), 0)


class TestScale:
    def test_scales_every_phase(self):
        spec = algebra.scale(get_benchmark("epic"), 0.5)
        for scaled_p, orig_p in zip(spec.phases, get_benchmark("epic").phases):
            assert scaled_p.instructions == max(1, round(orig_p.instructions * 0.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            algebra.scale(get_benchmark("epic"), 0.0)


class TestInterleave:
    def test_preserves_total_length(self):
        a, b = get_benchmark("adpcm"), get_benchmark("swim")
        spec = algebra.interleave(a, b, quantum=3000)
        assert spec.sim_instructions == a.sim_instructions + b.sim_instructions

    def test_alternates_sources(self):
        a, b = get_benchmark("adpcm"), get_benchmark("swim")
        spec = algebra.interleave(a, b, quantum=5000)
        origins = [p.name.split(".")[0] for p in spec.phases]
        assert origins[0] != origins[1]  # the head actually alternates
        assert {"adpcm", "swim"} == set(origins)

    def test_rejects_bad_quantum(self):
        with pytest.raises(WorkloadError):
            algebra.interleave(
                get_benchmark("adpcm"), get_benchmark("swim"), quantum=0
            )


class TestSplice:
    def test_preserves_material(self):
        outer, inner = get_benchmark("gsm"), get_benchmark("adpcm")
        spec = algebra.splice(outer, inner, at=40_000)
        assert spec.sim_instructions == (
            outer.sim_instructions + inner.sim_instructions
        )
        # The cut phase appears twice (head + tail around the insert).
        assert len(spec.phases) == len(outer.phases) + len(inner.phases) + 1

    def test_rejects_out_of_range_offsets(self):
        outer, inner = get_benchmark("gsm"), get_benchmark("adpcm")
        for at in (0, outer.sim_instructions, -5):
            with pytest.raises(WorkloadError):
                algebra.splice(outer, inner, at=at)


class TestSplitPhase:
    def test_halves_sum(self):
        phase = get_benchmark("adpcm").phases[0]
        head, tail = algebra.split_phase(phase, 1000)
        assert head.instructions == 1000
        assert head.instructions + tail.instructions == phase.instructions
        assert head.mix == phase.mix

    def test_rejects_degenerate_cuts(self):
        phase = get_benchmark("adpcm").phases[0]
        with pytest.raises(WorkloadError):
            algebra.split_phase(phase, phase.instructions)


class TestPerturb:
    def test_deterministic(self):
        a = algebra.perturb(get_benchmark("epic"), seed=3)
        b = algebra.perturb(get_benchmark("epic"), seed=3)
        assert a.phases == b.phases

    def test_seed_changes_result(self):
        a = algebra.perturb(get_benchmark("epic"), seed=3)
        b = algebra.perturb(get_benchmark("epic"), seed=4)
        assert a.phases != b.phases

    def test_always_valid(self):
        # Even extreme strengths must stay inside Phase's legal ranges
        # (Phase.__post_init__ would raise otherwise).
        for seed in range(8):
            spec = algebra.perturb(get_benchmark("mcf"), seed=seed, strength=1.5)
            spec.build_trace()

    def test_rejects_nonpositive_strength(self):
        with pytest.raises(WorkloadError):
            algebra.perturb(get_benchmark("epic"), seed=1, strength=0.0)


class TestDerivedCatalog:
    def test_at_least_twenty_registered(self):
        assert len(DERIVED_BENCHMARKS) >= 20

    def test_names_resolve_through_get_benchmark(self):
        for name in DERIVED_BENCHMARKS:
            assert get_benchmark(name).name == name

    def test_no_catalog_collisions(self):
        assert not set(DERIVED_BENCHMARKS) & set(BENCHMARKS)

    def test_derived_names_cannot_be_squatted(self):
        # Even before anything touched the derived catalog in this
        # process, registering one of its names must fail: the registry
        # resolves the derived catalog first.
        from repro.workloads.catalog import register_benchmark

        with pytest.raises(WorkloadError):
            register_benchmark(
                algebra.derived_spec(
                    "memory_wall", list(get_benchmark("adpcm").phases), seed=1
                )
            )

    def test_all_build_valid_traces(self):
        for spec in DERIVED_BENCHMARKS.values():
            trace = spec.build_trace(scale=0.01)
            assert trace.total_instructions > 0

    def test_marks_partition_traces(self):
        for spec in DERIVED_BENCHMARKS.values():
            marks = spec.phase_marks(0.05)
            trace = spec.build_trace(scale=0.05)
            assert marks[-1][1] == trace.total_instructions


# ------------------------------------------------------- differential fuzz
#: Small bases the fuzzer composes (scaled right down so ~50 cases
#: stay fast); chosen to span int/fp/memory/branchy characters.
_BASES = ("adpcm", "epic", "mcf", "swim", "parser", "art", "g721", "health")


def _random_composition(rng: random.Random):
    """One seeded random composed workload, ~1-4k instructions."""
    a = algebra.scale(
        get_benchmark(rng.choice(_BASES)), rng.uniform(0.008, 0.02)
    )
    b = algebra.scale(
        get_benchmark(rng.choice(_BASES)), rng.uniform(0.008, 0.02)
    )
    op = rng.randrange(6)
    if op == 0:
        spec = algebra.concat(a, b)
    elif op == 1:
        spec = algebra.interleave(a, b, quantum=rng.randrange(200, 1200))
    elif op == 2:
        spec = algebra.repeat(a, rng.randrange(2, 4))
    elif op == 3:
        spec = algebra.scale(a, rng.uniform(0.5, 2.0))
    elif op == 4:
        spec = algebra.perturb(a, seed=rng.randrange(1000), strength=rng.uniform(0.1, 0.8))
    else:
        total = a.sim_instructions
        spec = algebra.splice(a, b, at=rng.randrange(1, total))
    if rng.random() < 0.3:  # occasionally stack a second operator
        spec = algebra.perturb(spec, seed=rng.randrange(1000))
    return spec


def _run_path(spec, trace, mcd: bool, controller: bool, seed: int):
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=(
            AttackDecayController(SCALED_OPERATING_POINT) if controller else None
        ),
        options=CoreOptions(
            mcd=mcd,
            seed=seed,
            interval_instructions=CATALOG_INTERVAL_INSTRUCTIONS,
            record_interval_trace=True,
        ),
    )
    core.warm_up(trace, limit=trace.total_instructions)
    return core.run()


needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)


@needs_native
class TestDifferentialFuzz:
    """Seeded compositions are byte-identical on both interpreters."""

    @pytest.mark.parametrize("case", range(50))
    def test_three_paths_agree(self, case):
        rng = random.Random(6400 + case)
        spec = _random_composition(rng)
        mcd = case % 3 != 2  # mostly MCD, every third fully synchronous
        controller = mcd and case % 2 == 0
        seed = 1 + case % 5

        reference = _run_path(spec, spec.build_trace(), mcd, controller, seed)
        compiled = compile_trace(spec.build_trace())
        result = _run_path(spec, compiled, mcd, controller, seed)

        assert summarize(result) == summarize(reference), (
            f"case {case} ({spec.datasets}): native path diverged"
        )
        # Interval samples (incl. cumulative energy) must align too:
        # per-phase attribution depends on them being path-invariant.
        assert [
            (r.end_instruction, r.end_time_ns, r.energy, r.memory_accesses)
            for r in result.intervals
        ] == [
            (r.end_instruction, r.end_time_ns, r.energy, r.memory_accesses)
            for r in reference.intervals
        ], f"case {case} ({spec.datasets}): native intervals diverged"


@needs_native
class TestClosedLoopNativeFuzz:
    """Closed-loop attack/decay runs are byte-identical on both paths.

    Unlike :class:`TestDifferentialFuzz` (which records interval
    traces, forcing the native loop onto its per-interval Python
    callback), these cases run without interval recording — the exact
    configuration where the native loop executes Listing 1 *inside C*
    with zero per-interval Python crossings.  Each case asserts the
    RunSummary, the per-domain controller diagnostics
    (``DomainControlState``), the regulator request statistics and the
    smoothed-IPC registers all match the reference interpreter, for both
    ``literal_listing`` variants, and asserts the native path never
    called ``on_interval``.
    """

    @pytest.mark.parametrize("case", range(16))
    def test_paths_and_diagnostics_agree(self, case, monkeypatch):
        rng = random.Random(7300 + case)
        spec = _random_composition(rng)
        literal = case % 2 == 1
        mcd = case % 4 != 3  # mostly MCD, every fourth fully synchronous
        seed = 1 + case % 5

        calls = {"n": 0}
        orig_on_interval = AttackDecayController.on_interval

        def counting(self, snapshot):
            calls["n"] += 1
            return orig_on_interval(self, snapshot)

        monkeypatch.setattr(AttackDecayController, "on_interval", counting)

        def run(path):
            if path == "generator":
                trace = spec.build_trace()
            else:
                trace = compile_trace(spec.build_trace())
            controller = AttackDecayController(
                SCALED_OPERATING_POINT, literal_listing=literal
            )
            core = MCDCore(
                processor=ProcessorConfig(),
                mcd_config=scaled_mcd_config(),
                trace=trace,
                controller=controller,
                options=CoreOptions(
                    mcd=mcd,
                    seed=seed,
                    interval_instructions=CATALOG_INTERVAL_INSTRUCTIONS,
                ),
            )
            core.warm_up(trace, limit=trace.total_instructions)
            result = core.run()
            return (
                summarize(result),
                {d: dataclasses.asdict(s) for d, s in controller.states.items()},
                [dataclasses.asdict(r.stats) for r in core.regulators],
                controller.prev_ipc,
                controller._smoothed_ipc,
            )

        reference = run("generator")
        assert calls["n"] > 0, f"case {case}: no control intervals exercised"
        calls["n"] = 0
        native_run = run("native")
        assert calls["n"] == 0, (
            f"case {case}: native closed loop crossed into Python"
        )
        assert native_run == reference, f"case {case}: native path diverged"


class TestRuntimeRegistrationIdentity:
    """Re-registering a name must not be served the old trace's cache."""

    def test_cache_key_tracks_reregistered_trace(self, tmp_path):
        from repro.experiments.executor import ExecutionContext
        from repro.experiments.scenario import Scenario
        from repro.workloads.catalog import register_benchmark

        ctx = ExecutionContext(cache_dir=tmp_path, scale=0.05, seed=1)
        scenario = Scenario("rereg_test", "mcd_base")
        register_benchmark(
            algebra.scale(get_benchmark("adpcm"), 0.5, name="rereg_test"),
            replace=True,
        )
        key_a = ctx.cache_key(scenario)
        register_benchmark(
            algebra.scale(get_benchmark("swim"), 0.5, name="rereg_test"),
            replace=True,
        )
        key_b = ctx.cache_key(scenario)
        assert key_a != key_b
        # Catalog names keep their stable name-based identity.
        catalog_key = ctx.cache_key(Scenario("adpcm", "mcd_base"))
        assert catalog_key == ctx.cache_key(Scenario("adpcm", "mcd_base"))


class TestEtfReExport:
    def test_imported_trace_re_exports(self, tmp_path):
        """ExternalBenchmark survives export_benchmark (no generator seed)."""
        from repro.uarch.etf import export_benchmark, read_etf

        first = tmp_path / "a.etf"
        export_benchmark(get_benchmark("adpcm"), first, scale=0.05)
        imported = read_etf(first)
        second = tmp_path / "b.etf"
        checksum = export_benchmark(imported, second)
        again = read_etf(second)
        assert again.checksum == checksum == imported.checksum
        assert again.phase_marks() == imported.phase_marks()
        assert again.meta["source"] == "re-exported ETF"


class TestEtfRoundTripFuzz:
    """Composed workloads survive export -> import bit-exactly."""

    @needs_native
    @pytest.mark.parametrize("case", range(5))
    def test_round_trip_reproduces_summary(self, case, tmp_path):
        from repro.uarch.compiled_trace import trace_columns
        from repro.uarch.etf import export_trace, read_etf

        rng = random.Random(900 + case)
        spec = _random_composition(rng)
        columns = trace_columns(spec.build_trace())
        path = tmp_path / f"fuzz{case}.etf"
        export_trace(
            path,
            columns,
            name=spec.name,
            interval_instructions=spec.interval_instructions,
            phases=spec.phase_marks(),
        )
        imported = read_etf(path)
        original = _run_path(
            spec, compile_trace(spec.build_trace()), True, True, 1
        )
        replayed = _run_path(
            imported,
            compile_trace(imported.build_trace()),
            True,
            True,
            1,
        )
        assert summarize(replayed) == summarize(original)
        assert imported.phase_marks() == spec.phase_marks()
