"""Tests for the Table 6 / Figure 4 drivers (tiny scale)."""

import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.mcd import MCDConfig
from repro.dvfs.scale import frequency_scale
from repro.errors import ExperimentError
from repro.experiments import ExecutionContext, Orchestrator, ResultSet, Scenario
from repro.sim.paper_results import (
    TABLE6_ALGORITHMS,
    PaperResults,
    compute_paper_results,
    match_global_frequencies,
)

SCALE = 0.08
BENCHMARKS = ["adpcm", "gsm"]


def serial_global_search(run, benchmarks, target, iterations=7):
    """The per-scenario serial bisection the lockstep search replaced.

    ``run`` executes one scenario and returns its record.  Kept here as
    the oracle for :func:`match_global_frequencies`.
    """
    scale = frequency_scale(MCDConfig())
    bases = {b: run(Scenario(b, "mcd_base")).summary for b in benchmarks}

    def avg_deg_at(index):
        mhz = scale.quantize(float(scale.frequencies_mhz[index]))
        records = {b: run(Scenario(b, f"global@{mhz:.3f}")) for b in benchmarks}
        degs = [
            records[b].summary.wall_time_ns / bases[b].wall_time_ns - 1.0
            for b in benchmarks
        ]
        return sum(degs) / len(degs), records

    lo, hi = 0, len(scale) - 1
    best_index, best_err, best_records = hi, float("inf"), {}
    for _ in range(iterations):
        if lo > hi:
            break
        mid = (lo + hi) // 2
        deg, records = avg_deg_at(mid)
        err = abs(deg - target)
        if err < best_err:
            best_index, best_err, best_records = mid, err, records
        if deg > target:
            lo = mid + 1
        else:
            hi = mid - 1
    return float(scale.frequencies_mhz[best_index]), best_records


def is_global(scenario: Scenario) -> bool:
    return scenario.configuration.startswith("global@")


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """Table 6 on two benchmarks, with every announced outcome recorded."""
    outcomes = []
    orchestrator = Orchestrator(
        cache_dir=tmp_path_factory.mktemp("cache"),
        scale=SCALE,
        seed=1,
        use_cache=True,
        on_outcome=lambda cell, outcome: outcomes.append(outcome),
    )
    results = compute_paper_results(
        orchestrator,
        benchmarks=BENCHMARKS,
        params=SCALED_OPERATING_POINT,
        include_globals=True,
    )
    return results, outcomes


@pytest.fixture(scope="module")
def results(observed) -> PaperResults:
    return observed[0]


class TestPaperResults:
    def test_all_algorithms_present(self, results):
        assert set(results.vs_mcd) == {"attack_decay", "dynamic_1", "dynamic_5"}
        assert "mcd_base" in results.vs_sync

    def test_per_benchmark_coverage(self, results):
        for per_bench in results.vs_mcd.values():
            assert set(per_bench) == {"adpcm", "gsm"}

    def test_table6_has_six_rows(self, results):
        rows = results.table6_rows()
        assert len(rows) == 6
        labels = [r.algorithm for r in rows]
        assert labels[:3] == ["attack_decay", "dynamic_1", "dynamic_5"]
        assert all(l.startswith("Global") for l in labels[3:])

    def test_global_frequencies_in_range(self, results):
        for mhz in results.global_frequency.values():
            assert 250.0 <= mhz <= 1000.0

    def test_aggregates_are_finite(self, results):
        for algorithm in results.vs_mcd:
            agg = results.aggregate_vs_mcd(algorithm)
            assert -1.0 < agg.performance_degradation < 1.0
            assert -1.0 < agg.energy_savings < 1.0


class TestGlobalSearch:
    def test_every_global_step_scenario_runs_once(self, observed, tmp_path):
        results, outcomes = observed
        ctx = ExecutionContext(cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=False)
        visited = []

        def run(scenario):
            visited.append(scenario)
            return ctx.run(scenario)

        for algorithm in TABLE6_ALGORITHMS:
            target = results.aggregate_vs_mcd(algorithm).performance_degradation
            mhz, _ = serial_global_search(run, BENCHMARKS, target)
            assert results.global_frequency[algorithm] == mhz
        finished = [o.scenario for o in outcomes if is_global(o.scenario)]
        # Each scenario the searches visit runs once, however many
        # algorithms or steps visit it.
        assert len(finished) == len(set(finished))
        assert set(finished) == {s for s in visited if is_global(s)}

    def test_an_exception_after_the_first_step_stops_the_search(
        self, tmp_path, monkeypatch
    ):
        class SearchStop(Exception):
            pass

        started = []
        run_isolated = ExecutionContext.run_isolated

        def recording(ctx, scenario):
            started.append(scenario)
            return run_isolated(ctx, scenario)

        monkeypatch.setattr(ExecutionContext, "run_isolated", recording)
        finished = []

        def on_outcome(cell, outcome):
            if is_global(outcome.scenario):
                finished.append(outcome.scenario)
                if len(finished) == len(BENCHMARKS):
                    raise SearchStop  # the first Global step is complete

        orchestrator = Orchestrator(
            cache_dir=tmp_path, scale=SCALE, use_cache=False, on_outcome=on_outcome
        )
        with pytest.raises(SearchStop):
            compute_paper_results(orchestrator, benchmarks=BENCHMARKS)
        steps = {s.configuration for s in started if is_global(s)}
        assert len(steps) == 1
        assert len(finished) == len(BENCHMARKS)

    def test_lockstep_search_matches_the_serial_oracle(self, tmp_path):
        benchmarks = ["adpcm", "gsm", "mcf"]
        targets = {"low": 0.02, "mid": 0.05, "high": 0.10}
        orchestrator = Orchestrator(
            workers=2, backend="thread", cache_dir=tmp_path, scale=SCALE,
            use_cache=False,
        )
        base = orchestrator.run([Scenario(b, "mcd_base") for b in benchmarks])
        matches = match_global_frequencies(orchestrator, base, targets, benchmarks)
        ctx = ExecutionContext(cache_dir=tmp_path, scale=SCALE, seed=1, use_cache=False)
        for label, target in targets.items():
            assert matches[label] == serial_global_search(ctx.run, benchmarks, target)
        # The three searches part ways, so the differential covers
        # steps that run different frequencies side by side.
        assert len({mhz for mhz, _ in matches.values()}) > 1

    def test_search_needs_benchmarks(self, tmp_path):
        orchestrator = Orchestrator(cache_dir=tmp_path, scale=SCALE, use_cache=False)
        with pytest.raises(ExperimentError, match="needs benchmarks"):
            match_global_frequencies(orchestrator, ResultSet([]), {"x": 0.05}, [])


class TestExperimentsWriter:
    def test_build_produces_markdown(self):
        from repro.reporting.experiments import build

        text = build()
        assert text.startswith("# EXPERIMENTS")
        assert "Table 6" in text
        assert "Figure 4" in text
