"""High-level drivers that assemble the paper's headline artifacts.

Every run behind Table 6 and Figure 4 goes through one
:class:`~repro.experiments.orchestrator.Orchestrator`: the base matrix
is one sweep, and each step of the ``Global (...)`` frequency searches
is another, so the whole artifact gets the orchestrator's worker pool,
batch cells and ``on_outcome`` callback.  Every comparison is
derived from the returned :class:`~repro.experiments.results.ResultSet`
objects, so the bench harness, the examples and the tests all share
one implementation and one results cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.config.algorithm import AttackDecayParams, SCALED_OPERATING_POINT
from repro.config.mcd import MCDConfig
from repro.dvfs.scale import frequency_scale
from repro.errors import ExperimentError
from repro.experiments.builtins import attack_decay_scenario
from repro.experiments.executor import quick_benchmarks
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.results import ResultSet, RunRecord
from repro.experiments.scenario import Scenario
from repro.metrics.aggregate import AggregateResult, aggregate
from repro.metrics.summary import Comparison, compare

#: Algorithms reported in Table 6 / Figure 4, in paper order.
TABLE6_ALGORITHMS = ("attack_decay", "dynamic_1", "dynamic_5")


@dataclass
class Table6Row:
    """One algorithm's aggregate line of Table 6."""

    algorithm: str
    performance_degradation: float
    energy_savings: float
    edp_improvement: float
    power_performance_ratio: float


@dataclass
class PaperResults:
    """Everything Table 6 and Figure 4 need, from one set of runs."""

    benchmarks: list[str]
    #: algorithm -> benchmark -> comparison vs the baseline MCD processor.
    vs_mcd: dict[str, dict[str, Comparison]] = field(default_factory=dict)
    #: configuration -> benchmark -> comparison vs the fully synchronous
    #: processor (Figure 4 reference), including "mcd_base" itself.
    vs_sync: dict[str, dict[str, Comparison]] = field(default_factory=dict)
    #: algorithm -> the matched global frequency (MHz).
    global_frequency: dict[str, float] = field(default_factory=dict)
    #: "global(<algorithm>)" -> benchmark -> comparison vs baseline MCD.
    global_vs_mcd: dict[str, dict[str, Comparison]] = field(default_factory=dict)

    def aggregate_vs_mcd(self, algorithm: str) -> AggregateResult:
        """Suite-average statistics vs the baseline MCD processor."""
        return aggregate(self.vs_mcd[algorithm])

    def table6_rows(self) -> list[Table6Row]:
        """The six lines of Table 6 (three algorithms, three globals)."""
        rows = []
        for algorithm in TABLE6_ALGORITHMS:
            agg = self.aggregate_vs_mcd(algorithm)
            rows.append(
                Table6Row(
                    algorithm=algorithm,
                    performance_degradation=agg.performance_degradation,
                    energy_savings=agg.energy_savings,
                    edp_improvement=agg.edp_improvement,
                    power_performance_ratio=agg.power_performance_ratio,
                )
            )
        for algorithm in TABLE6_ALGORITHMS:
            agg = aggregate(self.global_vs_mcd[f"global({algorithm})"])
            rows.append(
                Table6Row(
                    algorithm=f"Global ({algorithm})",
                    performance_degradation=agg.performance_degradation,
                    energy_savings=agg.energy_savings,
                    edp_improvement=agg.edp_improvement,
                    power_performance_ratio=agg.power_performance_ratio,
                )
            )
        return rows


def paper_suite_scenarios(
    benchmarks: list[str], params: AttackDecayParams = SCALED_OPERATING_POINT
) -> tuple[list[Scenario], dict[str, str]]:
    """The Table 6 / Figure 4 base matrix and its algorithm->name map.

    Returns the scenario list (baselines plus the three algorithms on
    every benchmark) and the mapping from the paper's algorithm labels
    to the registry configuration names actually run.
    """
    sample = attack_decay_scenario("_", params)
    names = {
        "sync": "sync",
        "mcd_base": "mcd_base",
        "attack_decay": sample.configuration,
        "dynamic_1": "dynamic_1",
        "dynamic_5": "dynamic_5",
    }
    scenarios = []
    for benchmark in benchmarks:
        scenarios.append(Scenario(benchmark, "sync"))
        scenarios.append(Scenario(benchmark, "mcd_base"))
        scenarios.append(attack_decay_scenario(benchmark, params))
        scenarios.append(Scenario(benchmark, "dynamic_1"))
        scenarios.append(Scenario(benchmark, "dynamic_5"))
    return scenarios, names


def run_or_raise(
    orchestrator: Orchestrator, scenarios: Sequence[Scenario]
) -> ResultSet:
    """Run ``scenarios`` as one sweep; raise if any run failed.

    The :class:`~repro.errors.ExperimentError` names the first failed
    scenario and carries its traceback.
    """
    results = orchestrator.run(scenarios)
    if results.errors:
        first = results.errors[0]
        raise ExperimentError(
            f"{len(results.errors)} run(s) failed; first "
            f"({first.scenario.run_id}):\n{first.error}"
        )
    return results


@dataclass
class _Bisection:
    """One algorithm's search state over the frequency-scale indices."""

    lo: int
    hi: int
    best_index: int
    best_err: float = float("inf")
    best_records: dict[str, RunRecord] = field(default_factory=dict)


def match_global_frequencies(
    orchestrator: Orchestrator,
    base: ResultSet,
    targets: Mapping[str, float],
    benchmarks: Sequence[str],
    iterations: int = 7,
) -> dict[str, tuple[float, dict[str, RunRecord]]]:
    """The paper's ``Global (...)`` rows: one chip-wide frequency each.

    For every ``targets`` entry (a label mapped to a suite-average
    degradation, a fraction such as 0.032), bisect the quantised
    frequency scale for the single global frequency whose average
    degradation of ``global@<mhz>`` versus ``mcd_base`` over
    ``benchmarks`` comes closest.  Run time falls as frequency rises:
    a step whose average degradation exceeds the target searches the
    faster half, any other step the slower half, and the best step is
    the first with the smallest error.

    The searches advance in lockstep.  Each step runs the scenarios no
    earlier step (of any search) has run as one orchestrator sweep;
    the ``mcd_base`` baselines come from ``base``, the base matrix's
    result set.  Returns label -> (frequency in MHz, benchmark -> the
    run at that frequency).
    """
    if not benchmarks:
        raise ExperimentError("match_global_frequencies needs benchmarks")
    scale = frequency_scale(MCDConfig())
    baselines = {b: base.get(b, "mcd_base").summary for b in benchmarks}
    searches = {
        label: _Bisection(lo=0, hi=len(scale) - 1, best_index=len(scale) - 1)
        for label in targets
    }
    runs: dict[tuple[str, str], RunRecord] = {}
    for _ in range(iterations):
        steps = {
            label: (search.lo + search.hi) // 2
            for label, search in searches.items()
            if search.lo <= search.hi
        }
        if not steps:
            break
        configurations = {
            label: f"global@{scale.quantize(float(scale.frequencies_mhz[mid])):.3f}"
            for label, mid in steps.items()
        }
        pending = [
            Scenario(b, configuration)
            for configuration in dict.fromkeys(configurations.values())
            for b in benchmarks
            if (b, configuration) not in runs
        ]
        if pending:
            for outcome in run_or_raise(orchestrator, pending):
                scenario = outcome.scenario
                runs[(scenario.benchmark, scenario.configuration)] = outcome.record
        for label, mid in steps.items():
            search = searches[label]
            records = {b: runs[(b, configurations[label])] for b in benchmarks}
            degs = [
                records[b].summary.wall_time_ns / baselines[b].wall_time_ns - 1.0
                for b in benchmarks
            ]
            deg = sum(degs) / len(degs)
            err = abs(deg - targets[label])
            if err < search.best_err:
                search.best_index, search.best_err = mid, err
                search.best_records = records
            if deg > targets[label]:
                search.lo = mid + 1  # too slow on average: raise frequency
            else:
                search.hi = mid - 1
    return {
        label: (float(scale.frequencies_mhz[search.best_index]), search.best_records)
        for label, search in searches.items()
    }


def compute_paper_results(
    orchestrator: Orchestrator | None = None,
    benchmarks: list[str] | None = None,
    params: AttackDecayParams = SCALED_OPERATING_POINT,
    include_globals: bool = True,
) -> PaperResults:
    """Run (or load from cache) everything behind Table 6 and Figure 4.

    ``orchestrator`` runs the base matrix and, with ``include_globals``,
    every step of the matched ``Global(...)`` searches (see
    :func:`match_global_frequencies`); the default is an
    ``Orchestrator()`` configured from the environment
    (``REPRO_WORKERS``, ``REPRO_SCALE``, ``REPRO_CACHE``, ...).
    """
    orchestrator = orchestrator if orchestrator is not None else Orchestrator()
    benchmarks = benchmarks if benchmarks is not None else quick_benchmarks()
    results = PaperResults(benchmarks=list(benchmarks))

    scenarios, names = paper_suite_scenarios(list(benchmarks), params)
    result_set = run_or_raise(orchestrator, scenarios)

    for algorithm in TABLE6_ALGORITHMS:
        configuration = names[algorithm]
        results.vs_mcd[algorithm] = result_set.compare(configuration, "mcd_base")
        results.vs_sync[algorithm] = result_set.compare(configuration, "sync")
    results.vs_sync["mcd_base"] = result_set.compare("mcd_base", "sync")

    if include_globals:
        targets = {
            algorithm: results.aggregate_vs_mcd(algorithm).performance_degradation
            for algorithm in TABLE6_ALGORITHMS
        }
        matches = match_global_frequencies(
            orchestrator, result_set, targets, benchmarks
        )
        bases = result_set.summaries("mcd_base")
        for algorithm, (mhz, records) in matches.items():
            results.global_frequency[algorithm] = mhz
            results.global_vs_mcd[f"global({algorithm})"] = {
                b: compare(r.summary, bases[b]) for b, r in records.items()
            }
    return results
