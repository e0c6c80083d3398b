"""Parameter sweeps for the sensitivity analyses (Figures 5-7).

The paper sweeps one Attack/Decay parameter at a time through its
Table 2 range while holding the others at a stated operating point
(given in each figure's legend, e.g. ``1.500_04.0_X.XXX_3.0``), then
plots the averaged energy-delay-product improvement and
power/performance ratio against the swept value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config.algorithm import ATTACK_DECAY_PARAMETER_RANGES, AttackDecayParams
from repro.errors import ExperimentError
from repro.experiments.builtins import attack_decay_scenario
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.scenario import Scenario
from repro.metrics.aggregate import AggregateResult, aggregate
from repro.metrics.summary import compare
from repro.sim.paper_results import run_or_raise

#: Figure legends: the fixed operating points used for each sweep.
FIGURE6_BASE = {
    "decay_pct": AttackDecayParams(
        deviation_threshold_pct=1.5, reaction_change_pct=4.0, perf_deg_threshold_pct=3.0
    ),
    "reaction_change_pct": AttackDecayParams(
        deviation_threshold_pct=1.5, decay_pct=0.75, perf_deg_threshold_pct=3.0
    ),
    "deviation_threshold_pct": AttackDecayParams(
        reaction_change_pct=6.0, decay_pct=0.175, perf_deg_threshold_pct=2.5
    ),
}

#: Figure 5 legend: 1.000_06.0_1.250_X.X.
FIGURE5_BASE = AttackDecayParams(
    deviation_threshold_pct=1.0, reaction_change_pct=6.0, decay_pct=1.25
)

_SWEEPABLE = {
    "decay_pct": "decay",
    "reaction_change_pct": "reaction_change",
    "deviation_threshold_pct": "deviation_threshold",
    "perf_deg_threshold_pct": "perf_deg_threshold",
    "endstop_intervals": "endstop_count",
}


@dataclass(frozen=True)
class SweepPoint:
    """One swept value and the averaged statistics it produced."""

    value: float
    aggregate: AggregateResult


def sweep_attack_decay_parameter(
    orchestrator: Orchestrator,
    parameter: str,
    values: Sequence[float],
    benchmarks: Sequence[str],
    base_params: AttackDecayParams | None = None,
) -> list[SweepPoint]:
    """Sweep one parameter; aggregate vs the baseline MCD processor.

    Every value x benchmark Attack/Decay scenario, plus one
    ``mcd_base`` per benchmark, runs as one orchestrator sweep; a
    failed run raises :class:`~repro.errors.ExperimentError` naming it.

    Parameters
    ----------
    orchestrator:
        Runs the sweep (workers, cache, scale and seed).
    parameter:
        Field name on :class:`AttackDecayParams`
        (e.g. ``"decay_pct"``).
    values:
        Values to sweep (validated against the Table 2 range;
        ``endstop_intervals`` values must be whole numbers).
    benchmarks:
        Benchmark subset to average over.
    base_params:
        The fixed operating point; defaults to the figure's legend
        value when the parameter has one.
    """
    if parameter not in _SWEEPABLE:
        raise ExperimentError(
            f"unknown sweep parameter {parameter!r}; options: {sorted(_SWEEPABLE)}"
        )
    if not benchmarks:
        raise ExperimentError("sweep needs at least one benchmark")
    rng = ATTACK_DECAY_PARAMETER_RANGES[_SWEEPABLE[parameter]]
    if base_params is None:
        base_params = FIGURE6_BASE.get(parameter, AttackDecayParams())
    scenarios = [Scenario(bench, "mcd_base") for bench in benchmarks]
    for value in values:
        if not rng.contains(value):
            raise ExperimentError(
                f"{parameter}={value} outside Table 2 range [{rng.low}, {rng.high}]"
            )
        if parameter == "endstop_intervals":
            if value != int(value):
                raise ExperimentError(
                    f"endstop_intervals={value} is not a whole number of intervals"
                )
            params = base_params.with_(endstop_intervals=int(value))
        else:
            params = base_params.with_(**{parameter: value})
        scenarios.extend(attack_decay_scenario(bench, params) for bench in benchmarks)
    width = len(benchmarks)
    records = run_or_raise(orchestrator, scenarios).records
    bases = {r.benchmark: r.summary for r in records[:width]}
    points: list[SweepPoint] = []
    for i, value in enumerate(values, start=1):
        row = records[i * width : (i + 1) * width]
        comparisons = {r.benchmark: compare(r.summary, bases[r.benchmark]) for r in row}
        points.append(SweepPoint(value=value, aggregate=aggregate(comparisons)))
    return points


def sweep_perf_deg_target(
    orchestrator: Orchestrator,
    targets_pct: Sequence[float],
    benchmarks: Sequence[str],
    base_params: AttackDecayParams | None = None,
) -> list[SweepPoint]:
    """Figure 5: sweep the PerfDegThreshold (the degradation target)."""
    return sweep_attack_decay_parameter(
        orchestrator,
        "perf_deg_threshold_pct",
        targets_pct,
        benchmarks,
        base_params=base_params if base_params is not None else FIGURE5_BASE,
    )
