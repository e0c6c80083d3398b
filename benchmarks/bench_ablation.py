"""Ablations of design choices called out in Section 3.1 / docs/design.md.

* **literal vs corrected PerfDegThreshold guard** — as printed,
  Listing 1's guard is a tautology (docs/design.md substitution #4);
  measuring both shows what the guard buys.
* **endstop forcing on/off** — the paper reports insensitivity between
  2 and 25 intervals but degradation with an infinite endstop.
* **fixed vs scaled-error attack** — the paper argues a fixed
  adjustment cannot oscillate; a huge ReactionChange emulates the
  overshoot a scaled error would risk.
"""

from conftest import SWEEP_BENCHMARKS, pct, save_results

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.experiments import Scenario
from repro.experiments.builtins import attack_decay_scenario
from repro.reporting.tables import format_table

ABLATION_BENCHMARKS = SWEEP_BENCHMARKS[:5]


def measure(orchestrator, label, params, literal_listing=False):
    scenarios = [Scenario(b, "mcd_base") for b in ABLATION_BENCHMARKS]
    scenarios += [
        attack_decay_scenario(b, params, literal_listing)
        for b in ABLATION_BENCHMARKS
    ]
    results = orchestrator.run(scenarios)
    agg = results.aggregate(scenarios[-1].configuration, reference="mcd_base")
    return (
        label,
        pct(agg.performance_degradation),
        pct(agg.energy_savings),
        pct(agg.edp_improvement),
        f"{agg.power_performance_ratio:.1f}",
    )


def run_ablations(orchestrator):
    rows = [
        measure(orchestrator, "corrected guard (default)", SCALED_OPERATING_POINT),
        measure(
            orchestrator,
            "literal Listing-1 guard",
            SCALED_OPERATING_POINT,
            literal_listing=True,
        ),
        measure(
            orchestrator,
            "endstop effectively infinite",
            SCALED_OPERATING_POINT.with_(endstop_intervals=10_000),
        ),
        measure(
            orchestrator,
            "overshooting attack (RC=15.5%)",
            SCALED_OPERATING_POINT.with_(reaction_change_pct=15.5),
        ),
        measure(
            orchestrator,
            "timid attack (RC=0.5%)",
            SCALED_OPERATING_POINT.with_(reaction_change_pct=0.5),
        ),
    ]
    return rows


def test_ablations(benchmark, orchestrator):
    rows = benchmark.pedantic(
        run_ablations, args=(orchestrator,), rounds=1, iterations=1
    )
    table = format_table(
        ["Variant", "Perf Deg", "Energy Savings", "EDP Impr", "Ratio"],
        rows,
        title="Ablations (5-benchmark subset, vs baseline MCD).",
    )
    print("\n" + table)
    save_results("ablation", {"rows": rows})
    labels = [r[0] for r in rows]
    assert "corrected guard (default)" in labels
    assert len(rows) == 5
