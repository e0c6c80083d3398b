#!/usr/bin/env python3
"""Compare every frequency-control policy on a workload mix (Table 6 rows).

Runs a five-benchmark mix under: baseline MCD, Attack/Decay, the
off-line Dynamic-1 %/Dynamic-5 % schedules, and global DVFS matched to
Attack/Decay's degradation — then prints the Table 6 comparison lines.
Results cache under ``results/cache``, so the second run is instant.

Run:  python examples/controller_comparison.py [benchmark ...]
"""

import sys

from repro import Orchestrator, Scenario, aggregate, compare
from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.experiments.builtins import attack_decay_scenario
from repro.sim.paper_results import match_global_frequencies, run_or_raise

DEFAULT_MIX = ["adpcm", "epic", "mcf", "gcc", "swim"]


def main() -> None:
    benchmarks = sys.argv[1:] or DEFAULT_MIX
    orchestrator = Orchestrator()  # REPRO_WORKERS, REPRO_SCALE, REPRO_CACHE

    print(f"Benchmarks: {', '.join(benchmarks)}\n")
    scenarios = []
    for b in benchmarks:
        attack_decay = attack_decay_scenario(b, SCALED_OPERATING_POINT)
        scenarios += [
            Scenario(b, "mcd_base"),
            attack_decay,
            Scenario(b, "dynamic_1"),
            Scenario(b, "dynamic_5"),
        ]
    print(f"running {len(scenarios)} scenarios ...")
    results = run_or_raise(orchestrator, scenarios)
    lines = [
        (label, results.aggregate(configuration, "mcd_base"))
        for label, configuration in (
            ("Attack/Decay", attack_decay.configuration),
            ("Dynamic-1%", "dynamic_1"),
            ("Dynamic-5%", "dynamic_5"),
        )
    ]

    attack_deg = lines[0][1].performance_degradation
    print("running Global (matched to Attack/Decay degradation) ...")
    matches = match_global_frequencies(
        orchestrator, results, {"attack_decay": attack_deg}, benchmarks
    )
    mhz, records = matches["attack_decay"]
    comparisons = {
        b: compare(r.summary, results.get(b, "mcd_base").summary)
        for b, r in records.items()
    }
    lines.append((f"Global @ {mhz:.0f} MHz", aggregate(comparisons)))

    print()
    header = f"{'Algorithm':22s} {'PerfDeg':>8s} {'EnergySav':>10s} {'EDP impr':>9s} {'Ratio':>6s}"
    print(header)
    print("-" * len(header))
    for label, agg in lines:
        print(
            f"{label:22s} {agg.performance_degradation:8.2%} "
            f"{agg.energy_savings:10.2%} {agg.edp_improvement:9.2%} "
            f"{agg.power_performance_ratio:6.1f}"
        )
    print(
        "\nThe MCD + Attack/Decay ratio should sit well above the global-"
        "scaling ratio of ~2 (paper Table 6: 4.6 vs 2.0)."
    )


if __name__ == "__main__":
    main()
