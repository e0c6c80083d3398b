"""Table 6 — Attack/Decay vs Dynamic-1 %/5 % vs Global(...).

The paper's headline comparison: performance degradation, energy
savings, energy-delay-product improvement and the power-savings to
performance-degradation ratio of each algorithm, all relative to the
baseline MCD processor (every domain at 1 GHz), averaged over the
30-benchmark suite.  The ``Global(...)`` rows run the fully synchronous
processor at the single chip-wide frequency whose average degradation
matches the corresponding algorithm.

Paper values: Attack/Decay 3.2 % / 19.0 % / 16.7 % / 4.6;
Dynamic-1 % 3.4 % / 21.9 % / 19.6 % / 5.1; Dynamic-5 % 8.7 % / 33.0 %
/ 27.5 % / 3.8; Global rows at ratio ~2.
"""

from conftest import pct, save_results

from repro.reporting.tables import format_table
from repro.sim.paper_results import compute_paper_results


def build_table6(orchestrator):
    results = compute_paper_results(orchestrator)
    rows = results.table6_rows()
    display = [
        (
            r.algorithm,
            pct(r.performance_degradation),
            pct(r.energy_savings),
            pct(r.edp_improvement),
            f"{r.power_performance_ratio:.1f}",
        )
        for r in rows
    ]
    table = format_table(
        [
            "Algorithm",
            "Performance Degradation",
            "Energy Savings",
            "Energy-Delay Improvement",
            "Power/Perf Ratio",
        ],
        display,
        title="Table 6. Comparison relative to a baseline MCD processor.",
    )
    return table, results


def test_table6(benchmark, orchestrator):
    table, results = benchmark.pedantic(
        build_table6, args=(orchestrator,), rounds=1, iterations=1
    )
    print("\n" + table)
    rows = {r.algorithm: r for r in results.table6_rows()}
    save_results(
        "table6",
        {
            "rows": {k: vars(v) for k, v in rows.items()},
            "global_frequency_mhz": results.global_frequency,
            "benchmarks": results.benchmarks,
        },
    )
    ad = rows["attack_decay"]
    d1 = rows["dynamic_1"]
    d5 = rows["dynamic_5"]
    # Shape assertions (who wins, roughly by how much):
    # the on-line algorithm keeps degradation small with a high ratio...
    assert 0.0 < ad.performance_degradation < 0.08
    assert ad.energy_savings > 0.05
    assert ad.power_performance_ratio > 3.0
    # ... Dynamic-5% saves more energy at much higher degradation ...
    assert d5.energy_savings > ad.energy_savings
    assert d5.performance_degradation > d1.performance_degradation
    # ... and global scaling is far less efficient than the MCD
    # algorithm it is matched against (paper: ratio ~2 vs 4-5, EDP
    # roughly halved).
    for algo in ("attack_decay", "dynamic_1", "dynamic_5"):
        g = rows[f"Global ({algo})"]
        assert g.power_performance_ratio < rows[algo].power_performance_ratio
        assert g.edp_improvement < rows[algo].edp_improvement
        assert g.energy_savings < rows[algo].energy_savings + 0.02
