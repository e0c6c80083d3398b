"""Figure 7 — power/performance-ratio sensitivity (same sweeps as Fig 6)."""

from conftest import SWEEP_BENCHMARKS, save_results

from repro.reporting.figures import ascii_chart
from repro.sim.sweeps import sweep_attack_decay_parameter

SWEEPS = {
    "decay_pct": [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
    "reaction_change_pct": [0.5, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0],
    "deviation_threshold_pct": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
}


def run_all(orchestrator):
    results = {}
    for parameter, values in SWEEPS.items():
        results[parameter] = sweep_attack_decay_parameter(
            orchestrator, parameter, values, SWEEP_BENCHMARKS
        )
    return results


def test_figure7(benchmark, orchestrator):
    results = benchmark.pedantic(run_all, args=(orchestrator,), rounds=1, iterations=1)
    payload = {}
    for parameter, points in results.items():
        xs = [p.value for p in points]
        ratios = [
            min(p.aggregate.power_performance_ratio, 20.0) for p in points
        ]
        payload[parameter] = {"values": xs, "power_perf_ratio": ratios}
        print(f"\nFigure 7: power/performance ratio vs {parameter}")
        print(ascii_chart(xs, ratios, x_label=parameter, y_label="ratio"))
    save_results("figure7", payload)

    # Shape: the ratio stays meaningfully above the global-scaling
    # baseline (~2) across the sensible mid-range of every parameter.
    for parameter, data in payload.items():
        mid = data["power_perf_ratio"][1:-1]
        assert max(mid) > 2.0, parameter
