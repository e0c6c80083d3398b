"""Figure 6 — EDP-improvement sensitivity to the algorithm parameters.

(a) Decay (legend 1.500_04.0_X.XXX_3.0), (b) ReactionChange
(1.500_XX.X_0.750_3.0), (c) DeviationThreshold (X.XXX_06.0_0.175_2.5).
The paper's finding: performance diminishes at both parameter extremes
with a broad flat optimum in between.
"""

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


def test_figure6(benchmark, orchestrator):
    results = benchmark.pedantic(run_all, args=(orchestrator,), rounds=1, iterations=1)
    payload = {}
    for parameter, points in results.items():
        xs = [p.value for p in points]
        ys = [p.aggregate.edp_improvement * 100 for p in points]
        payload[parameter] = {"values": xs, "edp_improvement_pct": ys}
        print(f"\nFigure 6: EDP improvement vs {parameter}")
        print(ascii_chart(xs, ys, x_label=parameter, y_label="EDP %"))
    save_results("figure6", payload)

    # Shape: some sweep point beats the extremes for decay (diminishing
    # at both ends, paper Figure 6(a)).
    decay = payload["decay_pct"]["edp_improvement_pct"]
    assert max(decay[1:-1]) >= max(decay[0], decay[-1]) - 0.5
    # ReactionChange: very small steps underperform the mid-range.
    rc = payload["reaction_change_pct"]["edp_improvement_pct"]
    assert max(rc[1:]) >= rc[0]
