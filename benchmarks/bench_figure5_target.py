"""Figure 5 — performance-degradation target analysis.

Sweeps PerfDegThreshold (the degradation target) with the figure's
legend configuration ``1.000_06.0_1.250_X.X`` and reports (a) achieved
vs requested degradation and (b) the energy-delay-product improvement
trend.
"""

from conftest import SWEEP_BENCHMARKS, save_results

from repro.reporting.figures import ascii_chart
from repro.sim.sweeps import sweep_perf_deg_target

TARGETS = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


def run_sweep(orchestrator):
    return sweep_perf_deg_target(orchestrator, TARGETS, SWEEP_BENCHMARKS)


def test_figure5(benchmark, orchestrator):
    points = benchmark.pedantic(run_sweep, args=(orchestrator,), rounds=1, iterations=1)
    targets = [p.value for p in points]
    achieved = [p.aggregate.performance_degradation * 100 for p in points]
    edp = [p.aggregate.edp_improvement * 100 for p in points]

    print("\nFigure 5(a): achieved vs target performance degradation (%)")
    print(ascii_chart(targets, achieved, x_label="target %", y_label="achieved %"))
    print("Figure 5(b): EDP improvement vs target (%)")
    print(ascii_chart(targets, edp, x_label="target %", y_label="EDP %"))

    save_results(
        "figure5",
        {
            "targets_pct": targets,
            "achieved_deg_pct": achieved,
            "edp_improvement_pct": edp,
            "benchmarks": SWEEP_BENCHMARKS,
        },
    )
    # Shape: degradation grows with the target (the guard loosens)...
    assert achieved[-1] > achieved[0]
    # ...and EDP improvement is positive through the mid-range.
    assert max(edp) > 0
