#!/usr/bin/env python3
"""Explore Attack/Decay parameter sensitivity (Figures 5-7).

Sweeps one algorithm parameter across its Table 2 range on a small
benchmark mix and charts energy-delay-product improvement and the
power/performance ratio against the swept value.

Run:  python examples/sensitivity_explorer.py [parameter]
      parameter in {decay_pct, reaction_change_pct,
                    deviation_threshold_pct, perf_deg_threshold_pct}
"""

import sys

from repro import Orchestrator
from repro.reporting.figures import ascii_chart
from repro.sim.sweeps import sweep_attack_decay_parameter

MIX = ["adpcm", "epic", "mcf", "gsm"]

SWEEPS = {
    "decay_pct": [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
    "reaction_change_pct": [0.5, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0],
    "deviation_threshold_pct": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
    "perf_deg_threshold_pct": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
}


def main() -> None:
    parameter = sys.argv[1] if len(sys.argv) > 1 else "decay_pct"
    if parameter not in SWEEPS:
        raise SystemExit(f"unknown parameter {parameter!r}; pick from {list(SWEEPS)}")
    values = SWEEPS[parameter]
    orchestrator = Orchestrator()  # REPRO_WORKERS, REPRO_SCALE, REPRO_CACHE

    print(f"Sweeping {parameter} over {values} on {', '.join(MIX)} ...")
    points = sweep_attack_decay_parameter(orchestrator, parameter, values, MIX)

    xs = [p.value for p in points]
    edp = [p.aggregate.edp_improvement * 100 for p in points]
    ratio = [min(p.aggregate.power_performance_ratio, 20.0) for p in points]

    print(f"\n== EDP improvement (%) vs {parameter} (cf. Figure 6) ==")
    print(ascii_chart(xs, edp, x_label=parameter, y_label="EDP %"))
    print(f"\n== Power/performance ratio vs {parameter} (cf. Figure 7) ==")
    print(ascii_chart(xs, ratio, x_label=parameter, y_label="ratio"))

    best = max(points, key=lambda p: p.aggregate.edp_improvement)
    print(
        f"\nBest EDP improvement {best.aggregate.edp_improvement:.2%} at "
        f"{parameter}={best.value} "
        f"(degradation {best.aggregate.performance_degradation:.2%}, "
        f"ratio {best.aggregate.power_performance_ratio:.1f})"
    )


if __name__ == "__main__":
    main()
