"""Figure 4 — per-application results, referenced to fully synchronous.

(a) performance degradation, (b) energy savings, (c) energy-delay
product improvement, for Baseline MCD, Dynamic-1 %, Dynamic-5 % and
Attack/Decay on every application plus the suite average.
"""

from conftest import pct, save_results

from repro.reporting.tables import format_table
from repro.sim.paper_results import compute_paper_results

CONFIGS = ("mcd_base", "dynamic_1", "dynamic_5", "attack_decay")


def build_figure4(orchestrator):
    results = compute_paper_results(orchestrator, include_globals=False)
    return results


def test_figure4(benchmark, orchestrator):
    results = benchmark.pedantic(build_figure4, args=(orchestrator,), rounds=1, iterations=1)
    benchmarks = results.benchmarks

    payload = {}
    for metric, attr in (
        ("performance_degradation", "performance_degradation"),
        ("energy_savings", "energy_savings"),
        ("edp_improvement", "edp_improvement"),
    ):
        rows = []
        data = {}
        for name in benchmarks:
            row = [name]
            data[name] = {}
            for config in CONFIGS:
                value = getattr(results.vs_sync[config][name], attr)
                row.append(pct(value))
                data[name][config] = value
            rows.append(row)
        averages = ["average"]
        data["average"] = {}
        for config in CONFIGS:
            values = [getattr(results.vs_sync[config][b], attr) for b in benchmarks]
            mean = sum(values) / len(values)
            averages.append(pct(mean))
            data["average"][config] = mean
        rows.append(averages)
        payload[metric] = data
        print(
            "\n"
            + format_table(
                ["Benchmark", "Baseline MCD", "Dynamic-1%", "Dynamic-5%", "Attack/Decay"],
                rows,
                title=f"Figure 4: {metric} (vs fully synchronous processor)",
            )
        )
    save_results("figure4", payload)

    avg = payload["performance_degradation"]["average"]
    # Shape: the baseline MCD degradation is small (paper: ~1.3 %)...
    assert -0.01 < avg["mcd_base"] < 0.03
    # ...algorithms add modest degradation on top...
    assert avg["attack_decay"] < 0.10
    assert avg["dynamic_5"] > avg["dynamic_1"]
    # ...and all three algorithms save energy on average.
    avg_e = payload["energy_savings"]["average"]
    for config in ("dynamic_1", "dynamic_5", "attack_decay"):
        assert avg_e[config] > 0.03
