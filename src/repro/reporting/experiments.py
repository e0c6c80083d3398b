"""Generate EXPERIMENTS.md from the bench artifacts under ``results/``.

Each bench stores its data as JSON; this module assembles the
paper-vs-measured record.  Regenerate with::

    python -m repro.reporting.experiments
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"
OUTPUT = RESULTS_DIR.parent / "EXPERIMENTS.md"

#: Paper values for Table 6 (vs baseline MCD processor).
PAPER_TABLE6 = {
    "attack_decay": (3.2, 19.0, 16.7, 4.6),
    "dynamic_1": (3.4, 21.9, 19.6, 5.1),
    "dynamic_5": (8.7, 33.0, 27.5, 3.8),
    "Global (attack_decay)": (3.2, 6.5, 7.8, 2.0),
    "Global (dynamic_1)": (3.4, 6.6, 3.6, 2.0),
    "Global (dynamic_5)": (8.7, 12.4, 5.0, 1.9),
}


def _load(name: str) -> dict | None:
    path = RESULTS_DIR / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _table6_section(lines: list[str]) -> None:
    data = _load("table6")
    lines.append("## Table 6 — algorithm comparison (vs baseline MCD)\n")
    lines.append(
        "Paper values in parentheses. Columns: performance degradation, "
        "energy savings, energy-delay improvement, power/perf ratio.\n"
    )
    if data is None:
        lines.append("*(run `pytest benchmarks/bench_table6_comparison.py` first)*\n")
        return
    lines.append("| Algorithm | Perf deg | Energy savings | EDP impr | Ratio |")
    lines.append("|---|---|---|---|---|")
    for key, row in data["rows"].items():
        paper = PAPER_TABLE6.get(key)
        p = (
            f" ({paper[0]}%) | ({paper[1]}%) | ({paper[2]}%) | ({paper[3]})"
            if paper
            else " | | |"
        )
        cells = (
            f"{row['performance_degradation'] * 100:.1f}%"
            f"{' (' + str(paper[0]) + '%)' if paper else ''} | "
            f"{row['energy_savings'] * 100:.1f}%"
            f"{' (' + str(paper[1]) + '%)' if paper else ''} | "
            f"{row['edp_improvement'] * 100:.1f}%"
            f"{' (' + str(paper[2]) + '%)' if paper else ''} | "
            f"{row['power_performance_ratio']:.1f}"
            f"{' (' + str(paper[3]) + ')' if paper else ''}"
        )
        lines.append(f"| {row['algorithm']} | {cells} |")
    if data.get("global_frequency_mhz"):
        freqs = ", ".join(
            f"{k}: {v:.0f} MHz" for k, v in data["global_frequency_mhz"].items()
        )
        lines.append(f"\nMatched global frequencies — {freqs}.\n")


def _figure4_section(lines: list[str]) -> None:
    data = _load("figure4")
    lines.append("\n## Figure 4 — per-application results (vs fully synchronous)\n")
    if data is None:
        lines.append("*(run `pytest benchmarks/bench_figure4_per_app.py` first)*\n")
        return
    avg_deg = data["performance_degradation"]["average"]
    avg_e = data["energy_savings"]["average"]
    avg_edp = data["edp_improvement"]["average"]
    lines.append("Suite averages (paper values in parentheses):\n")
    lines.append("| Configuration | Perf deg | Energy savings | EDP impr |")
    lines.append("|---|---|---|---|")
    paper = {
        "mcd_base": ("~1.3%", "<0%", "<0%"),
        "dynamic_1": ("~4.7%", "~23%", "~19%"),
        "dynamic_5": ("~10%", "~34%", "~27%"),
        "attack_decay": ("4.5%", "17.5%", "13.8%"),
    }
    for config in ("mcd_base", "dynamic_1", "dynamic_5", "attack_decay"):
        p = paper[config]
        lines.append(
            f"| {config} | {avg_deg[config] * 100:.1f}% ({p[0]}) "
            f"| {avg_e[config] * 100:.1f}% ({p[1]}) "
            f"| {avg_edp[config] * 100:.1f}% ({p[2]}) |"
        )
    lines.append(
        f"\nPer-application data for all 30 benchmarks: `results/figure4.json`.\n"
    )


def _sweep_section(lines: list[str]) -> None:
    """Summarise the last orchestrator sweep (``repro sweep --json``)."""
    data = _load("sweep")
    lines.append("\n## Custom sweeps (scenario orchestrator)\n")
    if data is None:
        lines.append(
            "*(run `python -m repro sweep --json results/sweep.json` to "
            "record a custom matrix here)*\n"
        )
        return
    from repro.experiments.results import ResultSet

    results = ResultSet.from_dict(data)
    failed = len(results.errors)
    lines.append(
        f"{len(results)} scenario(s) over {len(results.benchmarks)} "
        f"benchmark(s) x {len(results.configurations)} configuration(s)"
        + (f" — {failed} failed" if failed else "")
        + ". Data: `results/sweep.json`.\n"
    )
    for configuration, subset in results.group_by("configuration").items():
        ok = len(subset.records)
        lines.append(f"- `{configuration}`: {ok}/{len(subset)} runs completed")
    lines.append("")


def _series_section(lines: list[str], name: str, title: str, note: str) -> None:
    data = _load(name)
    lines.append(f"\n## {title}\n")
    if data is None:
        lines.append(f"*(run `pytest benchmarks/bench_{name}*.py` first)*\n")
        return
    lines.append(note + f" Data: `results/{name}.json`.\n")


def build() -> str:
    """Assemble the EXPERIMENTS.md text from the stored bench artifacts."""
    lines: list[str] = []
    lines.append("# EXPERIMENTS — paper vs measured\n")
    lines.append(
        "Reproduction of Semeraro et al., MICRO 2002, on the scaled "
        "synthetic substrate described in docs/design.md. Absolute numbers "
        "are not comparable to the paper's SimpleScalar/Wattch stack; "
        "the *shape* — orderings, ratios, knees — is the reproduction "
        "target. Headline runs use the scaled operating point "
        "(docs/design.md substitution #2); every scaled value lies inside "
        "the paper's Table 2 sweep ranges.\n"
    )

    for name, paper_note in (
        ("table1", "MCD configuration parameters — reproduced verbatim."),
        ("table2", "Attack/Decay parameter ranges — reproduced verbatim."),
        (
            "table3",
            "Controller hardware: 476 gates/domain, 112 shared, "
            "2,016 total for four domains (paper: 'fewer than 2,500').",
        ),
        ("table4", "Architectural parameters — reproduced verbatim."),
        (
            "table5",
            "30 benchmarks across MediaBench/Olden/Spec2000 with the "
            "paper's windows recorded and scaled windows simulated.",
        ),
    ):
        data = _load(name)
        status = "reproduced" if data is not None else "pending (run benches)"
        lines.append(f"- **{name}** — {paper_note} [{status}]")
    lines.append("")

    _table6_section(lines)
    _figure4_section(lines)

    data = _load("figure2")
    lines.append("\n## Figure 2 — load/store domain statistics (epic)\n")
    if data is not None:
        exceed = data["intervals_beyond_threshold"]
        total = len(data["lsq_pct_change"])
        fmin = min(data["ls_frequency_ghz"])
        lines.append(
            f"LSQ utilization differences straddle the ±"
            f"{data['deviation_threshold_pct']}% deviation band "
            f"({exceed}/{total} intervals beyond it; our 500-instruction "
            "intervals are noisier than the paper's 10k — substitution "
            f"#2), and the load/store frequency responds, dipping to "
            f"{fmin:.2f} GHz. Paper: frequency held through minor "
            "perturbations, decreased under sustained negative attack "
            "and decay. Data: `results/figure2.json`.\n"
        )
    else:
        lines.append("*(run `pytest benchmarks/bench_figure2_lsq.py` first)*\n")

    data = _load("figure3")
    lines.append("\n## Figure 3 — floating-point domain statistics (epic)\n")
    if data is not None:
        bursts = ", ".join(f"{u:.1f}" for u in data["burst_mean_utilization"])
        idles = ", ".join(f"{u:.2f}" for u in data["idle_mean_utilization"])
        fmin = min(data["fp_frequency_ghz"])
        lines.append(
            f"FIQ utilization: burst means [{bursts}] entries vs idle "
            f"means [{idles}] — the two distinct FP phases of the paper. "
            f"FP frequency decays to {fmin:.2f} GHz while unused and "
            "attacks back up at each burst (paper: decays toward "
            "0.55 GHz over its much longer idle stretches). Data: "
            "`results/figure3.json`.\n"
        )
    else:
        lines.append("*(run `pytest benchmarks/bench_figure3_fp.py` first)*\n")

    data = _load("figure5")
    lines.append("\n## Figure 5 — degradation-target analysis\n")
    if data is not None:
        a = data["achieved_deg_pct"]
        t = data["targets_pct"]
        edp = data["edp_improvement_pct"]
        trend = (
            "declines past the mid-range, as in the paper"
            if edp[-1] < max(edp)
            else "keeps growing slowly over our (shorter-run) range, "
            "where the paper's declines beyond ~9%"
        )
        lines.append(
            f"Achieved degradation rises with the target ({a[0]:.1f}% at "
            f"target {t[0]:.0f}% up to {a[-1]:.1f}% at target "
            f"{t[-1]:.0f}%), tracking the paper's near-ideal band over "
            f"4-10%. EDP improvement {trend}. "
            "Data: `results/figure5.json`.\n"
        )
    else:
        lines.append("*(run `pytest benchmarks/bench_figure5_target.py` first)*\n")

    for name, title, paper_shape in (
        (
            "figure6",
            "Figure 6 — EDP sensitivity (Decay, ReactionChange, DeviationThreshold)",
            "Paper shape: diminished performance at both extremes, broad "
            "flat optimum (decay 0.5-1.5%, reaction 3-12%).",
        ),
        (
            "figure7",
            "Figure 7 — power/performance-ratio sensitivity",
            "Paper shape: ratio well above the global-scaling ~2 across "
            "the sensible mid-range.",
        ),
    ):
        data = _load(name)
        lines.append(f"\n## {title}\n")
        if data is not None:
            lines.append(paper_shape + f" Data: `results/{name}.json`.\n")
            for parameter, series in data.items():
                ys = series.get("edp_improvement_pct") or series.get(
                    "power_perf_ratio"
                )
                xs = series["values"]
                pairs = ", ".join(f"{x:g}->{y:.1f}" for x, y in zip(xs, ys))
                lines.append(f"- `{parameter}`: {pairs}")
            lines.append("")
        else:
            lines.append(f"*(run `pytest benchmarks/bench_{name}_*.py` first)*\n")

    _sweep_section(lines)

    data = _load("ablation")
    lines.append("\n## Ablations\n")
    if data is not None:
        lines.append("| Variant | Perf deg | Energy | EDP | Ratio |")
        lines.append("|---|---|---|---|---|")
        for row in data["rows"]:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        lines.append("")
    else:
        lines.append("*(run `pytest benchmarks/bench_ablation.py` first)*\n")

    return "\n".join(lines) + "\n"


def main() -> None:
    """Write EXPERIMENTS.md next to the results directory."""
    OUTPUT.write_text(build())
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
