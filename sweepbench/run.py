"""End-to-end sweep benchmark: cells/s from ``Scenario`` to ``RunOutcome``.

Usage (from the repository root)::

    python3 sweepbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Each repetition is one sweep of the workload's matrix in a fresh
process (:mod:`worker`), so nothing is warm that a user's first sweep
would not have.  Repetitions run until ``--seconds`` is used up; every
reported time is the median over them.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced sweeps
and reports the per-layer stage ledger instead.  Outputs are checked:
every repetition's result digest must match the first one, and
``closed_loop_parallel`` must match a serial ``closed_loop`` sweep of
the same seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run stamp
(host, load, backend, compiler, seed) and the spans of traced sweeps
are written under ``.sweepbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import STAGES
from worker import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".sweepbench-out"

#: One sweep at scale 1.0 takes 4-12 s; a hung one is killed so the
#: whole run still ends within three minutes.
CHILD_TIMEOUT_S = 150


def _metric_units(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric list in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    """The environment sweeps run in: no REPRO_* knob leaks in, caches off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE"] = "0"
    return env


def _worker(args: list[str]) -> dict:
    """Run ``worker.py`` with ``args`` and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    if args[0] == "sweep":
        cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args[:3])} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sweep(workload: str, opts, rep: int, *, paper: bool = False, traced: bool = False) -> dict:
    args = ["sweep", "--workload", workload, "--seed", str(opts.seed), "--scale", repr(opts.scale)]
    if paper:
        args.append("--paper")
    if traced:
        args += ["--spans", str(OUT / f"{opts.workload}-seed{opts.seed}-rep{rep}.spans.json")]
    return _worker(args)


def _loadavg() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def _diverged(reports: list[dict], reference: list) -> set[int]:
    """Indices of cells whose digest differs from ``reference`` in any report."""
    return {
        i
        for report in reports
        for i, (cell, ref) in enumerate(zip(report["cell_digests"], reference))
        if cell is not None and ref is not None and cell != ref
    }


def _stage_table(layers: dict, wall_s: float, workers: int) -> list[str]:
    """The stage-share table of one traced sweep, largest stage first.

    Shares are of ``workers x wall``: on a pool backend the stages of
    every worker thread add up against the capacity they shared.
    """
    stages = {f"{s}_s": layers[f"{s}_s"] for s in STAGES}
    stages["experiments.orchestration_s"] = layers["experiments.orchestration_s"]
    capacity = wall_s * max(1, workers)
    lines = [f"{'stage (self time)':<30} {'s':>9} {'share':>7}"]
    for name, value in sorted(stages.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<30} {value:9.3f} {100 * value / capacity:6.1f}%")
    lines.append(f"{'traced wall x workers':<30} {capacity:9.3f} {100.0:6.1f}%")
    return lines


def run(opts) -> dict:
    """Measure one workload; returns the result object and writes the stamp."""
    workload = WORKLOADS[opts.workload]
    load_start = _loadavg()
    build = _worker(["build"])
    reference = None
    if workload.get("reference"):
        reference = _sweep(workload["reference"], opts, 0)

    untraced: list[dict] = []
    traced: list[dict] = []
    began = time.perf_counter()
    rep = 0
    while True:
        rep += 1
        rep_start = time.perf_counter()
        untraced.append(_sweep(opts.workload, opts, rep, paper=rep == 1))
        if opts.trace:
            traced.append(_sweep(opts.workload, opts, rep, traced=True))
        now = time.perf_counter()
        # Stop when one more repetition would overrun the window.
        if (now - began) + (now - rep_start) > opts.seconds:
            break

    reports = untraced + traced
    first = untraced[0]
    failed = sum(r["failed"] + r["implausible"] for r in reports)
    attempted = sum(r["cells"] for r in reports)
    digests_agree = all(r["digest"] == first["digest"] for r in reports)
    diverged = _diverged(reports, first["cell_digests"])
    if reference is not None:
        attempted += reference["cells"]
        failed += reference["failed"] + reference["implausible"]
        digests_agree = digests_agree and reference["digest"] == first["digest"]
        diverged |= _diverged(reports, reference["cell_digests"])
    failed += len(diverged)
    correct = failed == 0 and digests_agree and "paper_err_pp" in first
    resolved = first["resolved"] or {}

    lines = []
    if opts.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        layers["error_rate"] = failed / attempted
        lines += _stage_table(layers, traced_wall, resolved.get("workers", 1))
        units = _metric_units("per_layer")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "cells_per_s": statistics.median(r["cells"] / r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            # Missing only when cells failed, and then ``correct`` is false.
            "paper_err_pp": first.get("paper_err_pp", -1.0),
        }
        units = _metric_units("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        lines.append(f"{'error_rate':<30} {failed / attempted:12.6f} ratio")

    stamp = {
        "workload": opts.workload,
        "seed": opts.seed,
        "scenario_seeds": first["scenario_seeds"],
        "scale": opts.scale,
        "trace": opts.trace,
        "repetitions": len(untraced),
        "cells_per_sweep": first["cells"],
        "backend": resolved.get("backend"),
        "workers": resolved.get("workers"),
        "batch": resolved.get("batch"),
        "native_loaded": build["native"],
        "compiler": build["compiler"],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "digest": first["digest"],
        "digests_agree": digests_agree,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps({"stamp": stamp, "result": result, "repetitions": reports}, indent=1)
    )
    print("stamp " + json.dumps(stamp))
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:<30} {metric['value']:12.6f} {metric['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload length scale (tests use a tiny one)"
    )
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"sweepbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(opts)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
