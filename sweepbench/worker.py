"""One measured sweep in a fresh process (the unit ``run.py`` repeats).

Usage::

    python3 sweepbench/worker.py build
    python3 sweepbench/worker.py sweep --workload closed_loop --seed 1 \\
        --t0 <epoch seconds at spawn> [--scale 1.0] [--paper] [--spans FILE]

``build`` loads (compiling on first use) the native extension and
reports what loaded.  ``sweep`` imports the simulator, expands the
workload's matrix, runs it once through the ``Orchestrator`` with every
cache off, and prints one JSON object: set-up and sweep times, peak RSS,
result digests, the resolved backend and, with ``--paper``, the gap to
the paper's Table 6.  With ``--spans`` the sweep runs under the stage
ledger (:mod:`ledger`) and the spans are written to that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CLOSED_LOOP_BENCHMARKS = ("adpcm", "gsm", "epic", "mpeg2", "mcf", "health", "gcc", "swim")

#: The benchmark's workloads: one run matrix each, plus how to run it.
WORKLOADS = {
    "closed_loop": {
        "benchmarks": CLOSED_LOOP_BENCHMARKS,
        "configurations": ("sync", "mcd_base", "attack_decay"),
        "seeds": 2,
        "backend": "serial",
        "workers": 1,
    },
    "closed_loop_parallel": {
        "benchmarks": CLOSED_LOOP_BENCHMARKS,
        "configurations": ("sync", "mcd_base", "attack_decay"),
        "seeds": 2,
        "backend": "auto",
        "workers": "auto",
        # Results must be byte-identical to this workload's.
        "reference": "closed_loop",
    },
    "offline_dynamic": {
        "benchmarks": ("gsm", "mcf", "swim", "epic"),
        "configurations": ("dynamic_1", "dynamic_5"),
        "seeds": 1,
        "backend": "serial",
        "workers": 1,
    },
}

#: Table 6 of the paper: (performance degradation %, energy savings %)
#: relative to the baseline MCD processor, over the 30-application suite.
PAPER_TABLE6 = {
    "attack_decay": (3.2, 19.0),
    "dynamic_1": (3.4, 21.9),
    "dynamic_5": (8.7, 33.0),
}


def scenario_seeds(seed: int, count: int) -> list[int]:
    """The clock seeds a workload's scenarios run with, derived from ``seed``."""
    return random.Random(seed).sample(range(1, 1_000_000), count)


def digest(payload) -> str:
    """Stable content hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _ResolvedBackend(logging.Handler):
    """Catches the orchestrator's "N scenario(s) across W worker(s)" line.

    The orchestrator logs the backend and batch size it resolved; that
    record is the outside view of what the sweep actually ran on.
    """

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.resolved: dict | None = None

    def emit(self, record: logging.LogRecord) -> None:
        if self.resolved is None and "scenario(s) across" in str(record.msg):
            _, total, workers, backend, batch = record.args
            if backend == "serial":
                workers = 1
            self.resolved = {"workers": workers, "backend": backend, "batch": batch}


def _build() -> dict:
    from repro.uarch.native import compiler_info, load_hotpath

    return {"native": load_hotpath() is not None, "compiler": compiler_info()}


def _paper_err_pp(result_set, workload: dict, scale: float, seeds: list[int]) -> float:
    """Mean absolute gap, in points, to Table 6's degradation and savings.

    Both are averaged over the workload's benchmarks and seeds relative
    to ``mcd_base``, as ``PaperResults.table6_rows`` averages them.
    Off-line Dynamic cells carry no baseline in the matrix, so theirs is
    run here, after the timed sweep.
    """
    from repro.experiments.executor import ExecutionContext
    from repro.experiments.results import ResultSet
    from repro.experiments.scenario import Scenario
    from repro.metrics.aggregate import aggregate

    algorithms = [c for c in workload["configurations"] if c in PAPER_TABLE6]
    if "mcd_base" not in workload["configurations"]:
        ctx = ExecutionContext(scale=scale, use_cache=False)
        baselines = [
            ctx.run_isolated(Scenario(b, "mcd_base", seed=s, scale=scale))
            for s in seeds
            for b in workload["benchmarks"]
        ]
        result_set = result_set.merged(ResultSet(baselines))
    gaps = []
    for algorithm in algorithms:
        comparisons = []
        for seed in seeds:
            comparisons += result_set.filter(seed=seed).compare(algorithm, "mcd_base").values()
        agg = aggregate(comparisons)
        paper_deg, paper_sav = PAPER_TABLE6[algorithm]
        gaps.append(abs(100 * agg.performance_degradation - paper_deg))
        gaps.append(abs(100 * agg.energy_savings - paper_sav))
    return sum(gaps) / len(gaps)


def _sweep(args) -> dict:
    from repro.experiments.orchestrator import Orchestrator
    from repro.experiments.scenario import Suite
    from repro.uarch.native import load_hotpath

    workload = WORKLOADS[args.workload]
    hotpath = load_hotpath()
    seeds = scenario_seeds(args.seed, workload["seeds"])
    scenarios = Suite(
        workload["benchmarks"], workload["configurations"], seeds=seeds, scale=args.scale
    ).expand()
    orchestrator = Orchestrator(
        workers=workload["workers"],
        backend=workload["backend"],
        batch="auto",
        scale=args.scale,
        use_cache=False,
    )
    ledger = None
    if args.spans:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install(hotpath)
    watcher = _ResolvedBackend()
    orch_log = logging.getLogger("repro.experiments.orchestrator")
    orch_log.addHandler(watcher)
    orch_log.setLevel(logging.INFO)
    orch_log.propagate = False

    setup_s = time.time() - args.t0
    start = time.perf_counter()
    result_set = orchestrator.run(scenarios)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ledger is not None:
        ledger.uninstall()

    cells = []
    bad = 0
    for outcome in result_set:
        record = outcome.record
        if record is None:
            cells.append(None)
            continue
        summary = record.summary
        if not (summary.instructions > 0 and summary.wall_time_ns > 0 and summary.energy > 0):
            bad += 1
        cells.append(digest(outcome.to_dict()))
    report = {
        "workload": args.workload,
        "scenario_seeds": seeds,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cells": len(result_set),
        "failed": len(result_set.errors),
        "implausible": bad,
        "digest": digest(result_set.to_dict()),
        "cell_digests": cells,
        "resolved": watcher.resolved,
    }
    if args.paper and not result_set.errors:
        report["paper_err_pp"] = _paper_err_pp(result_set, workload, args.scale, seeds)
    if ledger is not None:
        workers = (watcher.resolved or {"workers": 1})["workers"]
        report["layers"] = ledger.layer_metrics(wall_s, workers, len(result_set))
        spans_path = Path(args.spans)
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(
            json.dumps({"workload": args.workload, "wall_s": wall_s, "spans": ledger.export(start)})
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build")
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--t0", type=float, required=True)
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument("--paper", action="store_true")
    sweep.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    report = _build() if args.command == "build" else _sweep(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
