"""Closed-loop control benchmark — instructions/sec on both interpreters.

The paper's headline numbers come from the *closed-loop* configuration
(the Attack/Decay controller driving per-domain DVFS), so this bench
measures exactly that: a warmed `MCDCore.run()` under the controller,
seed 1, best of three, with no interval recording, on each interpreter:

* ``generator`` — the pure-Python reference interpreter over the
  generator trace, controller in Python;
* ``native``    — the C loop over the compiled trace, with the
  controller run *inside* C (zero per-interval Python crossings;
  skipped when no compiler is available).

Every measurement also asserts the two interpreters' ``RunSummary``
dictionaries are byte-identical — a closed-loop speedup that computes
different control decisions would be worthless.

Results land in ``results/bench_control_loop.json`` and the baseline
table in ``docs/performance.md``.  Knobs: ``REPRO_SCALE``,
``REPRO_BENCHMARKS``.  The acceptance floor (native closed loop at
least ``NATIVE_FLOOR``x the reference interpreter) is asserted under
pytest and by ``--check-floor``:

    PYTHONPATH=src python -m pytest benchmarks/bench_control_loop.py -s
    PYTHONPATH=src python benchmarks/bench_control_loop.py --check-floor
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import save_bench

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.experiments.executor import benchmark_scale, quick_benchmarks
from repro.metrics.summary import summarize
from repro.sim.engine import compiled_trace_for, scaled_mcd_config
from repro.uarch.core import CoreOptions, MCDCore
from repro.uarch.native import load_hotpath
from repro.workloads.catalog import get_benchmark

#: Compute-bound, phased-FP, memory-bound, streaming-FP and
#: pointer-chasing applications: each stresses a different part of the
#: loop.
CONTROL_BENCHMARKS = ["adpcm", "epic", "gcc", "swim", "mcf"]

#: Acceptance floor: native closed-loop throughput over the reference
#: interpreter's closed loop.
NATIVE_FLOOR = 4.0


def _closed_loop_run(bench, trace):
    """One warmed closed-loop run; returns (CoreResult, seconds)."""
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=AttackDecayController(SCALED_OPERATING_POINT),
        options=CoreOptions(
            mcd=True,
            seed=1,
            interval_instructions=bench.interval_instructions,
        ),
    )
    core.warm_up(trace, limit=trace.total_instructions)
    start = time.perf_counter()
    result = core.run()
    return result, time.perf_counter() - start


def _best_of(bench, trace, repeats: int = 3):
    """Fastest of ``repeats`` timed runs (noise-robust)."""
    best = None
    result = None
    for _ in range(repeats):
        result, elapsed = _closed_loop_run(bench, trace)
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def run_bench(check_floor: bool = False) -> dict:
    """Measure all available paths; returns the saved results payload."""
    scale = benchmark_scale()
    names = quick_benchmarks(default=CONTROL_BENCHMARKS)
    native = load_hotpath() is not None
    if check_floor and not native:
        raise SystemExit(
            "bench_control_loop: --check-floor needs the native loop, "
            "but no C compiler is available"
        )
    paths = ["generator"] + (["native"] if native else [])

    rows = []
    total_instr = 0
    totals = {path: 0.0 for path in paths}
    for name in names:
        bench = get_benchmark(name)
        traces = {"generator": bench.build_trace(scale=scale)}
        if native:
            traces["native"] = compiled_trace_for(bench, scale=scale)
        results = {}
        seconds = {}
        for path in paths:
            results[path], seconds[path] = _best_of(bench, traces[path])
        if native:
            assert (
                summarize(results["native"]).to_dict()
                == summarize(results["generator"]).to_dict()
            ), f"{name}: closed-loop native loop diverged from the generator"
        instructions = results["generator"].instructions
        total_instr += instructions
        row = {"benchmark": name, "instructions": instructions}
        for path in paths:
            totals[path] += seconds[path]
            row[f"{path}_ips"] = instructions / seconds[path]
        if native:
            row["native_vs_generator"] = seconds["generator"] / seconds["native"]
        rows.append(row)

    aggregate = {
        f"{path}_ips": total_instr / totals[path] for path in paths
    }
    if native:
        aggregate["native_vs_generator"] = totals["generator"] / totals["native"]
    aggregate["native"] = native
    aggregate["scale"] = scale

    print("\nClosed-loop control (instructions/sec, best of 3):")
    for row in [*rows, {"benchmark": "TOTAL", **aggregate}]:
        line = f"  {row['benchmark']:8s} generator {row['generator_ips']:>11,.0f}"
        if native:
            line += (
                f"  native {row['native_ips']:>12,.0f}"
                f"  native/generator {row['native_vs_generator']:5.1f}x"
            )
        print(line)

    payload = save_bench("bench_control_loop", runs=rows, aggregate=aggregate)

    if check_floor and native:
        ratio = aggregate["native_vs_generator"]
        assert ratio >= NATIVE_FLOOR, (
            f"native closed loop is {ratio:.2f}x the reference interpreter's "
            f"closed loop; expected >= {NATIVE_FLOOR}x"
        )
    return payload


def test_control_loop():
    # The floor only binds when the native loop exists; the bench still
    # measures the reference interpreter without it.
    run_bench(check_floor=load_hotpath() is not None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-floor",
        action="store_true",
        help=f"fail unless native closed-loop >= {NATIVE_FLOOR}x the generator",
    )
    args = parser.parse_args(argv)
    run_bench(check_floor=args.check_floor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
