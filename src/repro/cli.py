"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog``
    List the 30 benchmarks with suites and windows.
``list-scenarios``
    List every runnable workload — catalog, derived (workload algebra),
    and imported — with lengths and compositions.
``list-configurations``
    Show every registered configuration, controller and clocking mode.
``run BENCH``
    Simulate one benchmark under a chosen configuration and print the
    headline metrics (``--phases`` adds per-phase attribution).
``sweep``
    Expand a benchmarks x configurations x seeds matrix and execute it
    across a worker pool (the orchestrator behind the paper's tables).
``compare BENCH [BENCH ...]``
    Table-6-style comparison of the algorithms on a benchmark mix.
``export-trace BENCH PATH``
    Record a workload's instruction stream to a portable ETF file.
``import-trace PATH``
    Validate an ETF file, register it as a runnable workload, and
    optionally simulate it.
``hardware``
    Print the Table 3 controller gate-count estimate.
``record``
    Append benchmark artifacts (or a fresh perf-bench run) to the
    versioned result database with full provenance.
``report``
    Render the stored performance trajectory as comparison tables
    across versions/backends/hosts (text, CSV or HTML).
``check``
    Regression-gate the latest recorded run against the stored
    trajectory (bootstrap floors apply on an empty history); exits
    non-zero on regression.
``campaign run|status|resume FILE``
    Execute a declarative TOML campaign with checkpointed progress:
    ``run --dry-run`` prints the expanded cell plan, ``status`` reads
    the journal (``--json`` for the daemon payload shape), ``resume``
    restores completed cells and re-queues quarantined failures after
    any interruption.  Handlers live in :mod:`repro.cli_campaign`.
``serve``
    Run the HTTP sweep daemon: submit jobs, stream their typed event
    streams as NDJSON, fetch results, cancel mid-flight.  Handlers
    live in :mod:`repro.cli_serve`.

Exit codes follow one convention across verbs: 0 success, 1 completed
with failures (failed runs, quarantined cells, regressed metrics), 2
usage/configuration errors, 130 interrupted by Ctrl-C (after
checkpointing progress and releasing shared memory).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from repro.cli_campaign import _interrupt_cleanup, register_campaign_parser
from repro.cli_serve import register_serve_parser
from repro.config.algorithm import AttackDecayParams, SCALED_OPERATING_POINT
from repro.control.hardware_cost import estimate_attack_decay_hardware
from repro.errors import (
    ExperimentError,
    ResultDBError,
    TraceError,
    WorkloadError,
)
from repro.experiments import (
    CLOCKING_MODES,
    CONFIGURATIONS,
    CONTROLLERS,
    Orchestrator,
    Suite,
)
from repro.metrics.aggregate import aggregate
from repro.metrics.summary import summarize_phases
from repro.reporting.tables import format_table, phase_table, resultset_table
from repro.resultdb.gate import DEFAULT_TOLERANCE
from repro.sim.engine import SimulationSpec, run_spec
from repro.sim.experiment import ExperimentRunner, quick_benchmarks
from repro.uarch.etf import export_benchmark, read_etf
from repro.version import PAPER_VENUE, __version__
from repro.workloads.catalog import (
    BENCHMARKS,
    all_benchmarks,
    get_benchmark,
    register_benchmark,
)


def _cmd_catalog(_: argparse.Namespace) -> int:
    rows = [
        (s.name, s.suite, s.paper_window, f"{s.sim_instructions:,}")
        for s in BENCHMARKS.values()
    ]
    print(
        format_table(
            ["Benchmark", "Suite", "Paper window", "Scaled window"],
            rows,
            title="Benchmark catalog (Table 5)",
        )
    )
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    rows = []
    for spec in all_benchmarks().values():
        if args.family and args.family.lower() not in (
            spec.suite.lower() + " " + spec.name.lower()
        ):
            continue
        rows.append(
            (
                spec.name,
                spec.suite,
                f"{spec.sim_instructions:,}",
                str(len(spec.phases)),
                spec.datasets,
            )
        )
    print(
        format_table(
            ["Scenario", "Family", "Instructions", "Phases", "Composition"],
            rows,
            title="Runnable scenarios (catalog + derived + registered)",
        )
    )
    print(f"\n{len(rows)} scenarios; compose more with repro.workloads.algebra.")
    return 0


def _first_doc_line(obj: object) -> str:
    doc = (getattr(obj, "__doc__", None) or "").strip()
    return doc.splitlines()[0] if doc else ""


def _cmd_list_configurations(_: argparse.Namespace) -> int:
    for title, registry in (
        ("Configurations", CONFIGURATIONS),
        ("Controllers", CONTROLLERS),
        ("Clocking modes", CLOCKING_MODES),
    ):
        rows = [(name, _first_doc_line(registry.get(name))) for name in registry]
        print(format_table(["Name", "Description"], rows, title=title))
        print()
    print(
        "Parameterised names resolve too: dynamic_1, dynamic_5, "
        "global@725.000, attack_decay[1.750_06.0_0.175_2.5][literal]."
    )
    return 0


def _controller_from_args(args: argparse.Namespace):
    """Build the controller selected by run-style CLI arguments."""
    algorithm = args.algorithm.replace("-", "_")
    controller_factory = CONTROLLERS.get(algorithm)
    if algorithm == "attack_decay":
        params = SCALED_OPERATING_POINT if args.scaled else AttackDecayParams()
        return controller_factory(params)
    if algorithm == "global_dvfs":
        return controller_factory(args.frequency_mhz)
    return controller_factory()


def _print_headline_metrics(result) -> None:
    """The shared instructions/time/CPI/EPI/energy block of run output."""
    print(f"instructions:   {result.instructions:,}")
    print(f"wall time:      {result.wall_time_ns:,.0f} ns")
    print(f"CPI:            {result.cpi:.3f}")
    print(f"EPI:            {result.epi:.3f}")
    print(f"energy:         {result.energy:,.0f}")


def _cmd_run(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.benchmark)  # validate early
    controller = _controller_from_args(args)
    mcd = not args.sync
    spec = SimulationSpec(
        benchmark=args.benchmark,
        mcd=mcd,
        controller=controller,
        scale=args.scale,
        seed=args.seed,
        record_intervals=args.phases,
    )
    result = run_spec(spec)
    print(f"benchmark:      {args.benchmark}")
    print(f"configuration:  {'sync' if args.sync else 'mcd'} / {args.algorithm}")
    _print_headline_metrics(result)
    print(f"branch acc:     {result.branch_accuracy:.3f}")
    print(f"L1D miss rate:  {result.l1d_miss_rate:.3f}")
    print("final domain frequencies (MHz):")
    for domain, mhz in result.final_frequencies_mhz.items():
        print(f"  {domain.value:16s} {mhz:7.1f}")
    if args.phases:
        phased = summarize_phases(result, bench.phase_marks(args.scale))
        print()
        print(phase_table(phased.phases, title="Per-phase attribution"))
        dominant = phased.dominant_phase()
        print(
            f"\ndominant phase (energy): {dominant.name} "
            f"({dominant.energy_share:.1%} of energy, "
            f"{dominant.time_share:.1%} of time)"
        )
    return 0


def _parse_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)s %(message)s"
        )
    try:
        benchmarks = (
            quick_benchmarks()
            if args.benchmarks == "all"
            else _parse_csv(args.benchmarks)
        )
        suite = Suite(
            benchmarks=benchmarks,
            configurations=_parse_csv(args.configurations),
            seeds=[int(s) for s in _parse_csv(args.seeds)],
            scale=args.scale,
            name="sweep",
        )
        orchestrator = Orchestrator(
            workers=args.workers,
            backend=args.backend,
            cache_dir=args.cache_dir,
            use_cache=False if args.no_cache else None,
            batch=args.batch,
        )
        results = orchestrator.run(suite)
    except ExperimentError as exc:
        # Bad matrix axes or environment knobs are user errors, not
        # tracebacks: name the problem and exit like argparse would.
        print(f"sweep: error: {exc}", file=sys.stderr)
        return 2
    print(resultset_table(results, title="Sweep results"))
    for outcome in results.errors:
        print(f"\nFAILED {outcome.scenario.run_id}:\n{outcome.error}")
    if args.reference and args.reference not in results.configurations:
        print(
            f"\n(no suite averages: reference {args.reference!r} is not in "
            "this sweep's configurations)"
        )
    elif args.reference:
        rows = []
        for configuration in results.configurations:
            if configuration == args.reference:
                continue
            agg = results.aggregate(configuration, args.reference)
            rows.append(
                (
                    configuration,
                    f"{agg.performance_degradation:.2%}",
                    f"{agg.energy_savings:.2%}",
                    f"{agg.edp_improvement:.2%}",
                    f"{agg.power_performance_ratio:.1f}",
                )
            )
        print()
        print(
            format_table(
                ["Configuration", "Perf Deg", "Energy Savings", "EDP Impr", "Ratio"],
                rows,
                title=f"Suite averages vs {args.reference}",
            )
        )
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results.to_dict(), indent=1))
        print(f"\nwrote {path}")
    return 1 if results.errors else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    for name in args.benchmarks:
        get_benchmark(name)
    runner = ExperimentRunner(scale=args.scale, seed=args.seed)
    rows = []
    for label, make in (
        ("Attack/Decay", lambda b: runner.attack_decay(b, SCALED_OPERATING_POINT)),
        ("Dynamic-1%", lambda b: runner.dynamic(b, 1.0)),
        ("Dynamic-5%", lambda b: runner.dynamic(b, 5.0)),
    ):
        agg = aggregate(
            {b: runner.compare_to_mcd_base(make(b)) for b in args.benchmarks}
        )
        rows.append(
            (
                label,
                f"{agg.performance_degradation:.2%}",
                f"{agg.energy_savings:.2%}",
                f"{agg.edp_improvement:.2%}",
                f"{agg.power_performance_ratio:.1f}",
            )
        )
    print(
        format_table(
            ["Algorithm", "Perf Deg", "Energy Savings", "EDP Impr", "Ratio"],
            rows,
            title=f"Comparison vs baseline MCD ({', '.join(args.benchmarks)})",
        )
    )
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.benchmark)
    checksum = export_benchmark(
        bench, args.path, scale=args.scale, seed_offset=args.seed_offset
    )
    size = Path(args.path).stat().st_size
    # Per-phase rounding means the true length is the last phase mark,
    # not round(total * scale).
    instructions = bench.phase_marks(args.scale)[-1][1]
    print(f"exported {args.benchmark} -> {args.path}")
    print(f"instructions: {instructions:,}  size: {size:,} bytes")
    print(f"checksum:     {checksum}")
    return 0


def _cmd_import_trace(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    try:
        external = read_etf(args.path)
    except TraceError as exc:
        print(f"import-trace: error: {exc}", file=sys.stderr)
        return 2
    name = args.register_as or f"{external.name}@etf"
    try:
        external = register_benchmark(dc_replace(external, name=name), replace=True)
    except WorkloadError as exc:
        print(f"import-trace: error: {exc}", file=sys.stderr)
        return 2
    print(f"imported {args.path} as {name!r}")
    print(f"instructions: {external.sim_instructions:,}")
    print(f"phases:       {len(external.phases)}")
    print(f"interval:     {external.interval_instructions} instructions")
    print(f"checksum:     {external.checksum}")
    if external.meta:
        provenance = ", ".join(f"{k}={v}" for k, v in sorted(external.meta.items()))
        print(f"provenance:   {provenance}")
    if not args.run:
        return 0
    spec = SimulationSpec(
        benchmark=name,
        mcd=not args.sync,
        controller=_controller_from_args(args),
        seed=args.seed,
        record_intervals=args.phases,
    )
    result = run_spec(spec)
    print()
    print(f"benchmark:      {name}")
    _print_headline_metrics(result)
    if args.phases and external.phases:
        phased = summarize_phases(result, external.phase_marks())
        print()
        print(phase_table(phased.phases, title="Per-phase attribution"))
    return 0


#: ``record --run`` names -> perf-bench modules under ``benchmarks/``.
PERF_BENCHES = {
    "control-loop": "bench_control_loop",
    "sweep": "bench_sweep_throughput",
}


def _resultdb(args: argparse.Namespace):
    """The :class:`~repro.resultdb.ResultDB` selected by ``--db``."""
    from repro.resultdb import ResultDB

    return ResultDB(args.db)


def _run_perf_bench(name: str, db_dir: str | None) -> None:
    """Run one perf bench from the repo's ``benchmarks/`` harness.

    The bench records itself through the shared ``save_results`` write
    path, so pointing ``REPRO_RESULTDB_DIR`` at the requested database
    is all the plumbing needed.
    """
    import importlib
    import os

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not (bench_dir / f"{PERF_BENCHES[name]}.py").is_file():
        raise ResultDBError(
            f"benchmark harness not found at {bench_dir}; `record --run` "
            "needs a repository checkout (ingest an artifact JSON instead)"
        )
    if db_dir is not None:
        os.environ["REPRO_RESULTDB_DIR"] = str(db_dir)
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    module = importlib.import_module(PERF_BENCHES[name])
    module.run_bench()


def _cmd_record(args: argparse.Namespace) -> int:
    if not args.paths and not args.run:
        print(
            "record: error: nothing to record — give artifact JSON paths "
            "or --run {control-loop,sweep}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.run:
            _run_perf_bench(args.run, args.db)
            print(f"recorded a fresh {PERF_BENCHES[args.run]} run")
        db = _resultdb(args)
        for path in args.paths:
            run = db.ingest(path, bench=args.bench, backend=args.backend)
            print(
                f"recorded {run.bench} run {run.run_id} "
                f"({len(run.metrics)} metrics, host {run.host_id}, "
                f"version {run.version})"
            )
    except ResultDBError as exc:
        print(f"record: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.resultdb import query
    from repro.resultdb.report import comparison_rows, overview_rows, render

    db = _resultdb(args)
    runs = db.runs()
    runs = query.filter_runs(
        runs, backend=args.backend, version=args.version_filter
    )
    if not runs:
        print(
            f"report: error: no readable runs in {db.directory} "
            "(record some first)",
            file=sys.stderr,
        )
        return 2
    metrics = _parse_csv(args.metrics) if args.metrics else None
    try:
        if args.bench:
            headers, rows = comparison_rows(runs, args.bench, metrics=metrics)
            title = f"Trajectory of {args.bench} ({len(rows)} runs)"
        else:
            headers, rows = overview_rows(runs)
            title = f"Result database overview ({db.directory})"
        print(render(headers, rows, args.format, title=title))
    except ResultDBError as exc:
        print(f"report: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.resultdb import check_bench, gated_metrics, query

    db = _resultdb(args)
    runs = db.runs()
    try:
        if args.bench:
            targets = [args.bench]
        else:
            targets = [b for b in query.benches(runs) if gated_metrics(b)]
            if not targets:
                raise ResultDBError(
                    f"nothing to gate: no runs of a registered perf bench in "
                    f"{db.directory}"
                )
        metrics = _parse_csv(args.metrics) if args.metrics else None
        failed = 0
        for bench in targets:
            for result in check_bench(
                runs, bench, metrics=metrics, tolerance=args.tolerance
            ):
                status = "PASS" if result.passed else "FAIL"
                print(f"{status} {bench}: {result.message}")
                failed += 0 if result.passed else 1
    except ResultDBError as exc:
        print(f"check: error: {exc}", file=sys.stderr)
        return 2
    if failed:
        print(f"\ncheck: {failed} metric(s) regressed", file=sys.stderr)
        return 1
    return 0


def _cmd_hardware(_: argparse.Namespace) -> int:
    model = estimate_attack_decay_hardware()
    print(
        format_table(
            ["Component", "Estimation", "Gates"],
            model.table3_rows(),
            title="Table 3: Attack/Decay hardware estimate",
        )
    )
    print(
        f"\nper domain: {model.gates_per_domain}; total "
        f"({model.controlled_domains} domains): {model.total_gates} gates"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCD dynamic frequency/voltage control reproduction",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} ({PAPER_VENUE} reproduction)",
    )
    # required=False so a bare ``python -m repro`` prints usage and
    # exits cleanly instead of erroring (main() handles the None case).
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("catalog", help="list the benchmark catalog").set_defaults(
        func=_cmd_catalog
    )

    sub.add_parser(
        "list-configurations",
        help="show the configuration/controller/clocking registries",
    ).set_defaults(func=_cmd_list_configurations)

    scen_p = sub.add_parser(
        "list-scenarios",
        help="list every runnable workload (catalog + derived + registered)",
    )
    scen_p.add_argument(
        "--family",
        default=None,
        help="substring filter on the family/name (e.g. 'Derived', 'thrash')",
    )
    scen_p.set_defaults(func=_cmd_list_scenarios)

    def add_run_arguments(parser_: argparse.ArgumentParser) -> None:
        """Controller/clocking options shared by run and import-trace."""
        parser_.add_argument(
            "--algorithm",
            # Registry names, minus the passive profiling pass (not a
            # run configuration) and the underscore alias of the default.
            choices=sorted(
                {"attack-decay", *CONTROLLERS.names()}
                - {"attack_decay", "offline_profiler"}
            ),
            default="attack-decay",
            help="controller registry name ('none' for fixed frequencies)",
        )
        parser_.add_argument("--sync", action="store_true", help="fully synchronous")
        parser_.add_argument(
            "--frequency-mhz",
            type=float,
            default=1000.0,
            help="target frequency for --algorithm global_dvfs",
        )
        parser_.add_argument("--scaled", action="store_true", default=True)
        parser_.add_argument("--seed", type=int, default=1)
        parser_.add_argument(
            "--phases",
            action="store_true",
            help="record intervals and print per-phase attribution",
        )

    run_p = sub.add_parser("run", help="simulate one benchmark")
    run_p.add_argument("benchmark")
    add_run_arguments(run_p)
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="run a benchmarks x configurations x seeds matrix"
    )
    sweep_p.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated catalog names, or 'all' (REPRO_BENCHMARKS aware)",
    )
    sweep_p.add_argument(
        "--configurations",
        default="sync,mcd_base,attack_decay",
        help="comma-separated registry names (see list-configurations)",
    )
    sweep_p.add_argument("--seeds", default="1", help="comma-separated clock seeds")
    sweep_p.add_argument(
        "--workers",
        default=None,
        help="worker count, or 'auto' for every core (REPRO_WORKERS)",
    )
    sweep_p.add_argument(
        "--backend",
        choices=["auto", "thread", "process", "serial"],
        default=None,
        help=(
            "execution backend (REPRO_BACKEND); auto uses threads when "
            "the GIL-releasing native loop is available, else processes"
        ),
    )
    sweep_p.add_argument(
        "--batch",
        default=None,
        help=(
            "batch-cell size: a positive integer or 'auto' (REPRO_BATCH); "
            "auto sizes cells per backend, batched runs stay byte-identical"
        ),
    )
    sweep_p.add_argument("--scale", type=float, default=None)
    sweep_p.add_argument("--cache-dir", default=None)
    sweep_p.add_argument("--no-cache", action="store_true")
    sweep_p.add_argument(
        "--reference",
        default="mcd_base",
        help="aggregate vs this configuration ('' to skip)",
    )
    sweep_p.add_argument(
        "--json", default=None, help="write the ResultSet to this path"
    )
    sweep_p.add_argument("--verbose", action="store_true", help="progress logging")
    sweep_p.set_defaults(func=_cmd_sweep)

    cmp_p = sub.add_parser("compare", help="compare algorithms on a mix")
    cmp_p.add_argument("benchmarks", nargs="+")
    cmp_p.add_argument("--scale", type=float, default=1.0)
    cmp_p.add_argument("--seed", type=int, default=1)
    cmp_p.set_defaults(func=_cmd_compare)

    exp_p = sub.add_parser(
        "export-trace", help="record a workload to a portable ETF file"
    )
    exp_p.add_argument("benchmark")
    exp_p.add_argument("path")
    exp_p.add_argument("--scale", type=float, default=1.0)
    exp_p.add_argument("--seed-offset", type=int, default=0)
    exp_p.set_defaults(func=_cmd_export_trace)

    imp_p = sub.add_parser(
        "import-trace", help="validate/register an ETF file, optionally run it"
    )
    imp_p.add_argument("path")
    imp_p.add_argument(
        "--register-as",
        default=None,
        help="name to register under (default: '<header name>@etf')",
    )
    imp_p.add_argument(
        "--run", action="store_true", help="simulate the imported trace"
    )
    add_run_arguments(imp_p)
    imp_p.set_defaults(func=_cmd_import_trace)

    sub.add_parser("hardware", help="Table 3 gate estimate").set_defaults(
        func=_cmd_hardware
    )

    def add_db_argument(parser_: argparse.ArgumentParser) -> None:
        """The shared --db option of the result-database verbs."""
        parser_.add_argument(
            "--db",
            default=None,
            help="result database directory (default results/db, "
            "REPRO_RESULTDB_DIR aware)",
        )

    rec_p = sub.add_parser(
        "record", help="append benchmark runs to the result database"
    )
    rec_p.add_argument(
        "paths", nargs="*", help="bench artifact JSON files to ingest"
    )
    rec_p.add_argument(
        "--bench",
        default=None,
        help="bench name for ingested files (default: the file stem)",
    )
    rec_p.add_argument(
        "--backend", default=None, help="execution backend to stamp, if any"
    )
    rec_p.add_argument(
        "--run",
        choices=sorted(PERF_BENCHES),
        default=None,
        help="run this perf bench now and record it (REPRO_SCALE aware)",
    )
    add_db_argument(rec_p)
    rec_p.set_defaults(func=_cmd_record)

    rep_p = sub.add_parser(
        "report", help="render the stored performance trajectory"
    )
    rep_p.add_argument(
        "--bench",
        default=None,
        help="compare this bench across runs (default: database overview)",
    )
    rep_p.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metric columns (default: the gated metrics)",
    )
    rep_p.add_argument(
        "--format",
        choices=["text", "csv", "html"],
        default="text",
        help="output format",
    )
    rep_p.add_argument("--backend", default=None, help="only runs on this backend")
    rep_p.add_argument(
        "--version-filter", default=None, help="only runs of this repro version"
    )
    add_db_argument(rep_p)
    rep_p.set_defaults(func=_cmd_report)

    chk_p = sub.add_parser(
        "check", help="regression-gate the latest run against the trajectory"
    )
    chk_p.add_argument(
        "--bench",
        default=None,
        help="bench to gate (default: every recorded bench with a "
        "registered bootstrap floor)",
    )
    chk_p.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metrics to gate (default: the registered ones)",
    )
    chk_p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below the historical best "
        f"(default {DEFAULT_TOLERANCE})",
    )
    add_db_argument(chk_p)
    chk_p.set_defaults(func=_cmd_check)

    register_campaign_parser(sub)
    register_serve_parser(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Invoked with no subcommand, prints usage and returns 2 (the
    argparse convention) rather than dying with an error.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # One boundary for every verb: no raw traceback on Ctrl-C.
        # The orchestrator has already cancelled its backends by the
        # time the interrupt propagates here; release any exported
        # shared-memory segments and exit with the SIGINT convention.
        _interrupt_cleanup()
        print(f"\n{args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
