"""Single-run simulation driver.

:class:`SimulationSpec` names everything that determines a run —
benchmark, processor/MCD configuration, clocking mode, controller — and
:func:`run_spec` executes it.  Specs are deterministic: the same spec
always produces the same :class:`~repro.uarch.core.CoreResult`.

A spec's ``path`` picks the interpreter.  The native C loop (the
default wherever the extension builds) runs over the benchmark's
*compiled* trace (:mod:`repro.uarch.compiled_trace`): the workload is
generated once, content-hash-cached on disk next to the experiment
result cache, and every subsequent run of the same (benchmark, scale,
seed) — across processes, orchestrator workers and sessions — reuses
the columnar form.  The pure-Python reference interpreter
(``path="python"``, and the fallback without a C compiler) runs over
the generator trace instead.  Both are byte-identical; see
``benchmarks/bench_control_loop.py`` for the measured ratio.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.concurrency import FlightMemo
from repro.config.mcd import Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.control.base import FrequencyController
from repro.errors import ExperimentError, SimulationError
from repro.uarch.compiled_trace import (
    CompiledTrace,
    TraceStore,
    from_columns,
    trace_columns,
)
from repro.uarch.core import CoreOptions, CoreResult, MCDCore
from repro.workloads.catalog import BenchmarkSpec, get_benchmark

#: Regulator slew rate used with the scaled catalog workloads.  The
#: paper's 49.1 ns/MHz makes a full-range transition take ~3.7 of its
#: 10,000-instruction control intervals; our catalog compresses run
#: length (and interval length) by roughly 20-30x, so the slew rate is
#: compressed alongside to preserve the ratio of actuation delay to
#: control interval — otherwise the regulator, not the algorithm, would
#: dominate the scaled results (docs/design.md substitution #2).
SCALED_SLEW_NS_PER_MHZ = 1.5


def scaled_mcd_config() -> MCDConfig:
    """Table 1 electricals with the time-compression-matched slew rate."""
    return MCDConfig(slew_ns_per_mhz=SCALED_SLEW_NS_PER_MHZ)


#: Default capacity of the in-process compiled-trace cache: the 30
#: Table 5 benchmarks plus two, so a sweep that cycles the whole
#: catalog (Table 6's Global searches step through all 30 benchmarks
#: per frequency) builds each trace once instead of once per step.
TRACE_CACHE_ENTRIES = 32


def trace_cache_entries() -> int:
    """Capacity of the in-process compiled-trace cache.

    ``REPRO_TRACE_CACHE`` overrides the default of
    :data:`TRACE_CACHE_ENTRIES`; values below 1 clamp to one entry.
    What a full cache holds grows linearly with scale: a compiled
    trace is 22 bytes per instruction, 1.8–3.5 MB for a catalog
    benchmark at scale 1.0 (80k–160k instructions), so the 30-trace
    catalog is ~64 MB at scale 1.0 and ~256 MB at scale 4.  Lower the
    bound on memory-tight hosts that sweep long windows.
    """
    raw = os.environ.get("REPRO_TRACE_CACHE", str(TRACE_CACHE_ENTRIES))
    try:
        entries = int(raw)
    except ValueError:
        raise ExperimentError(
            f"malformed REPRO_TRACE_CACHE {raw!r}: expected an integer"
        ) from None
    return max(1, entries)


class TraceCache(FlightMemo):
    """Process-wide, thread-safe, size-bounded cache of compiled traces.

    Keyed by content hash; one instance is shared by every run in the
    process, so N thread-pool workers sweeping the same benchmarks load
    and compile each trace once instead of N times.  Lookups are LRU;
    concurrent misses on one key are single-flighted — the first
    thread builds while the others wait and then reuse the result,
    because building a trace (generate + columnise) is exactly the
    expensive work the cache exists to avoid repeating.

    Every lookup sizes the cache from ``REPRO_TRACE_CACHE``
    (:func:`trace_cache_entries`), so it always holds the bound an
    :class:`~repro.experiments.orchestrator.Orchestrator` last
    validated, and a malformed value surfaces as an ExperimentError
    inside run handling, not as an import-time crash of every entry
    point.  A smaller bound evicts at the next build.
    """

    def __init__(self) -> None:
        super().__init__(0)

    def get_or_build(self, key: str, build) -> CompiledTrace:
        """The cached trace under ``key``, building it at most once."""
        self._items.entries = trace_cache_entries()
        return super().get_or_build(key, build)


#: Shared on-disk store of compiled traces plus the process-wide
#: compiled-trace cache above.
_TRACE_STORE = TraceStore()
_TRACE_MEMO = TraceCache()


def compiled_trace_for(
    bench: BenchmarkSpec,
    scale: float = 1.0,
    seed_offset: int = 0,
) -> CompiledTrace:
    """The benchmark's compiled trace, through cache layers.

    Lookup order: the process-wide :class:`TraceCache`, then the
    on-disk ``TraceStore`` (disabled by ``REPRO_CACHE=0``), then
    generate-and-compile.  The content-hash key joins the full trace
    identity
    (:meth:`~repro.workloads.catalog.BenchmarkSpec.trace_payload`),
    ``COMPILED_TRACE_VERSION``, and the experiment cache's
    ``CACHE_VERSION``, so bumping either version invalidates stale
    compiled traces alongside stale results.  No key holds the cache
    geometry: a compiled trace is only its base columns, so one trace
    serves every geometry.

    Thread-safe: concurrent callers for one trace wait on a single
    build, and the returned instance is safely shared across threads
    (its arrays are read-only).
    """
    # Deferred import: repro.experiments imports this module.
    from repro.experiments.cache import CACHE_VERSION

    payload = bench.trace_payload(scale, seed_offset)
    payload["cache_version"] = CACHE_VERSION
    key = _TRACE_STORE.key(payload)

    def build() -> CompiledTrace:
        from repro.experiments.executor import cache_enabled

        use_disk = cache_enabled()
        compiled = _TRACE_STORE.load(key) if use_disk else None
        if compiled is None:
            trace = bench.build_trace(scale=scale, seed_offset=seed_offset)
            compiled = from_columns(trace_columns(trace))
            if use_disk:
                _TRACE_STORE.store(key, compiled)
        return compiled

    return _TRACE_MEMO.get_or_build(key, build)


@dataclass
class SimulationSpec:
    """A fully specified simulation run.

    Parameters
    ----------
    benchmark:
        Catalog name (see :mod:`repro.workloads.catalog`).
    mcd:
        MCD clocking (True) or the fully synchronous baseline (False).
    controller:
        Frequency controller, or None for fixed initial frequencies.
    global_frequency_mhz:
        When set, every on-chip domain starts (and stays, absent a
        controller) at this frequency — the global-DVFS operating
        point.
    scale:
        Workload length scale (1.0 = the catalog's scaled windows).
    seed:
        Clock phase and jitter seed.  It does not reach the trace:
        every seed of one ``(benchmark, scale)`` runs over the same
        trace.  It reaches the core only under MCD clocking (see
        :attr:`clock_seed`).
    record_intervals:
        Keep the per-interval log (Figures 2/3).
    path:
        Interpreter selection: ``"native"`` runs the C loop over the
        compiled trace and requires the extension; ``"python"`` runs
        the pure-Python reference interpreter over the generator
        trace; ``"auto"`` (default) picks ``native`` when the
        extension loads, else ``python``.  Both interpreters are
        byte-identical — this knob exists for equivalence tests and
        the path benchmark (``benchmarks/bench_control_loop.py``).
    memory_tracks_global:
        Scale main-memory latency with ``global_frequency_mhz``
        (latency constant in processor cycles, SimpleScalar-style).
        The paper's global-DVFS analysis exhibits exactly this
        behaviour — every application's run time stretches roughly
        proportionally with the global clock, yielding the reported
        power/performance ratio of ~2 — so the ``Global(...)`` rows
        reproduce it.  MCD runs always keep the external domain at
        fixed wall-clock latency (it is independently clocked at
        maximum, Section 2).
    """

    benchmark: str
    mcd: bool = True
    controller: FrequencyController | None = None
    global_frequency_mhz: float | None = None
    scale: float = 1.0
    seed: int = 1
    record_intervals: bool = False
    memory_tracks_global: bool = False
    path: str = "auto"
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    mcd_config: MCDConfig = field(default_factory=scaled_mcd_config)

    @property
    def clock_seed(self) -> int | None:
        """The seed the core runs with: ``seed`` under MCD, else None.

        The seed rule, stated once.  A fully synchronous core has one
        clock with no random phase and no jitter, so nothing in it may
        depend on the seed; :func:`_build_core` hands the core only
        this value, and a non-MCD spec's result is the same at every
        seed (``tests/test_seed_free.py`` checks that on every catalog
        benchmark, on both interpreters).  The executor relies on it to
        simulate a seed-free run once per sweep.
        """
        return self.seed if self.mcd else None


def _build_core(spec: SimulationSpec) -> tuple[MCDCore, object]:
    """Build the (cold) core and trace one spec describes."""
    from repro.uarch.native import load_hotpath

    if spec.path not in ("auto", "native", "python"):
        raise ExperimentError(
            f"unknown execution path {spec.path!r}; expected auto, native or python"
        )
    native = spec.path != "python" and load_hotpath() is not None
    if spec.path == "native" and not native:
        raise SimulationError(
            "native path requested but the extension is unavailable"
        )
    bench = get_benchmark(spec.benchmark)
    if native:
        trace = compiled_trace_for(bench, scale=spec.scale)
    else:
        trace = bench.build_trace(scale=spec.scale)
    initial = None
    processor = spec.processor
    if spec.global_frequency_mhz is not None:
        f = spec.global_frequency_mhz
        cfg = spec.mcd_config
        if not cfg.min_frequency_mhz <= f <= cfg.max_frequency_mhz:
            raise ExperimentError(f"global frequency {f} MHz out of range")
        initial = {
            Domain.FRONT_END: f,
            Domain.INTEGER: f,
            Domain.FLOATING_POINT: f,
            Domain.LOAD_STORE: f,
        }
        if spec.memory_tracks_global:
            from dataclasses import replace

            processor = replace(
                processor,
                memory_latency_ns=processor.memory_latency_ns
                * cfg.max_frequency_mhz
                / f,
            )
    options = CoreOptions(
        mcd=spec.mcd,
        seed=spec.clock_seed,
        interval_instructions=bench.interval_instructions,
        record_interval_trace=spec.record_intervals,
        initial_frequencies_mhz=initial,
    )
    core = MCDCore(
        processor=processor,
        mcd_config=spec.mcd_config,
        trace=trace,
        controller=spec.controller,
        options=options,
    )
    return core, trace


def run_spec(spec: SimulationSpec) -> CoreResult:
    """Execute one simulation run.

    The core first replays the whole trace through its predictor and
    caches, approximating the paper's warm mid-execution windows.  The
    timed trace doubles as the warm-up stream: a compiled trace is
    replayed directly from its columns, and a generator trace is
    deterministic (each blocks() call replays it from the seed), so
    building a second copy would only duplicate the phase bookkeeping.
    """
    core, trace = _build_core(spec)
    core.warm_up(trace, limit=trace.total_instructions)
    return core.run()


def run_specs_batch(specs: list[SimulationSpec]) -> list[CoreResult]:
    """Execute several runs through one native ``run_batch`` call.

    Byte-identity contract: the returned list equals
    ``[run_spec(s) for s in specs]`` exactly — same ``CoreResult``
    values, same final controller/regulator diagnostics.  The batch
    amortises what a per-run loop repeats: one GIL release and one C
    entry for the whole vector.  Each run warms up on its own (in C,
    a few milliseconds per trace).

    Anything that cannot take the native loop (no C loop, ``python``
    specs) runs per run through :func:`run_spec` instead.  An error
    during batch assembly or execution (a controller callback raising,
    a trace-exhausted run, a marshal error) propagates: the batch
    vector is all or nothing, and the caller decides how to recover —
    :meth:`~repro.experiments.executor.ExecutionContext.run_batch`
    re-runs the cell per run, once, so only the failing spec records
    an error.
    """
    from repro.uarch.native import load_hotpath

    hotpath = load_hotpath()
    if (
        len(specs) <= 1
        or hotpath is None
        or getattr(hotpath, "run_batch", None) is None
        or any(spec.path == "python" for spec in specs)
    ):
        return [run_spec(spec) for spec in specs]
    args_vector = []
    finishes = []
    for spec in specs:
        core, trace = _build_core(spec)
        core.warm_up(trace, limit=trace.total_instructions)
        args, finish = core.native_marshal()
        args_vector.append(args)
        finishes.append(finish)
    raw = hotpath.run_batch(args_vector)
    return [finish(res) for finish, res in zip(finishes, raw)]
