"""Scenario execution: registry resolution, caching, environment knobs.

:class:`ExecutionContext` is the single place a scenario becomes a
simulation: it resolves the configuration name through the registry,
checks the content-addressed cache, runs the spec, and stores the
outcome.  One context lives per process — orchestrator workers each
build their own and share results through the on-disk cache (whose
writes are atomic, see :mod:`repro.experiments.cache`).

Environment knobs
-----------------
``REPRO_SCALE``
    Scales all workload lengths (e.g. 0.2 for quick iterations).
``REPRO_BENCHMARKS``
    Comma-separated subset of the catalog.
``REPRO_CACHE``
    Set to ``0`` to disable the on-disk cache.
``REPRO_WORKERS``
    Default worker count for the orchestrator (``auto`` = all cores).
``REPRO_BACKEND``
    Default orchestrator backend (``auto``/``thread``/``process``/
    ``serial``; see :mod:`repro.experiments.orchestrator`).
``REPRO_BATCH``
    Default sweep batch-cell size (``auto`` or a positive integer;
    see ``Orchestrator._resolve_batch``).
"""

from __future__ import annotations

import logging
import os
import threading
import traceback
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

from repro.concurrency import FlightMemo, SingleFlight
from repro.control.offline import OfflineProfile, OfflineProfiler
from repro.errors import ExperimentError
from repro.experiments.cache import CacheStore
from repro.experiments.registry import CONFIGURATIONS
from repro.experiments.results import RunOutcome, RunRecord
from repro.experiments.scenario import Scenario
from repro.metrics.summary import RunSummary, summarize
from repro.sim.engine import SimulationSpec, run_spec
from repro.workloads.catalog import BENCHMARKS, get_benchmark, is_known_benchmark

logger = logging.getLogger(__name__)


def _runtime_workload_identity(name: str) -> dict | None:
    """Content identity for runtime-registered workloads, else None.

    Catalog and derived-catalog benchmarks are pure functions of the
    code, so their *names* identify them and cached results stay valid
    across processes.  A runtime registration
    (:func:`~repro.workloads.catalog.register_benchmark` with
    ``replace=True``, e.g. an ETF import) can bind different traces to
    the same name over time — its trace payload (phase script or
    column checksum) must therefore join the result-cache key, or a
    re-registration would be served the previous trace's numbers.
    """
    if name in BENCHMARKS:
        return None
    from repro.workloads.derived import DERIVED_BENCHMARKS

    if name in DERIVED_BENCHMARKS:
        return None
    try:
        spec = get_benchmark(name)
    except Exception:  # unknown name: let execution surface the error
        return None
    return spec.trace_payload()


def identity_payload(benchmark: str, **parts) -> dict:
    """The identity of some work on ``benchmark``: ``parts`` plus the workload's.

    The one payload builder behind the result-cache key, the profile
    memo and the seed-free run memo.  A runtime-registered workload
    joins its trace payload (see :func:`_runtime_workload_identity`),
    so no memo serves a re-registered name the previous trace's
    numbers.
    """
    payload = {"benchmark": benchmark, **parts}
    workload = _runtime_workload_identity(benchmark)
    if workload is not None:
        payload["workload"] = workload
    return payload


def benchmark_scale() -> float:
    """The workload length scale from ``REPRO_SCALE`` (default 1.0)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        raise ExperimentError(
            f"malformed REPRO_SCALE {raw!r}: expected a number"
        ) from None
    if scale <= 0:
        raise ExperimentError(f"REPRO_SCALE must be positive, got {raw!r}")
    return scale


def quick_benchmarks(default: list[str] | None = None) -> list[str]:
    """Benchmark subset from ``REPRO_BENCHMARKS`` (default: all)."""
    env = os.environ.get("REPRO_BENCHMARKS")
    if env:
        names = [n.strip() for n in env.split(",") if n.strip()]
        if not names:
            raise ExperimentError(
                f"malformed REPRO_BENCHMARKS {env!r}: no benchmark names"
            )
        unknown = [n for n in names if not is_known_benchmark(n)]
        if unknown:
            raise ExperimentError(
                f"unknown benchmarks in REPRO_BENCHMARKS={env!r}: {unknown}"
            )
        return names
    return default if default is not None else list(BENCHMARKS)


def cache_enabled() -> bool:
    """Whether the on-disk cache is enabled (``REPRO_CACHE`` != 0)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def parse_workers(raw: int | str | None, source: str = "workers") -> int:
    """Resolve a worker-count setting to a concrete positive integer.

    Accepts an int, a decimal string, or ``"auto"`` (all cores, i.e.
    ``os.cpu_count()``); None means 1 (serial).  ``source`` names the
    knob in error messages (``REPRO_WORKERS``, ``--workers``, ...).
    """
    if raw is None:
        return 1
    if isinstance(raw, int):
        return max(1, raw)
    text = str(raw).strip()
    if text.lower() == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        workers = int(text)
    except ValueError:
        raise ExperimentError(
            f"malformed {source} {raw!r}: expected an integer or 'auto'"
        ) from None
    return max(1, workers)


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default 1: serial).

    ``REPRO_WORKERS=auto`` resolves to the machine's core count
    instead of silently running serially.
    """
    return parse_workers(os.environ.get("REPRO_WORKERS", "1"), "REPRO_WORKERS")


def parse_batch(raw: int | str | None, source: str = "batch") -> int | None:
    """Resolve a batch-size setting to a positive integer or None.

    ``None``/``"auto"`` return None — the orchestrator then sizes batch
    cells per backend (see ``Orchestrator._resolve_batch``).  Anything
    else must be a positive integer; ``source`` names the knob in
    error messages (``REPRO_BATCH``, ``--batch``, ...).
    """
    if raw is None:
        return None
    if not isinstance(raw, int):
        text = str(raw).strip()
        if text.lower() == "auto":
            return None
        try:
            raw = int(text)
        except ValueError:
            raise ExperimentError(
                f"malformed {source} {text!r}: expected a positive integer or 'auto'"
            ) from None
    if raw < 1:
        raise ExperimentError(f"{source} must be >= 1, got {raw!r}")
    return raw


def default_batch() -> int | None:
    """Batch size from ``REPRO_BATCH`` (default ``auto``: per-backend)."""
    return parse_batch(os.environ.get("REPRO_BATCH", "auto"), "REPRO_BATCH")


class ProfiledRun(NamedTuple):
    """The off-line profile of one run at maximum frequencies, and its summary.

    The profiler is passive, so ``summary`` is exactly the summary of
    the same benchmark, scale and seed under ``mcd_base``.
    """

    profile: OfflineProfile
    summary: RunSummary


#: Write-through memory front on each context's result store: results
#: computed by any thread of a thread-pool sweep are immediately
#: visible to the others without a disk read (entries are small result
#: dicts, so the bound is generous).  The profile and seed-free run
#: memos share the bound.
RESULT_MEMORY_ENTRIES = 4096


class ExecutionContext:
    """Runs scenarios through the registry with caching.

    A context is thread-safe and deliberately shared by every worker of
    the orchestrator's thread backend: the result store has a
    write-through in-memory front, and two single-flighted memos make
    concurrent scenarios share work:

    * the profiling memo runs one off-line profile per (workload,
      scale, seed) — see :meth:`profile`;
    * the seed-free memo runs a spec without MCD clocking and without a
      controller once for every seed: the seed reaches only MCD cores
      (:attr:`~repro.sim.engine.SimulationSpec.clock_seed`), so a
      ``sync`` or ``global@f`` cell is simulated once per sweep, not
      once per seed.  It is keyed by the produced spec's fields minus
      the seed, not by the scenario, because a factory may derive any
      other spec field from the seed.

    Parameters
    ----------
    cache_dir:
        Where JSON results live; created on demand.
    scale:
        Default workload length scale; defaults to ``REPRO_SCALE``.
    seed:
        Default clock phase/jitter seed for scenarios that leave
        theirs unset.
    use_cache:
        Overrides ``REPRO_CACHE``.
    dedup:
        Single-flight identical scenario requests (the multi-tenant
        daemon's mode): when two callers — typically two concurrent
        jobs sharing this context — ask for the same scenario while
        neither result is cached yet, exactly one executes and the
        other waits on it, then reads the result back through the
        shared :class:`CacheStore` memory front.  With the cache
        disabled the arbitration still serialises concurrent
        duplicates (each waiter re-builds in turn, since nothing is
        published to share).  Dedup trades the native batch entry for
        per-run execution — see :meth:`run_batch`.
    """

    def __init__(
        self,
        cache_dir: Path | str | None = None,
        scale: float | None = None,
        seed: int = 1,
        use_cache: bool | None = None,
        dedup: bool = False,
    ) -> None:
        self.scale = benchmark_scale() if scale is None else scale
        self.seed = seed
        enabled = cache_enabled() if use_cache is None else use_cache
        self.cache = CacheStore(
            cache_dir, enabled=enabled, memory_entries=RESULT_MEMORY_ENTRIES
        )
        self.dedup = dedup
        #: How many scenario results this context actually computed
        #: (builds) vs served from another caller's in-flight or cached
        #: work (hits).  Only meaningful with ``dedup=True``; the serve
        #: daemon surfaces them on ``/healthz``.
        self.dedup_builds = 0
        self.dedup_hits = 0
        self._dedup_stats_lock = threading.Lock()
        self._results_flight = SingleFlight()
        self._profiles = FlightMemo(RESULT_MEMORY_ENTRIES)
        self._seed_free = FlightMemo(RESULT_MEMORY_ENTRIES)

    # --- effective scenario parameters ------------------------------------
    def effective_scale(self, scenario: Scenario) -> float:
        """The scenario's scale, or this context's default."""
        return self.scale if scenario.scale is None else scenario.scale

    def effective_seed(self, scenario: Scenario) -> int:
        """The scenario's seed, or this context's default."""
        return self.seed if scenario.seed is None else scenario.seed

    def cache_key(self, scenario: Scenario) -> str:
        """The content-addressed cache key of one scenario.

        For catalog/derived benchmarks the name is the identity; a
        runtime-registered workload additionally contributes its trace
        payload (see :func:`identity_payload`).
        """
        return self.cache.key(
            identity_payload(
                scenario.benchmark,
                configuration=scenario.configuration,
                scale=self.effective_scale(scenario),
                seed=self.effective_seed(scenario),
                overrides=[list(pair) for pair in scenario.overrides],
            )
        )

    def _seed_free_key(self, spec: SimulationSpec) -> str | None:
        """The seed-free memo key of ``spec``, or None when it has none.

        A spec whose core sees its seed (MCD clocking) or that carries
        a controller (state no key can capture) is never memoised.
        """
        if spec.clock_seed is not None or spec.controller is not None:
            return None
        payload = {}
        for f in fields(spec):
            if f.name not in ("benchmark", "seed", "controller"):
                value = getattr(spec, f.name)
                payload[f.name] = asdict(value) if is_dataclass(value) else value
        return self.cache.key(identity_payload(spec.benchmark, **payload))

    def _simulate(self, spec: SimulationSpec) -> RunSummary:
        """Run and summarise one spec; a seed-free spec runs once per context."""
        key = self._seed_free_key(spec)
        if key is None:
            return summarize(run_spec(spec))
        return self._seed_free.get_or_build(key, lambda: summarize(run_spec(spec)))

    # --- execution ---------------------------------------------------------
    def _produce(
        self, scenario: Scenario
    ) -> tuple[str, RunRecord | SimulationSpec | RunSummary]:
        """Resolve one scenario: ``(key, cached RunRecord | factory product)``.

        A cache hit short-circuits as a :class:`RunRecord` (factories
        never return one, so the type disambiguates); otherwise the
        configuration factory's product — a
        :class:`~repro.sim.engine.SimulationSpec` to execute or an
        already-computed :class:`~repro.metrics.summary.RunSummary` —
        comes back for the caller to run.  Any other product raises
        :class:`~repro.errors.ExperimentError`.
        """
        key = self.cache_key(scenario)
        cached = self.cache.load(key)
        if cached is not None:
            try:
                return key, RunRecord.from_dict(cached)
            except (KeyError, TypeError):
                pass  # wrong shape: recompute below
        factory, parsed = CONFIGURATIONS.resolve(scenario.configuration)
        params = {**parsed, **scenario.override_mapping()}
        produced = factory(
            self,
            scenario.benchmark,
            scale=self.effective_scale(scenario),
            seed=self.effective_seed(scenario),
            **params,
        )
        if not isinstance(produced, (SimulationSpec, RunSummary)):
            raise ExperimentError(
                f"configuration {scenario.configuration!r} returned "
                f"{type(produced).__name__}; expected SimulationSpec or RunSummary"
            )
        return key, produced

    def _complete(self, scenario: Scenario, key: str, summary: RunSummary) -> RunRecord:
        """Store and return one computed scenario result."""
        record = RunRecord(
            benchmark=scenario.benchmark,
            configuration=scenario.configuration,
            summary=summary,
        )
        self.cache.store(key, record.to_dict())
        return record

    def run(self, scenario: Scenario) -> RunRecord:
        """Execute one scenario (or load it from the cache).

        The configuration factory receives this context, the benchmark
        name, and the merged parsed-name/override parameters; it
        returns either a :class:`~repro.sim.engine.SimulationSpec` to
        run or an already-computed
        :class:`~repro.metrics.summary.RunSummary` (multi-run searches
        such as ``dynamic_*``).

        Under ``dedup=True`` the execution is single-flighted on the
        scenario's cache key: concurrent identical requests elect one
        builder, the rest wait and load the stored result.
        """
        if not self.dedup:
            return self._run_direct(scenario)

        def lookup():
            cached = self.cache.load(key)
            if cached is None:
                return None
            try:
                return RunRecord.from_dict(cached)
            except (KeyError, TypeError):
                return None  # wrong shape: let the builder recompute

        key = self.cache_key(scenario)
        # publish is a no-op: _run_direct already stores through
        # self.cache, which is exactly where waiters' lookup reads.
        record, hit = self._results_flight.run(
            key, lookup, lambda: self._run_direct(scenario), lambda value: None
        )
        with self._dedup_stats_lock:
            if hit:
                self.dedup_hits += 1
            else:
                self.dedup_builds += 1
        return record

    def _run_direct(self, scenario: Scenario) -> RunRecord:
        """The un-arbitrated execution path behind :meth:`run`."""
        key, produced = self._produce(scenario)
        if isinstance(produced, RunRecord):
            return produced
        if isinstance(produced, SimulationSpec):
            produced = self._simulate(produced)
        return self._complete(scenario, key, produced)

    def run_isolated(self, scenario: Scenario) -> RunOutcome:
        """Execute one scenario, capturing any failure as an outcome."""
        try:
            return RunOutcome(scenario=scenario, record=self.run(scenario))
        except Exception:
            return RunOutcome(scenario=scenario, error=traceback.format_exc())

    def run_batch(self, scenarios: list[Scenario]) -> list[RunOutcome]:
        """Execute a cell of scenarios, batching the native-path specs.

        Semantics match ``[self.run_isolated(s) for s in scenarios]``
        byte for byte: cache hits short-circuit, non-spec products
        (multi-run searches returning a ``RunSummary``) complete
        per scenario, and each failure is captured as that scenario's
        outcome, never the cell's.  Every scenario whose factory
        produced a :class:`~repro.sim.engine.SimulationSpec` joins one
        :func:`~repro.sim.engine.run_specs_batch` vector — one native
        entry and one GIL release for the whole cell.  A seed-free
        spec joins it once: a seed-free memo hit needs no slot, a
        repeat within the cell shares its first run's slot, and a run
        another thread is already building is waited for after the
        vector.  The cell claims its seed-free keys only after every
        factory has run, so no factory waits while the cell holds one.
        When that vector raises, the cell falls back once to per-run
        execution (logged), so only the failing scenario records an
        error.

        A one-scenario cell *is* :meth:`run_isolated` — the per-run
        sweep's path.  Under ``dedup=True`` the batch degrades to the
        per-run loop too: single-flight arbitration is per scenario,
        and letting a duplicate hide inside a batch vector would
        defeat it.
        """
        if self.dedup or len(scenarios) == 1:
            return [self.run_isolated(s) for s in scenarios]
        outcomes: list[RunOutcome | None] = [None] * len(scenarios)
        # (scenario index, cache key, spec, seed-free memo key or None)
        specs: list[tuple[int, str, SimulationSpec, str | None]] = []
        # Every factory runs before the cell claims a seed-free key: a
        # factory may itself wait on a seed-free run (``ctx.summary``
        # of a ``sync`` reference), and a claim held across that wait
        # deadlocks — on this thread, or against another cell's claim.
        for i, scenario in enumerate(scenarios):
            try:
                key, produced = self._produce(scenario)
                if isinstance(produced, SimulationSpec):
                    specs.append((i, key, produced, self._seed_free_key(produced)))
                    continue
                if isinstance(produced, RunSummary):
                    produced = self._complete(scenario, key, produced)
                outcomes[i] = RunOutcome(scenario=scenario, record=produced)
            except Exception:
                outcomes[i] = RunOutcome(scenario=scenario, error=traceback.format_exc())
        vector: list[SimulationSpec] = []
        slots: dict[str, int] = {}  # claimed seed-free key -> its vector slot
        # (scenario index, cache key, spec, memo hit or None, vector slot
        # or None: run it through _simulate after the vector)
        jobs: list[tuple[int, str, SimulationSpec, RunSummary | None, int | None]] = []
        summaries = None
        try:
            for i, key, spec, memo_key in specs:
                summary, slot = None, slots.get(memo_key)
                if slot is None and memo_key is not None:
                    summary, owned = self._seed_free.claim(memo_key)
                    if owned:
                        slot = slots[memo_key] = len(vector)
                        vector.append(spec)
                elif slot is None:
                    slot = len(vector)
                    vector.append(spec)
                jobs.append((i, key, spec, summary, slot))
            if vector:
                from repro.sim.engine import run_specs_batch

                try:
                    summaries = [summarize(r) for r in run_specs_batch(vector)]
                except Exception as exc:
                    # The per-run loop below re-runs these same specs on
                    # fresh cores whose controllers re-``begin``, so the
                    # healthy ones stay byte-identical.
                    logger.warning(
                        "batch cell of %d run(s) failed (%s: %s); re-running it per run",
                        len(vector), type(exc).__name__, exc,
                    )
        finally:
            # Publish (or, on failure, give up) every claimed seed-free
            # build before anything below can wait on one.
            for memo_key, slot in slots.items():
                self._seed_free.release(
                    memo_key, None if summaries is None else summaries[slot]
                )
        for i, key, spec, summary, slot in jobs:
            scenario = scenarios[i]
            try:
                if summary is None:
                    summary = (
                        summaries[slot]
                        if summaries is not None and slot is not None
                        else self._simulate(spec)
                    )
                outcomes[i] = RunOutcome(
                    scenario=scenario, record=self._complete(scenario, key, summary)
                )
            except Exception:
                outcomes[i] = RunOutcome(
                    scenario=scenario, error=traceback.format_exc()
                )
        return outcomes

    def summary(
        self,
        benchmark: str,
        configuration: str,
        scale: float | None = None,
        seed: int | None = None,
    ) -> RunSummary:
        """Convenience: the summary of ``configuration`` on ``benchmark``.

        Configuration factories use this for auxiliary cached runs
        (baselines, references); scale/seed default to this context's.
        """
        return self.run(
            Scenario(benchmark, configuration, scale=scale, seed=seed)
        ).summary

    def profile(
        self, benchmark: str, scale: float | None = None, seed: int | None = None
    ) -> ProfiledRun:
        """Profile a benchmark at maximum frequencies (memoised).

        The profile drives the off-line Dynamic schedules, and the
        run's summary is their ``mcd_base`` baseline: the profiler
        changes no frequency, so the run *is* the baseline MCD run.
        One profiling run per (workload, scale, seed) per context,
        even under the thread backend — concurrent callers for one key
        wait on the first thread's profiling run and share its result.
        The workload joins the key as the result-cache key joins it
        (:func:`identity_payload`), so a re-registered name is
        profiled afresh.
        """
        scale = self.scale if scale is None else scale
        seed = self.seed if seed is None else seed
        key = self.cache.key(identity_payload(benchmark, scale=scale, seed=seed))

        def build():
            profiler = OfflineProfiler()
            spec = SimulationSpec(
                benchmark=benchmark,
                mcd=True,
                controller=profiler,
                scale=scale,
                seed=seed,
            )
            summary = summarize(run_spec(spec))
            return ProfiledRun(profiler.profile, summary)

        return self._profiles.get_or_build(key, build)


#: Per-process context reuse, so a pool worker keeps its in-memory
#: memoisations (off-line profiles) across the scenarios it executes.
_WORKER_CONTEXTS: dict[tuple, ExecutionContext] = {}


def execute_cell(
    scenarios: list[Scenario],
    cache_dir: str | None,
    use_cache: bool | None,
    scale: float,
    seed: int,
) -> list[RunOutcome]:
    """Worker entry point: run one batch cell in this process's context.

    Module-level (picklable) so :mod:`multiprocessing` pools can map
    over a sweep's cells; every failure is captured into its outcome
    so one bad run never takes the pool down.  Contexts are memoised
    per (cache_dir, use_cache, scale, seed) so a worker recomputes
    profiling runs at most once, not once per cell.
    """
    return _worker_context(cache_dir, use_cache, scale, seed).run_batch(scenarios)


def _worker_context(
    cache_dir: str | None,
    use_cache: bool | None,
    scale: float,
    seed: int,
) -> ExecutionContext:
    """This process's memoised context for the given knobs."""
    key = (cache_dir, use_cache, scale, seed)
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        ctx = _WORKER_CONTEXTS[key] = ExecutionContext(
            cache_dir=cache_dir, scale=scale, seed=seed, use_cache=use_cache
        )
    return ctx
