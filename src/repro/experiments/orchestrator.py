"""Parallel execution of a scenario matrix.

The :class:`Orchestrator` takes a :class:`~repro.experiments.scenario.Suite`
(or a plain scenario list), fans it out across a worker backend, and
collects a :class:`~repro.experiments.results.ResultSet`.  Properties:

* **Determinism** — simulations are seeded and deterministic, and
  outcomes are returned in matrix order regardless of completion order,
  so every backend produces identical result sets.
* **Error isolation** — each run's failure is captured into its
  outcome (with a traceback); the rest of the matrix completes.
* **Shared cache** — workers share the content-addressed on-disk store;
  writes are atomic (:mod:`repro.experiments.cache`), so a re-run hits
  the same keys whichever worker computed them.

Backends
--------
``serial``
    Everything in the calling thread; also what a 1-worker or 1-run
    matrix degenerates to.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` over one shared
    :class:`~repro.experiments.executor.ExecutionContext`.  The native
    hot loop releases the GIL for its compute stage, so runs genuinely
    overlap while sharing the process's compiled-trace cache and the
    write-through result front — no spawn cost, no per-worker npz
    reloads, no registry snapshots.
``process``
    The :mod:`multiprocessing` pool (fork/spawn/forkserver via
    ``start_method``); the right tool when the native loop is
    unavailable and runs would serialise on the GIL.
``auto``
    ``thread`` when the native loop loads, else ``process``; an
    explicit ``start_method`` also forces ``process`` (a thread pool
    has no start method to honour).

Batch cells
-----------
The **batch cell** is the only unit of dispatch: every backend executes
the matrix as cells — contiguous runs of scenarios sharing one
``(benchmark, scale)`` trace identity — through one completion loop.
A multi-scenario cell rides the native batch entry point (one GIL
release, one writeback pass; see
:func:`repro.sim.engine.run_specs_batch`), so per-run dispatch overhead
amortises across the cell.  A per-run sweep is simply a sweep of
one-scenario cells in matrix order.  ``batch="auto"`` (the default, via
``REPRO_BATCH``) sizes cells at roughly ``total / workers`` for pool
backends and leaves the serial backend per-run; an explicit
``--batch N`` applies to every backend.  Cell boundaries never change
results: outcomes are byte-identical to the per-run paths and still
returned in matrix order.

Every backend resolves traces the same way: each run asks
:func:`repro.sim.engine.compiled_trace_for`, which looks in its
process's trace cache, then the on-disk store, then generates.  Thread
workers share the owner's cache; process workers fill their own.

Lifecycle events
----------------
Events are the only way to watch a sweep.  The orchestrator publishes
typed lifecycle events on an :class:`~repro.execution.bus.EventBus`
when one is supplied: :class:`~repro.execution.events.CellStarted`
when a scenario is picked up, then
:class:`~repro.execution.events.CellFinished` or
:class:`~repro.execution.events.CellFailed` carrying the full
:class:`RunOutcome` and its ``cell`` (the scenario's position in the
submitted matrix).  The campaign journal checkpoint, the CLI progress
printer, and the ``repro serve`` daemon's job streams are all plain
subscribers.  Start events are best-effort per backend (the process
pool cannot observe its workers' starts, so it announces start and
finish together when a cell arrives); per scenario, started always
precedes finished.

Cancellation
------------
Interruption (Ctrl-C, an event subscriber raising, or a
:class:`~repro.execution.cancel.CancelToken` firing) is a first-class
event, not a crash: the thread backend cancels every queued cell
(running ones finish their current simulation) and the process
backend terminates and joins its pool, both before the exception
propagates.  The cancel token is checked before the first cell and
after every completed cell, and the thread backend also checks it when
a worker picks a cell up;
:class:`~repro.execution.cancel.ExecutionCancelled` then rides the
same cleanup rails as Ctrl-C.  Outcomes already announced stay
announced — a checkpointing caller (:mod:`repro.campaigns`) therefore
loses at most the in-flight runs, which the content-addressed cache
makes idempotent to re-execute.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import pickle
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import closing
from multiprocessing.connection import wait
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import ExperimentError
from repro.execution.bus import EventBus
from repro.execution.cancel import CancelToken, ExecutionCancelled
from repro.execution.events import CellFailed, CellFinished, CellStarted
from repro.experiments.executor import (
    ExecutionContext,
    benchmark_scale,
    default_batch,
    default_workers,
    execute_cell,
    parse_batch,
    parse_workers,
)
from repro.experiments.results import ResultSet, RunOutcome
from repro.experiments.scenario import Scenario, Suite

logger = logging.getLogger(__name__)

#: Recognised orchestrator backends.
BACKENDS = ("auto", "serial", "thread", "process")

#: What a backend yields per completed cell: its matrix indices and the
#: outcomes parallel to them.
CompletedCell = tuple[Sequence[int], list[RunOutcome]]


def default_backend() -> str:
    """Backend from ``REPRO_BACKEND`` (default ``auto``)."""
    raw = os.environ.get("REPRO_BACKEND", "auto")
    if raw not in BACKENDS:
        raise ExperimentError(
            f"unknown REPRO_BACKEND {raw!r}; expected one of {', '.join(BACKENDS)}"
        )
    return raw


def _pool_entry(args: tuple) -> CompletedCell:
    """Pool adapter: run one batch cell in a worker process.

    ``indices`` are the cell's positions in the original matrix; the
    returned outcome list is parallel to them.
    """
    indices, scenarios, cache_dir, use_cache, scale, seed = args
    return indices, execute_cell(scenarios, cache_dir, use_cache, scale, seed)


def _worker_main(conn, state: dict) -> None:
    """Process-backend worker: run each cell ``conn`` delivers, reply.

    A reply is ``(True, completed cell)``, or ``(False, exception)``
    for an error the cell did not capture into its outcomes, which the
    parent re-raises.  The loop ends when the parent closes its end.
    """
    _init_worker(state)
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _pool_entry(job))
        except Exception as exc:  # noqa: BLE001 - re-raised by the parent
            reply = (False, exc)
        conn.send(reply)


def _registry_state(require_picklable: bool) -> dict:
    """Snapshot every runtime registration a worker must reproduce.

    Import-time registrations (built-in configurations, the derived
    catalog) re-materialise in any process; this captures what does
    not: workloads registered through
    :func:`~repro.workloads.catalog.register_benchmark` and runtime
    registry additions.  With ``require_picklable`` (spawn/forkserver
    contexts, whose workers receive the snapshot by pickle), entries
    that cannot pickle — e.g. closure factories — are dropped with a
    warning rather than taking the whole pool down; scenarios needing
    them fail individually with a clear unknown-name error.
    """
    from repro.experiments.registry import (
        CLOCKING_MODES,
        CONFIGURATIONS,
        CONTROLLERS,
    )
    from repro.workloads.catalog import runtime_benchmark_snapshot

    state = {
        "benchmarks": runtime_benchmark_snapshot(),
        "configurations": CONFIGURATIONS.snapshot(),
        "controllers": CONTROLLERS.snapshot(),
        "clocking_modes": CLOCKING_MODES.snapshot(),
    }
    if not require_picklable:
        return state

    def picklable(label: str, name: str, value) -> bool:
        try:
            pickle.dumps(value)
            return True
        except Exception:  # noqa: BLE001 - any pickle failure disqualifies
            logger.warning(
                "orchestrator: %s %r cannot pickle; spawn workers will "
                "not see it", label, name,
            )
            return False

    state["benchmarks"] = {
        name: spec
        for name, spec in state["benchmarks"].items()
        if picklable("runtime benchmark", name, spec)
    }
    for key, label in (
        ("configurations", "configuration"),
        ("controllers", "controller"),
        ("clocking_modes", "clocking mode"),
    ):
        state[key] = [
            entry for entry in state[key] if picklable(label, entry[0], entry)
        ]
    return state


def _init_worker(state: dict) -> None:
    """Worker start-up: reproduce the parent's runtime registrations.

    Runs in every worker regardless of start method, so fork and spawn
    contexts execute identical scenario matrices; under fork it is a
    no-op (every name is already present).
    """
    import signal

    from repro.experiments.registry import (
        CLOCKING_MODES,
        CONFIGURATIONS,
        CONTROLLERS,
    )
    from repro.workloads.catalog import restore_runtime_benchmarks

    # Teardown delivers SIGTERM; a forked worker inherits whatever
    # handler the parent installed (the serve daemon maps SIGTERM to
    # KeyboardInterrupt), which would turn every cancel into a worker
    # traceback.  Workers always die silently on terminate.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    restore_runtime_benchmarks(state["benchmarks"])
    CONFIGURATIONS.restore(state["configurations"])
    CONTROLLERS.restore(state["controllers"])
    CLOCKING_MODES.restore(state["clocking_modes"])


class Orchestrator:
    """Executes scenario matrices across a serial/thread/process backend.

    Parameters
    ----------
    workers:
        Worker count (int, decimal string, or ``"auto"`` for all
        cores); 1 (or None with ``REPRO_WORKERS`` unset) runs serially
        in-process.
    cache_dir:
        Result cache location shared by all workers.
    scale:
        Default workload scale for scenarios that leave theirs unset.
    seed:
        Default clock seed.
    use_cache:
        Overrides ``REPRO_CACHE``.
    backend:
        ``"auto"`` (default via ``REPRO_BACKEND``), ``"serial"``,
        ``"thread"`` or ``"process"`` — see the module docstring for
        the trade-offs.  ``auto`` picks threads when the GIL-releasing
        native loop is available and processes otherwise.
    start_method:
        Multiprocessing start method for the process backend
        (``"fork"``, ``"spawn"``, ``"forkserver"``); None defers to
        ``REPRO_START_METHOD``, then to fork where available.  Setting
        it steers an ``auto`` backend to processes.  Every method
        produces identical result sets: workers receive a snapshot of
        runtime-registered benchmarks/configurations through the pool
        initializer, so spawn contexts reproduce fork results instead
        of silently dropping registrations.
    batch:
        Batch-cell size: a positive integer, ``"auto"`` (size cells
        per backend — see the module docstring) or None to defer to
        ``REPRO_BATCH``.  Cells are clamped to the matrix, grouped by
        trace identity, and never change results.
    events:
        Optional :class:`~repro.execution.bus.EventBus` to publish
        lifecycle events on (see the module docstring) — the way to
        watch a sweep's progress.  Subscriber exceptions cancel the
        run like Ctrl-C.
    job_id:
        The job name stamped on every published event (the daemon's
        job id; ``"local"`` for direct callers).
    cancel:
        Optional :class:`~repro.execution.cancel.CancelToken`; when it
        fires, the run raises
        :class:`~repro.execution.cancel.ExecutionCancelled` at the
        next preemption point after cleaning up its backend.
    context:
        Optional shared :class:`ExecutionContext` for the serial and
        thread backends (the daemon injects one so every job shares
        one warm result/trace cache and its single-flight dedup).  The
        process backend ignores it — workers build their own contexts
        and share through the on-disk store instead.
    """

    def __init__(
        self,
        workers: int | str | None = None,
        cache_dir: Path | str | None = None,
        scale: float | None = None,
        seed: int = 1,
        use_cache: bool | None = None,
        backend: str | None = None,
        start_method: str | None = None,
        batch: int | str | None = None,
        events: EventBus | None = None,
        job_id: str = "local",
        cancel: CancelToken | None = None,
        context: ExecutionContext | None = None,
    ) -> None:
        self.workers = (
            default_workers() if workers is None else parse_workers(workers)
        )
        self.cache_dir = cache_dir
        self.scale = benchmark_scale() if scale is None else scale
        self.seed = seed
        self.use_cache = use_cache
        self.events = events
        self.job_id = job_id
        self.cancel = cancel
        self.context = context
        if backend is not None and backend not in BACKENDS:
            raise ExperimentError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        # Environment defaults are resolved (and validated) *here*: a
        # bad REPRO_BACKEND/REPRO_START_METHOD/REPRO_BATCH must fail at
        # construction, before any work starts — not as an
        # ExperimentError surfacing from deep inside run().
        self.backend = backend if backend is not None else default_backend()
        #: The start method to honour (argument, else
        #: ``REPRO_START_METHOD``); None means the platform default.
        self.start_method = (
            start_method or os.environ.get("REPRO_START_METHOD") or None
        )
        if self.start_method:
            available = multiprocessing.get_all_start_methods()
            if self.start_method not in available:
                source = "start method" if start_method else "REPRO_START_METHOD"
                raise ExperimentError(
                    f"unsupported {source} {self.start_method!r}; "
                    f"available: {', '.join(available)}"
                )
        self.batch = default_batch() if batch is None else parse_batch(batch)

    def _resolve_backend(self, total: int) -> str:
        """The concrete backend for a ``total``-scenario matrix."""
        requested = self.backend
        if requested == "serial" or self.workers <= 1 or total <= 1:
            return "serial"
        if requested == "auto":
            if self.start_method:
                return "process"  # a start method only means processes
            from repro.uarch.native import load_hotpath

            # Threads only pay off when the C loop drops the GIL for
            # its compute stage; otherwise runs would serialise.
            return "thread" if load_hotpath() is not None else "process"
        return requested

    def _resolve_batch(self, total: int, backend: str) -> int:
        """The concrete batch-cell size for this matrix and backend.

        An explicit size (constructor or ``REPRO_BATCH``) applies to
        every backend, clamped to the matrix.  ``auto`` leaves the
        serial backend per-run (streamed announcements, no batching
        latency to hide) and gives pool backends ``ceil(total /
        workers)`` — one cell per worker — capped at 32 so huge
        matrices keep load-balancing granularity.
        """
        if total <= 0:
            return 1
        if self.batch is not None:
            return max(1, min(self.batch, total))
        if backend == "serial":
            return 1
        return max(1, min(math.ceil(total / max(1, self.workers)), 32))

    @staticmethod
    def _batch_cells(
        scenarios: Sequence[Scenario], batch: int
    ) -> list[list[int]]:
        """Matrix indices chunked into trace-coherent batch cells.

        Scenarios are grouped by ``(benchmark, scale)`` — the compiled
        trace's identity — so every cell shares one trace.  Within a group,
        cells are contiguous slices of at most ``batch`` indices, in
        matrix order.  Cells are ordered by their first index, so with
        ``batch`` 1 they are ``[[0], [1], ...]``: a per-run sweep
        dispatches (and, serially, announces) in matrix order.
        """
        groups: dict[tuple, list[int]] = {}
        for index, scenario in enumerate(scenarios):
            groups.setdefault((scenario.benchmark, scenario.scale), []).append(
                index
            )
        cells: list[list[int]] = []
        for indices in groups.values():
            for start in range(0, len(indices), batch):
                cells.append(indices[start : start + batch])
        return sorted(cells)

    def _context(self) -> ExecutionContext:
        if self.context is not None:
            return self.context
        return ExecutionContext(
            cache_dir=self.cache_dir,
            scale=self.scale,
            seed=self.seed,
            use_cache=self.use_cache,
        )

    # --- events and cancellation -------------------------------------------
    def _check_cancel(self) -> None:
        """Raise :class:`ExecutionCancelled` if this run's token fired."""
        if self.cancel is not None and self.cancel.cancelled:
            raise ExecutionCancelled(f"job {self.job_id!r} cancelled")

    def _emit_started(
        self, indices: Sequence[int], scenarios: Sequence[Scenario]
    ) -> None:
        """Publish ``CellStarted`` for each matrix index of one cell."""
        if self.events is not None:
            for index in indices:
                self.events.publish(
                    CellStarted(
                        job=self.job_id,
                        cell=index,
                        total=len(scenarios),
                        run_id=scenarios[index].run_id,
                    )
                )

    def run(self, matrix: Suite | Sequence[Scenario]) -> ResultSet:
        """Execute every scenario; returns outcomes in matrix order.

        The one cell loop: whichever backend runs the cells, completed
        ``(indices, outcomes)`` pairs arrive here, each outcome is
        announced, and the cancel token is checked after every cell.
        Closing the backend's generator on the way out — normal return,
        a raising subscriber, a fired token or Ctrl-C — runs its
        cleanup (queued cells cancelled, pool terminated and joined)
        before the exception propagates.
        """
        scenarios = list(matrix.expand() if isinstance(matrix, Suite) else matrix)
        total = len(scenarios)
        label = matrix.name if isinstance(matrix, Suite) else "matrix"
        backend = self._resolve_backend(total)
        batch = self._resolve_batch(total, backend)
        logger.info(
            "%s: %d scenario(s) across %d worker(s) [%s backend, batch %d]",
            label, total, self.workers, backend, batch,
        )
        execute = {
            "serial": self._serial_cells,
            "thread": self._thread_cells,
            "process": self._process_cells,
        }[backend]
        ordered: list[RunOutcome | None] = [None] * total
        done = 0
        started = time.perf_counter()
        try:
            self._check_cancel()
            cells = self._batch_cells(scenarios, batch)
            with closing(execute(scenarios, cells)) as completed:
                for indices, outcomes in completed:
                    for index, outcome in zip(indices, outcomes):
                        ordered[index] = outcome
                        self._announce(outcome, index, done, total)
                        done += 1
                    self._check_cancel()
        except (KeyboardInterrupt, ExecutionCancelled):
            # Workers are already cancelled/terminated by the backend;
            # announce the interruption and let the caller decide the
            # exit path (the CLI exits 130, campaigns checkpoint and
            # re-raise, the job manager emits a terminal JobCancelled
            # event).
            logger.warning(
                "%s: interrupted after %.1fs; cancelled remaining runs",
                label, time.perf_counter() - started,
            )
            raise
        elapsed = time.perf_counter() - started
        assert all(o is not None for o in ordered), "a cell went missing"
        failures = sum(1 for o in ordered if not o.ok)
        logger.info(
            "%s: %d/%d completed (%d failed) in %.1fs",
            label, total - failures, total, failures, elapsed,
        )
        return ResultSet(ordered)

    def _announce(
        self, outcome: RunOutcome, cell: int, done: int, total: int
    ) -> None:
        """Publish one completed scenario: progress log, then event stream.

        ``cell`` is the outcome's position in the submitted matrix
        (what events carry); ``done`` is the completion counter (what
        the progress log shows).
        """
        status = "ok" if outcome.ok else "FAILED"
        logger.info("[%d/%d] %s %s", done + 1, total, outcome.scenario.run_id, status)
        if not outcome.ok:
            logger.warning(
                "run %s failed:\n%s", outcome.scenario.run_id, outcome.error
            )
        if self.events is not None:
            cls = CellFinished if outcome.ok else CellFailed
            self.events.publish(
                cls(job=self.job_id, cell=cell, total=total, outcome=outcome)
            )

    # --- backends: each yields completed cells to run()'s loop ---------------
    def _serial_cells(
        self, scenarios: Sequence[Scenario], cells: list[list[int]]
    ) -> Iterator[CompletedCell]:
        """Serial backend: every cell in the calling thread, in order."""
        ctx = self._context()
        for indices in cells:
            self._emit_started(indices, scenarios)
            yield indices, ctx.run_batch([scenarios[i] for i in indices])

    def _thread_cells(
        self, scenarios: Sequence[Scenario], cells: list[list[int]]
    ) -> Iterator[CompletedCell]:
        """Thread-pool backend: one shared context, GIL-free native runs.

        All workers share one :class:`ExecutionContext` — and with it
        the process-wide compiled-trace cache and the write-through
        result front — so a sweep pays each trace load and each cached
        result read once for the whole pool.  ``run_batch`` captures
        per-run failures, so a future raises only when its cell is
        cancelled at pickup or a ``CellStarted`` subscriber raises.
        """
        ctx = self._context()

        def run_cell(indices: list[int]) -> list[RunOutcome]:
            # Task pickup is a preemption point: once the token fires,
            # every queued cell raises here instead of simulating.
            self._check_cancel()
            self._emit_started(indices, scenarios)
            return ctx.run_batch([scenarios[i] for i in indices])

        pool = ThreadPoolExecutor(
            max_workers=min(self.workers, len(cells)),
            thread_name_prefix="repro-sweep",
        )
        try:
            futures = {pool.submit(run_cell, indices): indices for indices in cells}
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            # Without cancel_futures an interrupt would wait for every
            # queued cell to run to completion before propagating.
            pool.shutdown(wait=True, cancel_futures=True)

    def _mp_context(self):
        """The multiprocessing context honouring the configured method."""
        if self.start_method:
            return multiprocessing.get_context(self.start_method)
        # Fork (where available) is cheapest: workers start without
        # re-importing the package and inherit the registries directly.
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return multiprocessing.get_context()

    def _process_cells(
        self, scenarios: Sequence[Scenario], cells: list[list[int]]
    ) -> Iterator[CompletedCell]:
        """Process-pool backend: cells run in :mod:`multiprocessing` workers.

        Workers receive scenarios and settings only; each resolves its
        traces through :func:`repro.sim.engine.compiled_trace_for`.
        Each worker owns one pipe and gets its next cell when it returns
        one; cells arrive in completion order.
        """
        cache_dir = str(self.cache_dir) if self.cache_dir is not None else None
        mp_context = self._mp_context()
        # Workers reproduce this process's runtime registrations
        # through _init_worker, so every start method sees the same
        # benchmark/configuration namespace (fork used to be the only
        # one that did; spawn silently dropped them).
        state = _registry_state(
            require_picklable=mp_context.get_start_method() != "fork"
        )
        knobs = (cache_dir, self.use_cache, self.scale, self.seed)
        jobs = deque(
            (indices, [scenarios[i] for i in indices], *knobs) for indices in cells
        )
        workers = {}  # parent end of a worker's pipe -> its process
        try:
            for _ in range(min(self.workers, len(cells))):
                conn, worker_conn = mp_context.Pipe()
                worker = mp_context.Process(
                    target=_worker_main, args=(worker_conn, state), daemon=True
                )
                worker.start()
                worker_conn.close()
                workers[conn] = worker
            busy = set()
            for conn in workers:
                conn.send(jobs.popleft())
                busy.add(conn)
            while busy:
                for conn in wait(busy):
                    try:
                        ok, payload = conn.recv()
                    except EOFError:
                        worker = workers[conn]
                        worker.join(5)
                        raise ExperimentError(
                            f"process worker {worker.pid} died mid-cell "
                            f"(exit code {worker.exitcode})"
                        ) from None
                    if not ok:
                        raise payload
                    if jobs:
                        conn.send(jobs.popleft())
                    else:
                        busy.discard(conn)
                    indices, outcomes = payload
                    # Worker starts are invisible across the process
                    # boundary; announce start and finish together on
                    # arrival so the per-scenario ordering holds.
                    self._emit_started(indices, scenarios)
                    yield indices, outcomes
        finally:
            # Never strand workers behind a propagating interrupt: kill
            # in-flight ones now and wait for them.  No lock is shared
            # between workers, so one killed mid-reply cannot block the
            # others or this process (multiprocessing.Pool shares its
            # result queue's lock, and terminating a worker that holds
            # it hangs Pool.terminate).
            for worker in workers.values():
                worker.terminate()
            for conn, worker in workers.items():
                worker.join()
                conn.close()


def run_suite(
    suite: Suite | Sequence[Scenario],
    workers: int | None = None,
    **orchestrator_kwargs,
) -> ResultSet:
    """One-call convenience: orchestrate a suite and return its results."""
    return Orchestrator(workers=workers, **orchestrator_kwargs).run(suite)
