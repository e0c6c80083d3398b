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
    write-through result front — no worker start-up, no per-worker
    npz reloads.
``process``
    Forked :mod:`multiprocessing` workers, which inherit every
    registration this process has made; the right tool when the
    native loop is unavailable and runs would serialise on the GIL.
``auto``
    ``thread`` when the native loop loads, else ``process``.

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

Watching a sweep
----------------
``run`` logs one ``INFO`` line per finished scenario and then hands it
to the optional ``on_outcome(cell, outcome)`` callback, in the calling
thread, before it announces the next one; ``cell`` is the scenario's
position in the submitted matrix.  The campaign journal checkpoint is
that callback.

Interruption
------------
Ctrl-C, or an exception raised by ``on_outcome``, stops the sweep
through one cleanup path: the thread backend cancels every queued cell
(running ones finish their current simulation) and the process backend
terminates and joins its workers, both before the exception
propagates.  Outcomes already announced stay announced, so a
checkpointing caller (:mod:`repro.campaigns`) loses at most the
in-flight runs, which the content-addressed cache makes idempotent to
re-execute.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import closing
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.errors import ExperimentError
from repro.experiments.executor import (
    ExecutionContext,
    benchmark_scale,
    default_batch,
    default_workers,
    parse_batch,
    parse_workers,
)
from repro.experiments.results import ResultSet, RunOutcome
from repro.experiments.scenario import Scenario, Suite
from repro.sim.engine import trace_cache_entries

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


def _worker_main(conn, settings: dict) -> None:
    """Process-backend worker: run each cell ``conn`` delivers, reply.

    Every cell runs in one :class:`ExecutionContext` built from the
    sweep's ``settings``, so the worker keeps its profiles and
    seed-free runs across the cells it draws.  A cell arrives as
    ``(indices, scenarios)``; a reply is ``(True, (indices,
    outcomes))``, or ``(False, exception)`` for an error the cell did
    not capture into its outcomes, which the parent re-raises.  The
    loop ends when the parent closes its end.
    """
    # Teardown delivers SIGTERM; a forked worker inherits whatever
    # handler the parent installed (one mapping SIGTERM to
    # KeyboardInterrupt, say), which would turn every cancel into a
    # worker traceback.  Workers always die silently on terminate.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    ctx = ExecutionContext(**settings)
    while True:
        try:
            indices, scenarios = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, (indices, ctx.run_batch(scenarios)))
        except Exception as exc:  # noqa: BLE001 - re-raised by the parent
            reply = (False, exc)
        conn.send(reply)


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
    batch:
        Batch-cell size: a positive integer, ``"auto"`` (size cells
        per backend — see the module docstring) or None to defer to
        ``REPRO_BATCH``.  Cells are clamped to the matrix, grouped by
        trace identity, and never change results.
    on_outcome:
        Optional ``on_outcome(cell, outcome)`` callback, called in the
        calling thread for each finished scenario with its position in
        the submitted matrix (see the module docstring).  An exception
        it raises stops the sweep like Ctrl-C.
    """

    def __init__(
        self,
        workers: int | str | None = None,
        cache_dir: Path | str | None = None,
        scale: float | None = None,
        seed: int = 1,
        use_cache: bool | None = None,
        backend: str | None = None,
        batch: int | str | None = None,
        on_outcome: Callable[[int, RunOutcome], None] | None = None,
    ) -> None:
        self.workers = (
            default_workers() if workers is None else parse_workers(workers)
        )
        self.cache_dir = cache_dir
        self.scale = benchmark_scale() if scale is None else scale
        self.seed = seed
        self.use_cache = use_cache
        self.on_outcome = on_outcome
        if backend is not None and backend not in BACKENDS:
            raise ExperimentError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        # Environment defaults are resolved (and validated) *here*: a
        # bad REPRO_BACKEND/REPRO_BATCH/REPRO_TRACE_CACHE must fail at
        # construction, before any work starts — not as an
        # ExperimentError surfacing from deep inside run().
        self.backend = backend if backend is not None else default_backend()
        self.batch = default_batch() if batch is None else parse_batch(batch)
        # Validated only: the process-wide trace cache reads its size
        # itself, on every use.
        trace_cache_entries()

    def _resolve_backend(self, total: int) -> str:
        """The concrete backend for a ``total``-scenario matrix."""
        requested = self.backend
        if requested == "serial" or self.workers <= 1 or total <= 1:
            return "serial"
        if requested == "auto":
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

    def _settings(self) -> dict:
        """The :class:`ExecutionContext` arguments every backend runs with."""
        return dict(
            cache_dir=self.cache_dir,
            scale=self.scale,
            seed=self.seed,
            use_cache=self.use_cache,
        )

    def run(self, matrix: Suite | Sequence[Scenario]) -> ResultSet:
        """Execute every scenario; returns outcomes in matrix order.

        The one cell loop: whichever backend runs the cells, completed
        ``(indices, outcomes)`` pairs arrive here and each outcome is
        announced.  Closing the backend's generator on the way out —
        normal return, a raising ``on_outcome`` or Ctrl-C — runs its
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
        cells = self._batch_cells(scenarios, batch)
        ordered: list[RunOutcome | None] = [None] * total
        done = 0
        started = time.perf_counter()
        try:
            with closing(execute(scenarios, cells)) as completed:
                for indices, outcomes in completed:
                    for index, outcome in zip(indices, outcomes):
                        ordered[index] = outcome
                        self._announce(outcome, index, done, total)
                        done += 1
        except KeyboardInterrupt:
            # Workers are already cancelled/terminated by the backend;
            # announce the interruption and let the caller decide the
            # exit path (the CLI exits 130, campaigns checkpoint and
            # re-raise).
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
        """Announce one finished scenario: progress log, then ``on_outcome``.

        ``cell`` is the outcome's position in the submitted matrix
        (what the callback receives); ``done`` is the completion
        counter (what the progress log shows).
        """
        status = "ok" if outcome.ok else "FAILED"
        logger.info("[%d/%d] %s %s", done + 1, total, outcome.scenario.run_id, status)
        if not outcome.ok:
            logger.warning(
                "run %s failed:\n%s", outcome.scenario.run_id, outcome.error
            )
        if self.on_outcome is not None:
            self.on_outcome(cell, outcome)

    # --- backends: each yields completed cells to run()'s loop ---------------
    def _serial_cells(
        self, scenarios: Sequence[Scenario], cells: list[list[int]]
    ) -> Iterator[CompletedCell]:
        """Serial backend: every cell in the calling thread, in order."""
        ctx = ExecutionContext(**self._settings())
        for indices in cells:
            yield indices, ctx.run_batch([scenarios[i] for i in indices])

    def _thread_cells(
        self, scenarios: Sequence[Scenario], cells: list[list[int]]
    ) -> Iterator[CompletedCell]:
        """Thread-pool backend: one shared context, GIL-free native runs.

        All workers share one :class:`ExecutionContext` — and with it
        the process-wide compiled-trace cache and the write-through
        result front — so a sweep pays each trace load and each cached
        result read once for the whole pool.  ``run_batch`` captures
        per-run failures into its outcomes.
        """
        ctx = ExecutionContext(**self._settings())
        pool = ThreadPoolExecutor(
            max_workers=min(self.workers, len(cells)),
            thread_name_prefix="repro-sweep",
        )
        try:
            futures = {
                pool.submit(ctx.run_batch, [scenarios[i] for i in indices]): indices
                for indices in cells
            }
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            # Without cancel_futures an interrupt would wait for every
            # queued cell to run to completion before propagating.
            pool.shutdown(wait=True, cancel_futures=True)

    def _process_cells(
        self, scenarios: Sequence[Scenario], cells: list[list[int]]
    ) -> Iterator[CompletedCell]:
        """Process-pool backend: cells run in forked worker processes.

        A forked worker inherits this process's registrations (runtime
        benchmarks and configurations included) and module state; it
        receives scenarios and settings only, and resolves its traces
        through :func:`repro.sim.engine.compiled_trace_for`.  Each
        worker owns one pipe and gets its next cell when it returns
        one; cells arrive in completion order.
        """
        mp_context = multiprocessing.get_context("fork")
        settings = self._settings()
        jobs = deque((indices, [scenarios[i] for i in indices]) for indices in cells)
        workers = {}  # parent end of a worker's pipe -> its process
        try:
            for _ in range(min(self.workers, len(cells))):
                conn, worker_conn = mp_context.Pipe()
                worker = mp_context.Process(
                    target=_worker_main,
                    args=(worker_conn, settings),
                    daemon=True,
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
                    yield payload
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
