"""Outside-in stage ledger: spans around calls into each layer's functions.

:class:`Ledger` wraps public functions of the simulator (trace
generation, trace resolve, core construction, warm-up, marshal, the C
entry points, writeback, summarise, profiling) with timing wrappers.
Nothing under ``src/`` changes: the wrappers are installed on the
modules and classes for the life of one traced sweep and removed by
:meth:`Ledger.uninstall`.

Each wrapped call records a span ``(id, name, start, end, parent, cell,
thread)``.  Spans nest per thread, so a layer's *self* time is its span
minus the spans of the layers it called.  Spans stay in memory and are
written out once, by the caller, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: Stage span names, in ledger order.  Each becomes ``<name>_s`` (its
#: summed self time) in the per-layer metrics.
STAGES = (
    "workloads.generate",
    "compiled_trace.derive",
    "engine.trace_resolve",
    "core.construct",
    "core.warm_up",
    "core.marshal",
    "hotpath.compute",
    "hotpath.callback",
    "core.writeback",
    "metrics.summarise",
)

#: The span one scenario (or one batch cell) runs under; not a stage.
CELL = "experiments.cell"


class Ledger:
    """In-memory span recorder plus the counters measured beside it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        """Record one span around the body; ``cell`` labels its subtree."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        outer_cell = getattr(self._local, "cell", None)
        if cell is not None:
            self._local.cell = cell
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "cell": getattr(self._local, "cell", None),
                "thread": threading.get_ident(),
            }
            self._local.cell = outer_cell
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def timed(self, fn, name: str, counter: str | None = None):
        """``fn`` wrapped in a span named ``name``, counting calls in ``counter``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.count(counter)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # --- installation ----------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, hotpath=None) -> None:
        """Wrap every layer boundary; ``hotpath`` is the loaded C module."""
        from repro.experiments import builtins, executor
        from repro.experiments.executor import ExecutionContext
        from repro.sim import engine
        from repro.uarch.core import MCDCore
        from repro.workloads.catalog import BenchmarkSpec

        ledger = self
        self._patch(
            BenchmarkSpec, "build_trace",
            self.timed(BenchmarkSpec.build_trace, "workloads.generate"),
        )
        self._patch(
            engine, "trace_columns", self.timed(engine.trace_columns, "workloads.generate")
        )
        for owner, attr, name in (
            (engine, "from_columns", "compiled_trace.derive"),
            (engine, "compiled_trace_for", "engine.trace_resolve"),
            (MCDCore, "__init__", "core.construct"),
            (MCDCore, "warm_up", "core.warm_up"),
        ):
            self._patch(owner, attr, self.timed(getattr(owner, attr), name, f"{name}_calls"))

        marshal = MCDCore.native_marshal

        @functools.wraps(marshal)
        def native_marshal(core):
            with ledger.span("core.marshal"):
                args, finish = marshal(core)
            for callback in ("refill", "rollover"):
                args[callback] = ledger.timed(
                    args[callback], "hotpath.callback", f"hotpath.{callback}_calls"
                )
            return args, ledger.timed(finish, "core.writeback")

        self._patch(MCDCore, "native_marshal", native_marshal)

        run_specs_batch = engine.run_specs_batch

        @functools.wraps(run_specs_batch)
        def counted_batch(specs):
            # A call counts as a fallback when this thread never reached
            # the native run_batch entry during it.
            ledger._local.reached_batch = False
            try:
                return run_specs_batch(specs)
            finally:
                if not ledger._local.reached_batch:
                    ledger.count("engine.batch_fallbacks")

        self._patch(engine, "run_specs_batch", counted_batch)

        summarize = self.timed(executor.summarize, "metrics.summarise")
        self._patch(executor, "summarize", summarize)
        self._patch(builtins, "summarize", summarize)
        self._patch(
            ExecutionContext, "profile", self.timed(ExecutionContext.profile, "experiments.profile")
        )

        run_isolated = ExecutionContext.run_isolated
        run_batch = ExecutionContext.run_batch

        @functools.wraps(run_isolated)
        def cell_isolated(ctx, scenario):
            with ledger.span(CELL, cell=scenario.run_id):
                return run_isolated(ctx, scenario)

        @functools.wraps(run_batch)
        def cell_batch(ctx, scenarios):
            label = "+".join(s.run_id for s in scenarios)
            with ledger.span(CELL, cell=label):
                return run_batch(ctx, scenarios)

        self._patch(ExecutionContext, "run_isolated", cell_isolated)
        self._patch(ExecutionContext, "run_batch", cell_batch)

        if hotpath is not None:
            run_compiled = hotpath.run_compiled

            def compute_one(args):
                ledger.count("hotpath.calls")
                ledger.count("hotpath.runs")
                with ledger.span("hotpath.compute"):
                    return run_compiled(args)

            self._patch(hotpath, "run_compiled", compute_one)
            native_batch = getattr(hotpath, "run_batch", None)
            if native_batch is not None:

                def compute_batch(vector):
                    ledger._local.reached_batch = True
                    ledger.count("hotpath.calls")
                    ledger.count("hotpath.runs", len(vector))
                    with ledger.span("hotpath.compute"):
                        return native_batch(vector)

                self._patch(hotpath, "run_batch", compute_batch)

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- analysis -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Counter = Counter()
        for span in self.spans:
            totals[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
        return dict(totals)

    def covered_time(self) -> float:
        """Wall time covered by at least one stage span, on any thread."""
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted((s["start"], s["end"]) for s in self.spans if s["name"] != CELL):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def layer_metrics(self, wall_s: float, workers: int, cells: int) -> dict[str, float]:
        """The per-layer metrics of one traced sweep of ``wall_s`` seconds."""
        self_s = self.self_times()
        durations: Counter = Counter()
        for span in self.spans:
            durations[span["name"]] += span["end"] - span["start"]
        counts = self.counts
        metrics = {f"{stage}_s": self_s.get(stage, 0.0) for stage in STAGES}
        resolves = counts["engine.trace_resolve_calls"]
        calls = counts["hotpath.calls"]
        metrics.update(
            {
                "engine.trace_cache_hit_ratio": (
                    1.0 - counts["compiled_trace.derive_calls"] / resolves if resolves else 0.0
                ),
                "engine.batch_fallbacks": counts["engine.batch_fallbacks"],
                "core.warm_up_calls": counts["core.warm_up_calls"],
                "hotpath.calls": calls,
                "hotpath.runs_per_call": counts["hotpath.runs"] / calls if calls else 0.0,
                "hotpath.refill_calls": counts["hotpath.refill_calls"],
                "hotpath.rollover_calls": counts["hotpath.rollover_calls"],
                # Inclusive: the profiling runs' own stages sit under it.
                "experiments.profile_s": durations["experiments.profile"],
                "experiments.sims_per_cell": (
                    counts["core.construct_calls"] / cells if cells else 0.0
                ),
                "experiments.orchestration_s": max(0.0, wall_s - self.covered_time()),
                "experiments.worker_busy_frac": (
                    durations["hotpath.compute"] / (max(1, workers) * wall_s) if wall_s else 0.0
                ),
            }
        )
        return metrics

    def export(self, origin: float) -> list[dict]:
        """The spans with times relative to ``origin``, in start order."""
        return [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
