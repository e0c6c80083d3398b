"""Regression gate: compare a run against the stored trajectory.

``repro check`` is CI's perf floor.  Instead of a hard-coded constant
per benchmark, the gate derives its bar from history: the candidate
(latest recorded run of a bench) must not fall more than ``tolerance``
below the best value this host has ever recorded (any host's, when
this host has no history yet).  The previous CI constants survive as
**bootstrap baselines** — absolute floors that apply even with an
empty database, so a fresh clone is gated exactly as strictly as
before this subsystem existed, and more strictly as history accrues.

All gated metrics are ratios or rates where higher is better; a future
lower-is-better metric registers with ``direction="lower"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ResultDBError
from repro.resultdb import query
from repro.resultdb.store import StoredRun

#: Default allowed fractional drop below the historical best.  Perf
#: numbers on shared CI runners are noisy; 15% holds the line against
#: real regressions without flaking on scheduler jitter.
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class GatedMetric:
    """One metric the trajectory gates, with its bootstrap floor.

    ``floor`` is the pre-resultdb hard-coded CI constant: the absolute
    bar that applies regardless of history.  ``direction`` is
    ``"higher"`` (default) or ``"lower"``.  ``requires`` is an optional
    ``(metric, minimum)`` precondition recorded *in the run itself*:
    the bootstrap floor binds only when the candidate recorded that
    metric at or above the minimum — e.g. a parallel-speedup floor that
    is only meaningful on multicore hosts.  History comparison is
    unaffected (same-spec runs share the precondition metric anyway).
    """

    bench: str
    metric: str
    floor: float
    direction: str = "higher"
    requires: tuple[str, float] | None = None

    def floor_applies(self, candidate: StoredRun) -> bool:
        """Whether the bootstrap floor binds for ``candidate``."""
        if self.requires is None:
            return True
        name, minimum = self.requires
        value = candidate.metric(name)
        return value is not None and value >= minimum


#: The CI floors this subsystem replaces, now expressed as bootstrap
#: baselines: the native closed loop's speedup over the reference
#: interpreter, the thread-vs-process sweep throughput, and the
#: batched process backend's parity with serial (multi-core CI hosts;
#: a pool on one core can only approach serial from below).
BOOTSTRAP_BASELINES = (
    GatedMetric("bench_control_loop", "native_vs_generator", 4.0),
    GatedMetric("bench_sweep_throughput", "thread_vs_process", 1.5),
    GatedMetric(
        "bench_sweep_throughput", "process_vs_serial", 1.0,
        requires=("cores", 2),
    ),
)


def bootstrap_for(bench: str, metric: str) -> GatedMetric | None:
    """The registered bootstrap baseline for (bench, metric), or None."""
    for gated in BOOTSTRAP_BASELINES:
        if gated.bench == bench and gated.metric == metric:
            return gated
    return None


def gated_metrics(bench: str) -> list[str]:
    """The metric names the gate checks by default on ``bench``."""
    return [g.metric for g in BOOTSTRAP_BASELINES if g.bench == bench]


@dataclass(frozen=True)
class GateResult:
    """The verdict on one (bench, metric) pair.

    ``baseline``/``source`` name the bar that was applied —
    ``history:<host>`` with tolerance, or ``bootstrap`` absolute.
    """

    bench: str
    metric: str
    passed: bool
    message: str
    value: float | None = None
    baseline: float | None = None
    source: str = "bootstrap"


def _beats(value: float, bar: float, direction: str) -> bool:
    """Whether ``value`` meets ``bar`` for the metric's direction."""
    return value >= bar if direction == "higher" else value <= bar


def check_metric(
    runs: list[StoredRun],
    candidate: StoredRun,
    metric: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateResult:
    """Gate one metric of ``candidate`` against history + bootstrap.

    History excludes the candidate itself (a run can never be its own
    baseline) and prefers the candidate's host.  The bootstrap floor,
    when registered, applies unconditionally.
    """
    bench = candidate.bench
    value = candidate.metric(metric)
    if value is None:
        return GateResult(
            bench, metric, passed=False,
            message=f"candidate run {candidate.run_id} has no metric {metric!r}",
        )
    bootstrap = bootstrap_for(bench, metric)
    direction = bootstrap.direction if bootstrap else "higher"
    # Only measurements of the *same spec* (bench, backend, scale,
    # metric set) are one trajectory: a scale-1.0 history must not
    # gate a scale-0.05 smoke run, in either direction.
    history = [
        run
        for run in runs
        if run.run_id != candidate.run_id and run.spec_hash == candidate.spec_hash
    ]
    best = query.best_value(history, bench, metric, host_id=candidate.host_id)

    if best is not None:
        best_val, source = best
        slack = 1.0 - tolerance if direction == "higher" else 1.0 + tolerance
        bar = best_val * slack
        if not _beats(value, bar, direction):
            return GateResult(
                bench, metric, passed=False, value=value, baseline=best_val,
                source=source,
                message=(
                    f"{metric} = {value:g} regressed past {source} best "
                    f"{best_val:g} (tolerance {tolerance:.0%}, bar {bar:g})"
                ),
            )
    floor_binds = bootstrap is not None and bootstrap.floor_applies(candidate)
    if floor_binds and not _beats(value, bootstrap.floor, direction):
        return GateResult(
            bench, metric, passed=False, value=value, baseline=bootstrap.floor,
            source="bootstrap",
            message=(
                f"{metric} = {value:g} is below the bootstrap floor "
                f"{bootstrap.floor:g}"
            ),
        )
    if best is not None:
        baseline, source = best
    elif floor_binds:
        baseline, source = bootstrap.floor, "bootstrap"
    else:
        baseline, source = None, "unchecked"
    return GateResult(
        bench, metric, passed=True, value=value, baseline=baseline, source=source,
        message=f"{metric} = {value:g} ok vs {source} baseline "
        + (f"{baseline:g}" if baseline is not None else "(none)"),
    )


def check_bench(
    runs: list[StoredRun],
    bench: str,
    metrics: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[GateResult]:
    """Gate the latest run of ``bench`` on each of ``metrics``.

    Without explicit metrics, the registered gated metrics for the
    bench are checked; a bench with none registered gates every numeric
    metric of its candidate run against history alone.  Raises
    :class:`~repro.errors.ResultDBError` when the bench has no runs or
    nothing to check.
    """
    candidate = query.latest_run(runs, bench)
    if candidate is None:
        raise ResultDBError(
            f"no recorded runs of {bench!r}; run the benchmark or "
            f"`repro record` an artifact first"
        )
    if metrics is None:
        metrics = gated_metrics(bench)
        if not metrics:
            metrics = [m for m in sorted(candidate.metrics) if candidate.metric(m) is not None]
    if not metrics:
        raise ResultDBError(f"latest run of {bench!r} has no numeric metrics to gate")
    return [check_metric(runs, candidate, metric, tolerance) for metric in metrics]
