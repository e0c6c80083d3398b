"""Backward-compatible facade over the scenario API.

:class:`ExperimentRunner` keeps the seed repository's method-per-
configuration interface (``sync_baseline``, ``attack_decay``,
``dynamic``, ``global_at``, ...) but every run now flows through the
registry-driven scenario layer in :mod:`repro.experiments`: names are
resolved by the configuration registry, results come from the shared
content-addressed cache, and the same keys are hit whether a run was
computed here, by a parallel orchestrator worker, or by the CLI.

New code should prefer :class:`repro.experiments.Suite` +
:class:`repro.experiments.Orchestrator`; this module exists so the
bench harness and downstream scripts keep working unchanged.

Environment knobs
-----------------
``REPRO_SCALE``
    Scales all workload lengths (e.g. 0.2 for quick iterations).
``REPRO_BENCHMARKS``
    Comma-separated subset of the catalog.
``REPRO_CACHE``
    Set to ``0`` to disable the on-disk cache.
"""

from __future__ import annotations

from pathlib import Path

from repro.config.algorithm import AttackDecayParams
from repro.config.mcd import MCDConfig
from repro.dvfs.scale import frequency_scale
from repro.errors import ExperimentError
from repro.experiments.builtins import attack_decay_scenario
from repro.experiments.cache import CACHE_VERSION, DEFAULT_CACHE_DIR
from repro.experiments.executor import (
    ExecutionContext,
    benchmark_scale,
    quick_benchmarks,
)
from repro.experiments.results import RunRecord
from repro.experiments.scenario import Scenario
from repro.metrics.summary import Comparison, compare

__all__ = [
    "CACHE_VERSION",
    "ExperimentRunner",
    "RunRecord",
    "benchmark_scale",
    "quick_benchmarks",
]

_DEFAULT_CACHE_DIR = DEFAULT_CACHE_DIR


class ExperimentRunner:
    """Runs and caches the paper's configurations (facade).

    Parameters
    ----------
    cache_dir:
        Where JSON results live; created on demand.
    scale:
        Workload length scale; defaults to ``REPRO_SCALE``.
    seed:
        Clock phase/jitter seed shared by all runs.
    use_cache:
        Overrides ``REPRO_CACHE``.
    """

    def __init__(
        self,
        cache_dir: Path | str | None = None,
        scale: float | None = None,
        seed: int = 1,
        use_cache: bool | None = None,
    ) -> None:
        self._ctx = ExecutionContext(
            cache_dir=cache_dir, scale=scale, seed=seed, use_cache=use_cache
        )

    # --- context passthroughs ---------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        """The underlying scenario execution context."""
        return self._ctx

    @property
    def cache_dir(self) -> Path:
        """Result cache location."""
        return self._ctx.cache.directory

    @property
    def scale(self) -> float:
        """Workload length scale shared by all runs."""
        return self._ctx.scale

    @property
    def seed(self) -> int:
        """Clock phase/jitter seed shared by all runs."""
        return self._ctx.seed

    @property
    def use_cache(self) -> bool:
        """Whether the on-disk cache is consulted."""
        return self._ctx.cache.enabled

    def run_scenario(self, scenario: Scenario) -> RunRecord:
        """Execute any registry scenario through this runner's cache."""
        return self._ctx.run(scenario)

    # --- configurations ------------------------------------------------------
    def sync_baseline(self, benchmark: str) -> RunRecord:
        """Fully synchronous processor at maximum frequency."""
        return self._ctx.run(Scenario(benchmark, "sync"))

    def mcd_baseline(self, benchmark: str) -> RunRecord:
        """Baseline MCD processor (all domains at maximum)."""
        return self._ctx.run(Scenario(benchmark, "mcd_base"))

    def attack_decay(
        self,
        benchmark: str,
        params: AttackDecayParams | None = None,
        literal_listing: bool = False,
    ) -> RunRecord:
        """MCD processor under the Attack/Decay controller."""
        return self._ctx.run(
            attack_decay_scenario(benchmark, params, literal_listing)
        )

    def dynamic(
        self, benchmark: str, target_pct: float, iterations: int = 3
    ) -> RunRecord:
        """The off-line algorithm at a degradation target (1 % or 5 %)."""
        overrides = {} if iterations == 3 else {"iterations": iterations}
        return self._ctx.run(
            Scenario(benchmark, f"dynamic_{target_pct:g}", overrides=overrides)
        )

    def global_at(self, benchmark: str, frequency_mhz: float) -> RunRecord:
        """Fully synchronous processor at one global frequency.

        The frequency is quantised to the regulator's scale; memory
        latency tracks the global clock (see
        :class:`~repro.sim.engine.SimulationSpec`).
        """
        scale = frequency_scale(MCDConfig())
        mhz = scale.quantize(frequency_mhz)
        return self._ctx.run(Scenario(benchmark, f"global@{mhz:.3f}"))

    def global_matched(
        self,
        benchmark: str,
        target_time_ns: float,
        iterations: int = 7,
    ) -> RunRecord:
        """Search the global frequency whose run time matches a target.

        Bisection over the quantised frequency scale (run time is
        monotonically non-increasing in frequency).  Returns the run at
        the best frequency found.
        """
        if target_time_ns <= 0:
            raise ExperimentError("target_time_ns must be positive")
        scale = frequency_scale(MCDConfig())
        lo, hi = 0, len(scale) - 1  # lo = slowest, hi = fastest
        best: RunRecord | None = None
        best_err = float("inf")
        for _ in range(iterations):
            if lo > hi:
                break
            mid = (lo + hi) // 2
            record = self.global_at(benchmark, float(scale.frequencies_mhz[mid]))
            err = abs(record.summary.wall_time_ns - target_time_ns)
            if err < best_err:
                best, best_err = record, err
            if record.summary.wall_time_ns > target_time_ns:
                lo = mid + 1  # too slow: need higher frequency
            else:
                hi = mid - 1  # faster than target: can slow down more
        if best is None:
            raise ExperimentError("global frequency search failed")
        return best

    def global_suite_matched(
        self,
        benchmarks: list[str],
        target_avg_degradation: float,
        iterations: int = 7,
    ) -> tuple[float, dict[str, RunRecord]]:
        """The paper's ``Global(...)`` rows: one chip-wide frequency.

        Finds the single global frequency/voltage setting (applied to
        every domain of the fully synchronous processor, for every
        benchmark) whose *suite-average* performance degradation versus
        the baseline MCD processor matches ``target_avg_degradation``
        (a fraction, e.g. 0.032).  Returns the chosen frequency and the
        per-benchmark runs at it.
        """
        if not benchmarks:
            raise ExperimentError("global_suite_matched needs benchmarks")
        scale = frequency_scale(MCDConfig())
        bases = {b: self.mcd_baseline(b).summary for b in benchmarks}

        def avg_deg_at(index: int) -> tuple[float, dict[str, RunRecord]]:
            mhz = float(scale.frequencies_mhz[index])
            records = {b: self.global_at(b, mhz) for b in benchmarks}
            degs = [
                records[b].summary.wall_time_ns / bases[b].wall_time_ns - 1.0
                for b in benchmarks
            ]
            return sum(degs) / len(degs), records

        lo, hi = 0, len(scale) - 1
        best_index = hi
        best_err = float("inf")
        best_records: dict[str, RunRecord] = {}
        for _ in range(iterations):
            if lo > hi:
                break
            mid = (lo + hi) // 2
            deg, records = avg_deg_at(mid)
            err = abs(deg - target_avg_degradation)
            if err < best_err:
                best_index, best_err, best_records = mid, err, records
            if deg > target_avg_degradation:
                lo = mid + 1  # too slow on average: raise frequency
            else:
                hi = mid - 1
        return float(scale.frequencies_mhz[best_index]), best_records

    # --- composite comparisons -----------------------------------------------
    def compare_to_mcd_base(self, record: RunRecord) -> Comparison:
        """Comparison of a run against the baseline MCD processor."""
        base = self.mcd_baseline(record.benchmark)
        return compare(record.summary, base.summary)

    def compare_to_sync(self, record: RunRecord) -> Comparison:
        """Comparison of a run against the fully synchronous processor."""
        base = self.sync_baseline(record.benchmark)
        return compare(record.summary, base.summary)
