"""Per-phase attribution of a run's delay and energy.

A workload is a phase script; its :class:`~repro.metrics.summary.RunSummary`
is one number per metric.  This module splits those numbers *by phase*,
answering the question every composed scenario raises: which region of
the script drove the energy/delay result?

Attribution works on the per-interval samples the core records
(:class:`~repro.uarch.core.IntervalRecord` carries cumulative wall time
and cumulative energy at each control-interval edge, identically on both
execution paths).  Phase boundaries rarely coincide with interval
edges, so cumulative time/energy at each boundary is interpolated
linearly in retired instructions between the bracketing samples; slices
are then adjacent differences.  Granularity is therefore the control
interval (hundreds of samples per catalog run) — attribution error is
bounded by one interval's worth of time/energy per boundary, and the
slices always sum exactly to the run totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError
from repro.uarch.core import CoreResult

__all__ = ["PhaseSlice", "attribute_phases"]


@dataclass(frozen=True)
class PhaseSlice:
    """One phase's share of a run.

    ``time_share``/``energy_share`` are fractions of the run totals;
    shares over a breakdown sum to 1.0 (up to float addition).
    """

    name: str
    start_instruction: int
    end_instruction: int
    wall_time_ns: float
    energy: float
    time_share: float
    energy_share: float

    @property
    def instructions(self) -> int:
        """Dynamic length of the phase."""
        return self.end_instruction - self.start_instruction

    @property
    def epi(self) -> float:
        """Energy per instruction within the phase."""
        return self.energy / self.instructions if self.instructions else 0.0

    @property
    def cpi(self) -> float:
        """Nanoseconds per instruction within the phase (1 GHz CPI)."""
        return self.wall_time_ns / self.instructions if self.instructions else 0.0

    @property
    def power(self) -> float:
        """Average power over the phase (energy units per ns)."""
        return self.energy / self.wall_time_ns if self.wall_time_ns > 0 else 0.0


def _cumulative_samples(result: CoreResult) -> tuple[list[int], list[float], list[float]]:
    """Monotonic (instructions, time, energy) samples incl. both ends."""
    xs = [0]
    ts = [0.0]
    es = [0.0]
    for record in result.intervals:
        if 0 < record.end_instruction < result.instructions:
            xs.append(record.end_instruction)
            ts.append(record.end_time_ns)
            es.append(record.energy)
    xs.append(result.instructions)
    ts.append(result.wall_time_ns)
    es.append(result.energy)
    return xs, ts, es


def attribute_phases(
    result: CoreResult, marks: Sequence[tuple[str, int]]
) -> list[PhaseSlice]:
    """Split ``result``'s wall time and energy across its phases.

    Parameters
    ----------
    result:
        A finished run.  Interval records
        (``record_intervals=True``) give interval-granular attribution;
        without them the split degrades to proportional-in-instructions
        (one linear segment over the whole run).
    marks:
        The workload's ``(name, end_instruction)`` boundaries — from
        :meth:`~repro.workloads.catalog.BenchmarkSpec.phase_marks`
        with the run's scale, or an imported trace's recorded marks.

    Raises
    ------
    SimulationError
        When the marks do not partition ``result.instructions``.
    """
    if not marks:
        raise SimulationError("attribute_phases needs at least one phase mark")
    ends = [int(end) for _, end in marks]
    if ends != sorted(ends) or len(set(ends)) != len(ends):
        raise SimulationError(f"phase marks must strictly ascend, got {ends}")
    if ends[-1] != result.instructions:
        raise SimulationError(
            f"phase marks cover {ends[-1]} instructions but the run retired "
            f"{result.instructions} - did the marks use the run's scale?"
        )
    xs, ts, es = _cumulative_samples(result)

    def interpolate(boundary: int) -> tuple[float, float]:
        """Cumulative (time, energy) at an instruction boundary."""
        # xs is short (hundreds); a linear scan keeps this dependency-free.
        for i in range(1, len(xs)):
            if boundary <= xs[i]:
                x0, x1 = xs[i - 1], xs[i]
                fraction = (boundary - x0) / (x1 - x0) if x1 > x0 else 1.0
                return (
                    ts[i - 1] + fraction * (ts[i] - ts[i - 1]),
                    es[i - 1] + fraction * (es[i] - es[i - 1]),
                )
        return ts[-1], es[-1]

    total_time = result.wall_time_ns
    total_energy = result.energy
    slices: list[PhaseSlice] = []
    prev_end = 0
    prev_time = 0.0
    prev_energy = 0.0
    for name, end in marks:
        time_at, energy_at = interpolate(int(end))
        slices.append(
            PhaseSlice(
                name=name,
                start_instruction=prev_end,
                end_instruction=int(end),
                wall_time_ns=time_at - prev_time,
                energy=energy_at - prev_energy,
                time_share=(time_at - prev_time) / total_time if total_time else 0.0,
                energy_share=(
                    (energy_at - prev_energy) / total_energy if total_energy else 0.0
                ),
            )
        )
        prev_end, prev_time, prev_energy = int(end), time_at, energy_at
    return slices
