"""Attack/Decay controller parameters (paper Table 2 and Section 5).

Table 2 gives the ranges swept in the sensitivity analysis; the chosen
operating point for the headline results (Section 5) is::

    DeviationThreshold = 1.75 %   ReactionChange = 6.0 %
    Decay              = 0.175 %  PerfDegThreshold = 2.5 %

The paper labels configurations in figure legends as
``DDD_RRR_ddd_PPP`` (DeviationThreshold, ReactionChange, Decay,
PerfDegThreshold); :meth:`AttackDecayParams.legend` reproduces that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import ConfigError


@dataclass(frozen=True)
class ParameterRange:
    """A swept parameter range from Table 2 (inclusive bounds)."""

    name: str
    low: float
    high: float
    unit: str = "%"

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ConfigError(f"{self.name}: high < low")

    def contains(self, value: float) -> bool:
        """Whether ``value`` is inside the inclusive range."""
        return self.low <= value <= self.high

    def sweep(self, points: int) -> Iterator[float]:
        """Yield ``points`` evenly spaced values across the range."""
        if points < 1:
            raise ConfigError("sweep requires at least one point")
        if points == 1:
            yield self.low
            return
        step = (self.high - self.low) / (points - 1)
        for i in range(points):
            yield self.low + i * step


#: Table 2 — "Attack/Decay configuration parameters".
ATTACK_DECAY_PARAMETER_RANGES: dict[str, ParameterRange] = {
    "deviation_threshold": ParameterRange("DeviationThreshold", 0.0, 2.5),
    "reaction_change": ParameterRange("ReactionChange", 0.5, 15.5),
    "decay": ParameterRange("Decay", 0.0, 2.0),
    "perf_deg_threshold": ParameterRange("PerfDegThreshold", 0.0, 12.0),
    "endstop_count": ParameterRange("EndstopCount", 1, 25, unit="intervals"),
}


@dataclass(frozen=True)
class AttackDecayParams:
    """Operating point of the Attack/Decay algorithm.

    All percentage parameters are expressed in percent (as in the
    paper's tables), not as fractions: ``reaction_change=6.0`` means a
    6 % period adjustment per attack.

    Parameters
    ----------
    deviation_threshold_pct:
        Relative queue-utilization change that triggers an attack.
    reaction_change_pct:
        Period scale step applied during an attack.
    decay_pct:
        Period scale step applied each interval in decay mode.
    perf_deg_threshold_pct:
        Maximum tolerated interval-to-interval IPC degradation for a
        frequency decrease to proceed (the guard of Listing 1 lines
        19 & 25).
    endstop_intervals:
        Consecutive intervals pinned at a frequency extreme before an
        attack is forced in the opposite direction (paper: 10).
    interval_instructions:
        Control interval length in retired instructions (paper: 10,000;
        the workload catalog scales this together with run length, see
        docs/design.md substitution #2).
    """

    deviation_threshold_pct: float = 1.75
    reaction_change_pct: float = 6.0
    decay_pct: float = 0.175
    perf_deg_threshold_pct: float = 2.5
    endstop_intervals: int = 10
    interval_instructions: int = 10_000

    def __post_init__(self) -> None:
        if self.deviation_threshold_pct < 0:
            raise ConfigError("deviation_threshold_pct must be >= 0")
        if self.reaction_change_pct <= 0:
            raise ConfigError("reaction_change_pct must be positive")
        if self.decay_pct < 0:
            raise ConfigError("decay_pct must be >= 0")
        if self.perf_deg_threshold_pct < 0:
            raise ConfigError("perf_deg_threshold_pct must be >= 0")
        if self.endstop_intervals < 1:
            raise ConfigError("endstop_intervals must be >= 1")
        if self.interval_instructions < 1:
            raise ConfigError("interval_instructions must be >= 1")

    # Fractions for arithmetic use ------------------------------------------
    @property
    def deviation_threshold(self) -> float:
        """DeviationThreshold as a fraction (1.75 % -> 0.0175)."""
        return self.deviation_threshold_pct / 100.0

    @property
    def reaction_change(self) -> float:
        """ReactionChange as a fraction."""
        return self.reaction_change_pct / 100.0

    @property
    def decay(self) -> float:
        """Decay as a fraction."""
        return self.decay_pct / 100.0

    @property
    def perf_deg_threshold(self) -> float:
        """PerfDegThreshold as a fraction."""
        return self.perf_deg_threshold_pct / 100.0

    def native_values(self) -> dict[str, float | int]:
        """The operating point in fraction form for the C hot loop.

        The native closed-loop controller (:mod:`repro.uarch.native`)
        consumes exactly these registers; keeping the export here means
        a new parameter cannot silently be left behind in Python when
        the marshalling is extended.
        """
        return {
            "deviation_threshold": self.deviation_threshold,
            "reaction_change": self.reaction_change,
            "decay": self.decay,
            "perf_deg_threshold": self.perf_deg_threshold,
            "endstop_intervals": self.endstop_intervals,
        }

    def legend(self) -> str:
        """The paper's four-field legend label, e.g. ``1.750_06.0_0.175_2.5``."""
        return (
            f"{self.deviation_threshold_pct:.3f}_"
            f"{self.reaction_change_pct:04.1f}_"
            f"{self.decay_pct:.3f}_"
            f"{self.perf_deg_threshold_pct:.1f}"
        )

    def with_(self, **changes: float | int) -> "AttackDecayParams":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return replace(self, **changes)

    def validate_against_table2(self) -> None:
        """Raise :class:`ConfigError` if outside the Table 2 sweep ranges."""
        checks = (
            ("deviation_threshold", self.deviation_threshold_pct),
            ("reaction_change", self.reaction_change_pct),
            ("decay", self.decay_pct),
            ("perf_deg_threshold", self.perf_deg_threshold_pct),
            ("endstop_count", self.endstop_intervals),
        )
        for key, value in checks:
            rng = ATTACK_DECAY_PARAMETER_RANGES[key]
            if not rng.contains(value):
                raise ConfigError(
                    f"{rng.name}={value}{rng.unit} outside Table 2 range "
                    f"[{rng.low}, {rng.high}]{rng.unit}"
                )


#: The configuration used for the paper's headline results (Section 5).
PAPER_OPERATING_POINT = AttackDecayParams()

#: The operating point used for this repository's headline runs.  The
#: catalog compresses run lengths ~20-2000x and the control interval
#: ~20x (docs/design.md substitution #2), which (a) leaves far fewer
#: intervals for the decay to accumulate over and (b) makes the
#: per-interval queue-utilization counter noisier.  Decay and
#: DeviationThreshold are rescaled within their Table 2 sweep ranges to
#: restore the paper's effective decay depth per program phase; the
#: attack step and the performance-degradation guard are unchanged.
SCALED_OPERATING_POINT = AttackDecayParams(
    deviation_threshold_pct=2.5,
    reaction_change_pct=6.0,
    decay_pct=0.8,
    perf_deg_threshold_pct=2.5,
    interval_instructions=500,
)
