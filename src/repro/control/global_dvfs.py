"""Global dynamic voltage/frequency scaling baseline.

Commercial processors of the paper's era (Transmeta LongRun, Intel
XScale) scale the *whole chip* with one knob.  The paper's
``Global(...)`` rows run the fully synchronous processor at a single
reduced frequency/voltage chosen so its performance degradation matches
the MCD algorithm under comparison, and then report the (much smaller)
energy savings — a power-savings-to-performance-degradation ratio of
about 2, versus 4.6 for Attack/Decay.

:class:`GlobalDVFSController` applies one scaling factor to every
domain including the front end.  The search for the frequency matching
a target degradation is
:func:`repro.sim.paper_results.match_global_frequencies`.
"""

from __future__ import annotations

from typing import Mapping

from repro.config.mcd import Domain, MCDConfig
from repro.control.base import IntervalSnapshot
from repro.errors import ControlError


class GlobalDVFSController:
    """Scales all four on-chip domains to one common frequency."""

    instantaneous = True

    def __init__(self, frequency_mhz: float) -> None:
        if frequency_mhz <= 0:
            raise ControlError("frequency_mhz must be positive")
        self.frequency_mhz = frequency_mhz
        self._applied = False

    def begin(self, config: MCDConfig, initial_mhz: Mapping[Domain, float]) -> None:
        """Clamp the requested frequency into the legal range."""
        self.frequency_mhz = min(
            config.max_frequency_mhz,
            max(config.min_frequency_mhz, self.frequency_mhz),
        )
        self._applied = False

    def on_interval(self, snapshot: IntervalSnapshot) -> dict[Domain, float]:
        """Apply the global frequency once, to every on-chip domain."""
        if self._applied:
            return {}
        self._applied = True
        return {
            Domain.FRONT_END: self.frequency_mhz,
            Domain.INTEGER: self.frequency_mhz,
            Domain.FLOATING_POINT: self.frequency_mhz,
            Domain.LOAD_STORE: self.frequency_mhz,
        }
