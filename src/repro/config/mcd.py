"""MCD processor configuration (paper Table 1).

The Multiple Clock Domain processor splits the chip into four
independently clocked domains plus the external main-memory domain.
:class:`MCDConfig` carries the electrical parameters of Table 1:

======================  =======================================
Parameter               Value
======================  =======================================
Domain voltage          0.65 V – 1.20 V
Domain frequency        250 MHz – 1.0 GHz
Frequency change rate   49.1 ns/MHz (XScale)
Domain clock jitter     110 ps, normally distributed about zero
Synchronization window  30 % of the 1.0 GHz clock (300 ps)
======================  =======================================

Frequencies are expressed in MHz and times in nanoseconds throughout
the package; voltages in volts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from repro.errors import ConfigError


class Domain(enum.Enum):
    """The clock domains of the MCD processor (paper Figure 1).

    ``EXTERNAL`` is the main-memory domain: independently clocked but
    not controllable; its frequency and voltage stay at the maximum.
    """

    FRONT_END = "front_end"
    INTEGER = "integer"
    FLOATING_POINT = "floating_point"
    LOAD_STORE = "load_store"
    EXTERNAL = "external"

    @property
    def is_controllable(self) -> bool:
        """Whether a frequency controller may scale this domain.

        The external (main memory) domain is never controllable.  The
        front end is electrically controllable but the paper fixes it
        at 1.0 GHz; that policy decision lives in the controller, not
        here.
        """
        return self is not Domain.EXTERNAL


#: Domains driven by the Attack/Decay controller — every domain that has
#: a decoupling queue at its input (paper Section 3: all but the front
#: end, whose frequency stays fixed, and the external memory domain).
CONTROLLED_DOMAINS = (
    Domain.INTEGER,
    Domain.FLOATING_POINT,
    Domain.LOAD_STORE,
)


@dataclass(frozen=True)
class MCDConfig:
    """Electrical/clocking parameters of the MCD processor (Table 1).

    Parameters
    ----------
    min_frequency_mhz, max_frequency_mhz:
        The legal domain frequency range (250 MHz – 1.0 GHz).
    min_voltage_v, max_voltage_v:
        The legal domain voltage range (0.65 V – 1.20 V); voltage is a
        linear function of frequency across this range (Section 4).
    frequency_points:
        Number of quantised frequency steps spanning the range (the
        paper uses 320, approximating XScale's smooth transitions).
    slew_ns_per_mhz:
        Voltage/frequency transition rate, 49.1 ns per MHz of change.
        The domain continues executing through the change
        (execute-through, XScale model).
    jitter_sigma_ns:
        Standard deviation of per-cycle clock jitter (110 ps), normal,
        zero mean.
    sync_window_ns:
        Sjogren–Myers synchronization window: a source edge and a
        destination edge closer together than this cannot transfer
        data; the destination waits one more cycle (300 ps = 30 % of
        the 1 GHz period).
    mcd_clock_energy_overhead:
        Multiplier on clock-tree energy for the MCD configurations
        (separate PLLs/drivers/grids); the paper assumes +10 % clock
        energy, i.e. 1.10.
    """

    min_frequency_mhz: float = 250.0
    max_frequency_mhz: float = 1000.0
    min_voltage_v: float = 0.65
    max_voltage_v: float = 1.20
    frequency_points: int = 320
    slew_ns_per_mhz: float = 49.1
    jitter_sigma_ns: float = 0.110
    sync_window_ns: float = 0.300
    mcd_clock_energy_overhead: float = 1.10

    def __post_init__(self) -> None:
        # NaN passes every ordering test below, and inf several.
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if self.min_frequency_mhz <= 0:
            raise ConfigError("min_frequency_mhz must be positive")
        if self.max_frequency_mhz <= self.min_frequency_mhz:
            raise ConfigError("max_frequency_mhz must exceed min_frequency_mhz")
        if self.min_voltage_v <= 0:
            raise ConfigError("min_voltage_v must be positive")
        if self.max_voltage_v <= self.min_voltage_v:
            raise ConfigError("max_voltage_v must exceed min_voltage_v")
        if self.frequency_points < 2:
            raise ConfigError("frequency_points must be at least 2")
        if self.slew_ns_per_mhz < 0:
            raise ConfigError("slew_ns_per_mhz must be non-negative")
        if self.jitter_sigma_ns < 0:
            raise ConfigError("jitter_sigma_ns must be non-negative")
        if self.sync_window_ns < 0:
            raise ConfigError("sync_window_ns must be non-negative")
        if self.mcd_clock_energy_overhead < 1.0:
            raise ConfigError("mcd_clock_energy_overhead must be >= 1.0")

    @property
    def max_period_ns(self) -> float:
        """Clock period at the minimum frequency."""
        return 1e3 / self.min_frequency_mhz

    @property
    def min_period_ns(self) -> float:
        """Clock period at the maximum frequency."""
        return 1e3 / self.max_frequency_mhz

    @property
    def frequency_step_mhz(self) -> float:
        """Spacing between adjacent quantised frequency points."""
        span = self.max_frequency_mhz - self.min_frequency_mhz
        return span / (self.frequency_points - 1)

    def voltage_for_frequency(self, frequency_mhz: float) -> float:
        """Supply voltage for ``frequency_mhz`` (linear map, Section 4).

        Frequencies outside the legal range raise :class:`ConfigError`
        (modulo a small tolerance for floating-point slew arithmetic).
        """
        tol = 1e-9
        if not (
            self.min_frequency_mhz - tol
            <= frequency_mhz
            <= self.max_frequency_mhz + tol
        ):
            raise ConfigError(
                f"frequency {frequency_mhz} MHz outside "
                f"[{self.min_frequency_mhz}, {self.max_frequency_mhz}]"
            )
        span = self.max_frequency_mhz - self.min_frequency_mhz
        fraction = (frequency_mhz - self.min_frequency_mhz) / span
        fraction = min(1.0, max(0.0, fraction))
        return self.min_voltage_v + fraction * (self.max_voltage_v - self.min_voltage_v)

    def quantize_frequency(self, frequency_mhz: float) -> float:
        """Clamp and snap ``frequency_mhz`` to the nearest legal point.

        This mirrors the hardware's 320-point frequency table: any
        requested frequency is first clamped into the legal range and
        then rounded to the nearest quantised step.
        """
        clamped = min(self.max_frequency_mhz, max(self.min_frequency_mhz, frequency_mhz))
        step = self.frequency_step_mhz
        index = round((clamped - self.min_frequency_mhz) / step)
        return self.min_frequency_mhz + index * step

    def is_legal_frequency(self, frequency_mhz: float, tol: float = 1e-6) -> bool:
        """Whether ``frequency_mhz`` sits (within ``tol``) on a legal point."""
        if not (
            self.min_frequency_mhz - tol
            <= frequency_mhz
            <= self.max_frequency_mhz + tol
        ):
            return False
        return math.isclose(
            self.quantize_frequency(frequency_mhz), frequency_mhz, abs_tol=tol
        )

    def slew_time_ns(self, from_mhz: float, to_mhz: float) -> float:
        """Wall-clock time to ramp between two frequencies."""
        return abs(to_mhz - from_mhz) * self.slew_ns_per_mhz

    def table1_rows(self) -> list[tuple[str, str]]:
        """Render this configuration as the rows of paper Table 1."""
        return [
            ("Domain Voltage", f"{self.min_voltage_v:.2f} V - {self.max_voltage_v:.2f} V"),
            (
                "Domain Frequency",
                f"{self.min_frequency_mhz:.0f} MHz - {self.max_frequency_mhz / 1000.0:.1f} GHz",
            ),
            ("Frequency Change Rate", f"{self.slew_ns_per_mhz} ns/MHz"),
            (
                "Domain Clock Jitter",
                f"{self.jitter_sigma_ns * 1e3:.0f}ps, normally distributed about zero",
            ),
            (
                "Synchronization Window",
                f"{self.sync_window_ns / self.min_period_ns * 100:.0f}% of "
                f"{self.max_frequency_mhz / 1000.0:.1f} GHz clock "
                f"({self.sync_window_ns * 1e3:.0f}ps)",
            ),
        ]
