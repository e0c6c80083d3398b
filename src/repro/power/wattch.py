"""Per-access energy table (Wattch substitute).

Wattch derives per-access capacitances from circuit-level models; we
use a fixed per-access energy table expressed in arbitrary energy units
("eu" — consistent across all configurations, so every ratio the paper
reports is meaningful).  The relative weights are calibrated so that a
mixed workload at full frequency/voltage lands near the domain power
breakdown the paper's accounting implies:

* front end ~25 %, integer ~25 %, floating point ~15 %, load/store ~35 %
* clock tree ~29 % of total chip power, so the MCD +10 % clock energy
  overhead costs ~2.9 % of total energy (Section 4).

See docs/design.md substitution #3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.mcd import Domain
from repro.errors import ConfigError


@dataclass(frozen=True)
class AccessEnergies:
    """Per-event and per-cycle energies at maximum voltage (units: eu).

    ``clock_per_cycle`` is charged on every cycle of the domain's
    clock; the remaining entries are charged per architectural event.
    Voltage scaling (V/Vmax)^2 is applied by the accounting layer.
    """

    # Per-cycle clock tree energy, per domain.
    clock_front_end: float = 0.100
    clock_integer: float = 0.155
    clock_floating_point: float = 0.105
    clock_load_store: float = 0.290

    # Front end events (per instruction or per branch).
    fetch_per_instruction: float = 0.038
    l1i_access: float = 0.060
    branch_predictor_lookup: float = 0.040
    rename_dispatch_per_instruction: float = 0.055
    rob_write: float = 0.025
    retire_per_instruction: float = 0.020

    # Integer domain events.
    iq_write: float = 0.030
    iq_issue: float = 0.055
    int_alu_op: float = 0.175
    int_mult_op: float = 0.260
    int_regfile_access: float = 0.060

    # Floating-point domain events.
    fq_write: float = 0.030
    fq_issue: float = 0.055
    fp_alu_op: float = 0.300
    fp_mult_op: float = 0.380
    fp_regfile_access: float = 0.070

    # Load/store domain events.
    lsq_write: float = 0.055
    lsq_issue: float = 0.065
    l1d_access: float = 0.230
    l2_access: float = 0.520

    # External (main memory) domain: per off-chip access, charged at
    # fixed maximum voltage (the memory domain is not scalable).
    memory_access: float = 1.600

    # Idle datapath overhead per cycle, per domain: imperfectly gated
    # structure energy (Wattch's conditional-clocking styles charge an
    # idle unit ~10-15 % of its maximum power, datapath included — not
    # just the clock tree).  The gating residual is applied to
    # clock + this value on idle cycles.
    idle_front_end: float = 0.150
    idle_integer: float = 0.300
    idle_floating_point: float = 0.420
    idle_load_store: float = 0.450

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"energy {name} must be non-negative")

    def clock_energy(self, domain: Domain) -> float:
        """Per-cycle clock-tree energy for ``domain``."""
        return _CLOCK_BY_DOMAIN[domain](self)

    def idle_overhead(self, domain: Domain) -> float:
        """Imperfectly gated idle datapath energy per cycle."""
        return _IDLE_BY_DOMAIN[domain](self)


_IDLE_BY_DOMAIN = {
    Domain.FRONT_END: lambda e: e.idle_front_end,
    Domain.INTEGER: lambda e: e.idle_integer,
    Domain.FLOATING_POINT: lambda e: e.idle_floating_point,
    Domain.LOAD_STORE: lambda e: e.idle_load_store,
    Domain.EXTERNAL: lambda e: 0.0,
}

_CLOCK_BY_DOMAIN = {
    Domain.FRONT_END: lambda e: e.clock_front_end,
    Domain.INTEGER: lambda e: e.clock_integer,
    Domain.FLOATING_POINT: lambda e: e.clock_floating_point,
    Domain.LOAD_STORE: lambda e: e.clock_load_store,
    Domain.EXTERNAL: lambda e: 0.0,
}


#: Default calibration used by every experiment in this repository.
DEFAULT_ENERGIES = AccessEnergies()
