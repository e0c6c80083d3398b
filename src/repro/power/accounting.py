"""Per-domain energy meters and whole-chip accounting.

The core's run loops charge energy in local accumulators, using the
per-cycle constants :meth:`EnergyAccounting.clock_cycle_energy` and
:meth:`EnergyAccounting.idle_cycle_energy` scaled by (V/Vmax)², and
flush the totals here once per run.  The meters keep clock and
structure energy apart: the split is what makes the +10 % MCD clock
overhead come out as ~+2.9 % total energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.mcd import Domain, MCDConfig
from repro.power.wattch import AccessEnergies, DEFAULT_ENERGIES

#: Conditional clocking (Wattch-style): an idle domain cycle burns this
#: fraction of the domain's busy clock energy plus its imperfectly
#: gated datapath energy; the global clock grid and enabled latch
#: headers keep toggling.
IDLE_RESIDUAL = 0.18


@dataclass
class DomainEnergyMeter:
    """Accumulated energy and activity for one domain."""

    domain: Domain
    clock_energy: float = 0.0
    structure_energy: float = 0.0
    busy_cycles: int = 0
    idle_cycles: int = 0

    @property
    def total_energy(self) -> float:
        """Clock plus structure energy."""
        return self.clock_energy + self.structure_energy

    @property
    def cycles(self) -> int:
        """Total clocked cycles."""
        return self.busy_cycles + self.idle_cycles


class EnergyAccounting:
    """Whole-chip energy accounting across the five domains.

    Parameters
    ----------
    config:
        MCD configuration (supplies the MCD clock overhead).
    energies:
        Per-access energy table.
    mcd_clocking:
        True for MCD configurations (applies the clock-tree overhead);
        False for the fully synchronous baseline.
    """

    __slots__ = ("energies", "meters", "_clock_cache", "_idle_cache")

    def __init__(
        self,
        config: MCDConfig,
        energies: AccessEnergies = DEFAULT_ENERGIES,
        mcd_clocking: bool = True,
    ) -> None:
        self.energies = energies
        self.meters = {domain: DomainEnergyMeter(domain) for domain in Domain}
        overhead = config.mcd_clock_energy_overhead if mcd_clocking else 1.0
        self._clock_cache = {
            domain: energies.clock_energy(domain) * overhead for domain in Domain
        }
        self._idle_cache = {
            domain: IDLE_RESIDUAL
            * (self._clock_cache[domain] + energies.idle_overhead(domain))
            for domain in Domain
        }

    def clock_cycle_energy(self, domain: Domain) -> float:
        """Per-cycle clock energy for a *busy* cycle (at Vmax, with overhead)."""
        return self._clock_cache[domain]

    def idle_cycle_energy(self, domain: Domain) -> float:
        """Per-cycle energy for an *idle* cycle (at Vmax, gated)."""
        return self._idle_cache[domain]

    def add_raw(
        self,
        domain: Domain,
        clock_energy: float,
        structure_energy: float,
        busy_cycles: int,
        idle_cycles: int,
    ) -> None:
        """Flush externally accumulated (already voltage-scaled) energy."""
        meter = self.meters[domain]
        meter.clock_energy += clock_energy
        meter.structure_energy += structure_energy
        meter.busy_cycles += busy_cycles
        meter.idle_cycles += idle_cycles

    def add_memory_accesses(self, count: int) -> None:
        """Flush ``count`` off-chip accesses (external domain, fixed Vmax)."""
        if count > 0:
            self.meters[Domain.EXTERNAL].structure_energy += (
                count * self.energies.memory_access
            )

    @property
    def total_energy(self) -> float:
        """Total chip energy so far."""
        return sum(m.total_energy for m in self.meters.values())

    @property
    def total_clock_energy(self) -> float:
        """Total clock-tree energy so far."""
        return sum(m.clock_energy for m in self.meters.values())
