"""Wattch-style architectural power/energy accounting.

Each domain cycle is charged a clock-tree component (every cycle) and
per-access structure energies (only when the structure is exercised);
an idle cycle is charged a gated residual instead, since conditional
clocking leaves a fraction of the clock load switching.  Every
component scales with the square of the instantaneous domain voltage,
which is how dynamic voltage scaling converts lower frequency into
energy savings.  The core's run loops apply these rules; this package
holds the per-cycle constants and the meters they flush into.

The MCD configurations carry a +10 % clock-tree energy overhead for the
per-domain PLLs/drivers/grids, which the paper reports as +2.9 % total
energy; the accounting reproduces that ratio because the clock tree is
calibrated to ~29 % of total power.
"""

from repro.power.accounting import DomainEnergyMeter, EnergyAccounting
from repro.power.wattch import AccessEnergies, DEFAULT_ENERGIES

__all__ = [
    "AccessEnergies",
    "DEFAULT_ENERGIES",
    "DomainEnergyMeter",
    "EnergyAccounting",
]
