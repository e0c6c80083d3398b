"""Clock-domain substrate: jitter and per-domain clocks.

The MCD simulator tracks the relationship among domain clocks on a
cycle-by-cycle basis (paper Section 4): each domain's next edge time is
its previous edge time plus the (possibly slewing) period plus a jitter
sample drawn from N(0, 110 ps).  Inter-domain transfers respect the
Sjogren–Myers synchronization window: an edge pair closer than 300 ps
cannot transfer data and costs one extra destination cycle.  The core's
run loops apply that rule (:mod:`repro.uarch.core`).
"""

from repro.clocks.domain_clock import DomainClock
from repro.clocks.jitter import GaussianJitter, JitterModel, NoJitter

__all__ = [
    "DomainClock",
    "GaussianJitter",
    "JitterModel",
    "NoJitter",
]
