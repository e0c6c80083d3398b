"""Controller interface between the core and frequency-control policies.

Once per control interval (a fixed number of retired instructions) the
core hands the controller an :class:`IntervalSnapshot` of exactly the
observables the paper's hardware provides — per-domain queue
utilization counters and the global IPC counter (Section 3.2) — plus
busy fractions used only by the off-line profiler.  The controller
returns per-domain frequency targets, which the core routes to the
domain regulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

from repro.config.mcd import Domain, MCDConfig

#: The order of every per-domain register the core keeps and its native
#: loop exchanges with a controller: index ``i`` is ``CORE_DOMAINS[i]``.
CORE_DOMAINS = (
    Domain.FRONT_END,
    Domain.INTEGER,
    Domain.FLOATING_POINT,
    Domain.LOAD_STORE,
)
CORE_DOMAIN_INDEX = {domain: i for i, domain in enumerate(CORE_DOMAINS)}


def has_instance_hooks(controller) -> bool:
    """Whether ``begin``/``on_interval`` were replaced on the instance.

    Replacing them is rare but legal; such a controller must keep the
    per-interval callback, the only path that calls the replacement,
    so its ``native_spec`` returns None.
    """
    return "on_interval" in controller.__dict__ or "begin" in controller.__dict__


@dataclass(frozen=True)
class IntervalSnapshot:
    """Observables for one control interval.

    Attributes
    ----------
    index:
        Interval number, starting at 0.
    instructions:
        Retired instructions in the interval (the interval length).
    time_ns:
        Simulated time at the end of the interval.
    duration_ns:
        Wall-clock length of the interval.
    ipc:
        Global instructions-per-cycle counter referenced to the
        front-end clock (the one global signal of Section 3.1).
    queue_utilization:
        Per controlled domain: queue occupancy accumulated each domain
        cycle over the interval, divided by the interval length in
        *instructions* — the paper's metric, which can exceed the queue
        size when the interval takes more cycles than instructions.
    busy_fraction:
        Per domain: fraction of the interval's wall time the domain was
        doing work.  Not available to real control hardware; used by
        the off-line profiler only.
    frequencies_mhz:
        Per domain instantaneous frequency at snapshot time.
    """

    index: int
    instructions: int
    time_ns: float
    duration_ns: float
    ipc: float
    queue_utilization: Mapping[Domain, float] = field(default_factory=dict)
    busy_fraction: Mapping[Domain, float] = field(default_factory=dict)
    frequencies_mhz: Mapping[Domain, float] = field(default_factory=dict)


@runtime_checkable
class FrequencyController(Protocol):
    """A policy that picks per-domain frequency targets each interval."""

    #: When True the core applies returned targets instantaneously
    #: (snap) instead of slewing — the off-line algorithm pre-requests
    #: changes so the slew completes at the interval boundary.
    instantaneous: bool

    def begin(self, config: MCDConfig, initial_mhz: Mapping[Domain, float]) -> None:
        """Reset controller state at the start of a run."""
        ...

    def on_interval(self, snapshot: IntervalSnapshot) -> Mapping[Domain, float]:
        """Return target frequencies (MHz) for the domains to change.

        Domains absent from the mapping keep their current target.
        """
        ...
