"""A single clock domain's clock with cycle-by-cycle edge tracking.

Following the paper's clocking scheme (Section 4): the time of the next
clock pulse is the previous pulse time plus the domain cycle time plus
that cycle's jitter sample.  All clock starting times are randomised at
reset (phase offsets), so the relationship among the edges of different
domains is tracked exactly by simply advancing each clock.
"""

from __future__ import annotations

import math

from repro.clocks.jitter import JitterModel, NoJitter
from repro.errors import ClockError

#: Lower bound on the effective cycle time so jitter can never make
#: time stand still or run backwards, whatever the configuration.
_MIN_EFFECTIVE_PERIOD_NS = 1e-6


class DomainClock:
    """An independently clocked domain's clock.

    The clock exposes the time of its *pending* edge
    (:attr:`next_edge_ns`).  The simulator repeatedly picks the domain
    with the earliest pending edge, performs that domain's work for the
    cycle, then calls :meth:`advance` to schedule the following edge.

    The run loop writes :attr:`period_ns` between edges as the domain's
    regulator slews; the change takes effect for the next scheduled
    edge, which is how the XScale execute-through model behaves.

    Parameters
    ----------
    name:
        Diagnostic label.
    frequency_mhz:
        Initial frequency.
    jitter:
        Per-cycle jitter source; defaults to no jitter.
    phase_ns:
        Starting time of the first edge (the paper randomises these).
    """

    __slots__ = ("name", "period_ns", "next_edge_ns", "cycle_index", "_jitter")

    def __init__(
        self,
        name: str,
        frequency_mhz: float,
        jitter: JitterModel | None = None,
        phase_ns: float = 0.0,
    ) -> None:
        if frequency_mhz <= 0:
            raise ClockError("frequency_mhz must be positive")
        if phase_ns < 0:
            raise ClockError("phase_ns must be non-negative")
        self.name = name
        self.period_ns = 1e3 / frequency_mhz
        self.next_edge_ns = phase_ns
        self.cycle_index = 0
        self._jitter = jitter if jitter is not None else NoJitter()

    # --- frequency ---------------------------------------------------------
    @property
    def frequency_mhz(self) -> float:
        """Current frequency implied by the period."""
        return 1e3 / self.period_ns

    @property
    def jitter(self) -> JitterModel:
        """This clock's jitter source.

        The native core loop consumes its samples directly (one per
        edge, exactly as :meth:`advance` would), drawing each block
        from the same bit generator as
        :meth:`~repro.clocks.jitter.GaussianJitter._draw`, so both
        simulation paths consume the same seeded stream.
        """
        return self._jitter

    # --- edges ---------------------------------------------------------------
    def advance(self) -> float:
        """Consume the pending edge; schedule and return the next one.

        Returns the new pending edge time (ns).
        """
        step = self.period_ns + self._jitter.sample()
        if step < _MIN_EFFECTIVE_PERIOD_NS:
            step = _MIN_EFFECTIVE_PERIOD_NS
        self.next_edge_ns += step
        self.cycle_index += 1
        return self.next_edge_ns

    def skip_idle_until(self, time_ns: float) -> int:
        """Advance an *idle* domain's clock to the first edge >= ``time_ns``.

        Bulk-advances without drawing jitter samples: when a domain is
        idle nothing crosses its boundary, so per-edge jitter is
        unobservable and skipping it preserves every measurable
        quantity while keeping long idle stretches cheap.  Returns the
        number of cycles skipped.
        """
        if time_ns <= self.next_edge_ns:
            return 0
        missing = time_ns - self.next_edge_ns
        cycles = math.ceil(missing / self.period_ns)
        self.next_edge_ns += cycles * self.period_ns
        self.cycle_index += cycles
        return cycles
