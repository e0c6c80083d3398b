"""Off-line frequency scheduling (the Dynamic-1 % / Dynamic-5 % baseline).

The paper compares Attack/Decay against its earlier *off-line*
algorithm (Semeraro et al., HPCA 2002), which analyses a complete
profiling run, finds slack, and then — on re-execution with the same
input — sets each domain's frequency per interval with perfect
foresight, targeting a performance degradation cap (1 % or 5 % above
the baseline MCD processor).

We reproduce its interface and character with a profile-driven
schedule (docs/design.md substitution #5):

1. :class:`OfflineProfiler` rides along a run at maximum frequencies
   and records, per control interval, each domain's *busy fraction*
   (work cycles over wall time) and queue utilization.
2. :func:`build_offline_schedule` converts the profile into
   per-interval domain frequencies: the minimum frequency that covers
   the observed work when the interval is allowed to dilate by the
   target, i.e. ``f = fmax * busy / (1 + target)``, floored, quantised,
   and latency-guarded (domains serving long-latency traffic keep
   headroom proportional to their queue pressure).
3. :class:`OfflineController` replays the schedule with instantaneous
   transitions — the paper notes the off-line algorithm pre-requests
   changes, so regulator slew is not a source of error for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config.mcd import CONTROLLED_DOMAINS, Domain, MCDConfig
from repro.control.base import IntervalSnapshot
from repro.dvfs.scale import frequency_scale
from repro.errors import ControlError


@dataclass
class OfflineProfile:
    """Per-interval observations from a maximum-frequency run."""

    busy_fraction: list[dict[Domain, float]] = field(default_factory=list)
    queue_utilization: list[dict[Domain, float]] = field(default_factory=list)
    ipc: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.busy_fraction)


class OfflineProfiler:
    """A passive controller that records the profile and changes nothing."""

    instantaneous = True

    def __init__(self) -> None:
        self.profile = OfflineProfile()

    def begin(self, config: MCDConfig, initial_mhz: Mapping[Domain, float]) -> None:
        """Start a fresh profile."""
        self.profile = OfflineProfile()

    def on_interval(self, snapshot: IntervalSnapshot) -> dict[Domain, float]:
        """Record the interval; request no changes."""
        self.profile.busy_fraction.append(dict(snapshot.busy_fraction))
        self.profile.queue_utilization.append(dict(snapshot.queue_utilization))
        self.profile.ipc.append(snapshot.ipc)
        return {}


def build_offline_schedule(
    profile: OfflineProfile,
    config: MCDConfig,
    target_degradation_pct: float,
    domains: tuple[Domain, ...] = CONTROLLED_DOMAINS,
    latency_guard: float = 0.45,
    aggressiveness: float = 1.0,
) -> list[dict[Domain, float]]:
    """Turn a profile into a per-interval frequency schedule.

    Parameters
    ----------
    profile:
        Observations from a maximum-frequency run of the same workload.
    config:
        Electrical limits and the quantised scale.
    target_degradation_pct:
        The algorithm's dilation budget (1.0 for Dynamic-1 %, 5.0 for
        Dynamic-5 %).
    domains:
        Domains to schedule (the front end stays at maximum, matching
        the paper's off-line configuration for comparability).
    latency_guard:
        Weight of queue pressure in the frequency floor.  Busy fraction
        alone under-provisions latency-critical domains (a load/store
        domain waiting on L2 misses has idle ports but its clock still
        sets the miss latency); queue utilization is the observable
        proxy for that pressure.
    aggressiveness:
        Interpolation between maximum frequency (0.0) and the raw
        demand-based schedule (1.0); values above 1.0 push below the
        demand estimate.  The original off-line algorithm re-analyses
        the whole run until the dilation budget is met; the iterative
        search in
        :func:`repro.experiments.builtins.dynamic_configuration`
        adjusts this knob from *measured* degradation, which plays the
        same role.

    Returns
    -------
    One ``{domain: MHz}`` mapping per interval.
    """
    if target_degradation_pct < 0:
        raise ControlError("target_degradation_pct must be >= 0")
    if aggressiveness < 0:
        raise ControlError("aggressiveness must be >= 0")
    scale = frequency_scale(config)
    dilation = 1.0 + target_degradation_pct / 100.0
    fmax = config.max_frequency_mhz
    schedule: list[dict[Domain, float]] = []
    for i in range(len(profile)):
        busy = profile.busy_fraction[i]
        qutil = profile.queue_utilization[i]
        step: dict[Domain, float] = {}
        for domain in domains:
            work = busy.get(domain, 0.0)
            pressure = min(1.0, latency_guard * qutil.get(domain, 0.0))
            demand = max(work, pressure)
            mhz = fmax - aggressiveness * (fmax - fmax * demand / dilation)
            step[domain] = scale.quantize(mhz)
        schedule.append(step)
    return schedule


class OfflineController:
    """Replays a pre-computed schedule with perfect foresight."""

    instantaneous = True

    def __init__(self, schedule: list[dict[Domain, float]]) -> None:
        if not schedule:
            raise ControlError("schedule must not be empty")
        self.schedule = schedule
        self._position = 0

    def begin(self, config: MCDConfig, initial_mhz: Mapping[Domain, float]) -> None:
        """Rewind to the start of the schedule."""
        self._position = 0

    def on_interval(self, snapshot: IntervalSnapshot) -> dict[Domain, float]:
        """Apply the next scheduled step (hold the last step past the end)."""
        index = min(self._position, len(self.schedule) - 1)
        self._position += 1
        return dict(self.schedule[index])
