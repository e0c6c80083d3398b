"""The Attack/Decay on-line frequency controller (paper Listing 1).

Each controlled domain runs an independent instance of the same state
machine; the only global input is the IPC performance counter.  Per
control interval:

* **attack** — if queue utilization changed by more than
  ``DeviationThreshold`` (relative to the previous interval), scale the
  clock period by ``1 ∓ ReactionChange`` (utilization up → frequency
  up, utilization down → frequency down);
* **decay** — otherwise stretch the period by ``1 + Decay``;
* frequency *decreases* (both attack-down and decay) are guarded by
  ``PerfDegThreshold`` on the interval-to-interval IPC change;
* after ``EndstopCount`` consecutive intervals pinned at a frequency
  extreme, an attack in the opposite direction is forced.

The printed listing's guard ``(PrevIPC / IPC) >= PerfDegThreshold`` is
a tautology for the paper's threshold range (see docs/design.md
substitution #4); the default here implements the prose semantics
(decreases proceed only while recent IPC degradation is within the
threshold) and ``literal_listing=True`` reproduces the listing exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.config.algorithm import AttackDecayParams
from repro.config.mcd import CONTROLLED_DOMAINS, Domain, MCDConfig
from repro.control.base import CORE_DOMAIN_INDEX, IntervalSnapshot, has_instance_hooks
from repro.errors import ControlError


@dataclass
class DomainControlState:
    """Per-domain controller registers (the hardware of Section 3.2)."""

    frequency_mhz: float
    prev_queue_utilization: float = 0.0
    upper_endstop: int = 0
    lower_endstop: int = 0
    #: Diagnostics: how many intervals each mode fired.
    attacks_up: int = 0
    attacks_down: int = 0
    decays: int = 0
    holds: int = 0


class AttackDecayController:
    """On-line per-domain frequency control via queue utilization.

    Parameters
    ----------
    params:
        Operating point (Table 2 values).
    domains:
        Domains to control; defaults to the three queue-fed domains
        (the front end stays at full frequency, Section 3.1).
    literal_listing:
        Use the comparison exactly as printed in Listing 1 instead of
        the prose semantics.
    smoothing_alpha:
        EWMA weight applied to the observed IPC (the PerfDegThreshold
        guard signal) before the Listing-1 comparison.  The paper
        samples every 10,000 instructions; this repository's scaled
        workloads sample every few hundred, which makes the raw IPC
        counter ~20x noisier than the hardware the algorithm was
        designed around — noise that spuriously blocks the decrease
        paths about half the time.  An alpha of ~0.3 restores the
        paper's effective averaging horizon (docs/design.md substitution
        #2).  Queue utilization is never smoothed: attack-mode reaction
        speed is the algorithm's point.  Set to 1.0 to disable
        smoothing (raw Listing-1 inputs).
    """

    instantaneous = False

    def __init__(
        self,
        params: AttackDecayParams | None = None,
        domains: tuple[Domain, ...] = CONTROLLED_DOMAINS,
        literal_listing: bool = False,
        smoothing_alpha: float = 0.3,
    ) -> None:
        self.params = params if params is not None else AttackDecayParams()
        if not domains:
            raise ControlError("controller needs at least one domain")
        for domain in domains:
            if not domain.is_controllable:
                raise ControlError(f"domain {domain} is not controllable")
        if not 0.0 < smoothing_alpha <= 1.0:
            raise ControlError("smoothing_alpha must be in (0, 1]")
        self.domains = domains
        self.literal_listing = literal_listing
        self.smoothing_alpha = smoothing_alpha
        self.prev_ipc = 0.0
        self._smoothed_ipc = 0.0
        self._smoothed_util: dict[Domain, float] = {}
        self.states: dict[Domain, DomainControlState] = {}
        self._config: MCDConfig | None = None

    # ------------------------------------------------------------------
    def begin(self, config: MCDConfig, initial_mhz: Mapping[Domain, float]) -> None:
        """Reset state for a new run."""
        self._config = config
        self.prev_ipc = 0.0
        self._smoothed_ipc = 0.0
        self._smoothed_util = {domain: 0.0 for domain in self.domains}
        self.states = {
            domain: DomainControlState(frequency_mhz=initial_mhz[domain])
            for domain in self.domains
        }

    def on_interval(self, snapshot: IntervalSnapshot) -> dict[Domain, float]:
        """Run Listing 1 for every controlled domain; return new targets."""
        if self._config is None:
            raise ControlError("begin() must be called before on_interval()")
        alpha = self.smoothing_alpha
        if snapshot.index == 0 or alpha >= 1.0:
            ipc = snapshot.ipc
        else:
            ipc = alpha * snapshot.ipc + (1.0 - alpha) * self._smoothed_ipc
        self._smoothed_ipc = ipc
        decrease_allowed = self._decrease_allowed(ipc)
        targets: dict[Domain, float] = {}
        for domain in self.domains:
            state = self.states[domain]
            # Utilization stays raw: the attack mode's reaction speed is
            # the algorithm's whole point (only the IPC guard signal is
            # smoothed to match the paper's 10k-instruction counter).
            utilization = snapshot.queue_utilization.get(domain, 0.0)
            new_mhz = self._step_domain(state, utilization, decrease_allowed)
            if new_mhz != state.frequency_mhz:
                state.frequency_mhz = new_mhz
                targets[domain] = new_mhz
            self._update_endstops(state)
            state.prev_queue_utilization = utilization
        self.prev_ipc = ipc
        return targets

    # ------------------------------------------------------------------
    def _decrease_allowed(self, ipc: float) -> bool:
        """The PerfDegThreshold guard (Listing 1 lines 19 & 25)."""
        if ipc <= 0.0:
            return False
        if self.prev_ipc <= 0.0:
            # First interval: no history yet; allow (matches a zeroed
            # PrevIPC register making the literal ratio 0 >= threshold
            # false — but with no history the prose guard has nothing
            # to protect, and the decay path dominates start-up).
            return True
        ratio = self.prev_ipc / ipc
        if self.literal_listing:
            return ratio >= self.params.perf_deg_threshold
        return ratio - 1.0 <= self.params.perf_deg_threshold

    def _step_domain(
        self,
        state: DomainControlState,
        utilization: float,
        decrease_allowed: bool,
    ) -> float:
        """One Listing-1 evaluation; returns the new commanded frequency."""
        params = self.params
        config = self._config
        scale = 1.0  # PeriodScaleFactor: >1 slows the domain down.

        if state.upper_endstop >= params.endstop_intervals:
            scale = 1.0 + params.reaction_change  # force decrease
            state.attacks_down += 1
        elif state.lower_endstop >= params.endstop_intervals:
            scale = 1.0 - params.reaction_change  # force increase
            state.attacks_up += 1
        else:
            prev = state.prev_queue_utilization
            deviation = prev * params.deviation_threshold
            if utilization - prev > deviation:
                scale = 1.0 - params.reaction_change
                state.attacks_up += 1
            elif prev - utilization > deviation and decrease_allowed:
                scale = 1.0 + params.reaction_change
                state.attacks_down += 1
            elif decrease_allowed and params.decay > 0.0:
                scale = 1.0 + params.decay
                state.decays += 1
            else:
                state.holds += 1

        new_mhz = state.frequency_mhz / scale
        # Range check (performed after the algorithm, per the paper).
        new_mhz = min(config.max_frequency_mhz, max(config.min_frequency_mhz, new_mhz))
        return new_mhz

    # ------------------------------------------------------------------
    # native hot-path marshalling
    # ------------------------------------------------------------------
    def native_spec(self) -> dict | None:
        """Flat numeric form of this controller for the C hot loop.

        The native core loop (:mod:`repro.uarch.native`) runs Listing 1
        inline — zero per-interval Python crossings — when the
        configured controller is a *stock* ``AttackDecayController``.
        Returns None whenever that inlining would be unsound: a
        subclass (overridden hooks would be skipped), an instance made
        instantaneous, or :meth:`begin` not yet called (the Python
        paths raise on the first interval; the fallback callback path
        preserves that).
        """
        if type(self) is not AttackDecayController:
            return None
        if self.instantaneous or self._config is None or not self.states:
            return None
        if has_instance_hooks(self):
            return None
        controlled = [0, 0, 0, 0]
        frequency_mhz = [0.0, 0.0, 0.0, 0.0]
        for domain in self.domains:
            index = CORE_DOMAIN_INDEX[domain]
            controlled[index] = 1
            frequency_mhz[index] = self.states[domain].frequency_mhz
        return {
            "mode": "attack_decay",
            **self.params.native_values(),
            "literal_listing": 1 if self.literal_listing else 0,
            "smoothing_alpha": self.smoothing_alpha,
            "controlled": controlled,
            "frequency_mhz": frequency_mhz,
            "prev_ipc": self.prev_ipc,
            "smoothed_ipc": self._smoothed_ipc,
        }

    def absorb_native_state(
        self,
        prev_ipc: float,
        smoothed_ipc: float,
        frequency_mhz,
        prev_queue_utilization,
        upper_endstop,
        lower_endstop,
        attacks_up,
        attacks_down,
        decays,
        holds,
    ) -> None:
        """Fold the native loop's controller registers back in.

        Per-domain sequences are indexed by the hot-loop domain order
        (front end, integer, floating point, load/store); the
        diagnostics counters are *deltas* accumulated by the C loop.
        After this, ``states``/``prev_ipc`` are exactly what the Python
        paths would have left behind.
        """
        self.prev_ipc = float(prev_ipc)
        self._smoothed_ipc = float(smoothed_ipc)
        for domain in self.domains:
            i = CORE_DOMAIN_INDEX[domain]
            state = self.states[domain]
            state.frequency_mhz = float(frequency_mhz[i])
            state.prev_queue_utilization = float(prev_queue_utilization[i])
            state.upper_endstop = int(upper_endstop[i])
            state.lower_endstop = int(lower_endstop[i])
            state.attacks_up += int(attacks_up[i])
            state.attacks_down += int(attacks_down[i])
            state.decays += int(decays[i])
            state.holds += int(holds[i])

    def _update_endstops(self, state: DomainControlState) -> None:
        """Listing 1 lines 38-47."""
        config = self._config
        endstop = self.params.endstop_intervals
        at_min = state.frequency_mhz <= config.min_frequency_mhz + 1e-9
        at_max = state.frequency_mhz >= config.max_frequency_mhz - 1e-9
        if at_min and state.lower_endstop != endstop:
            state.lower_endstop += 1
        else:
            state.lower_endstop = 0
        if at_max and state.upper_endstop != endstop:
            state.upper_endstop += 1
        else:
            state.upper_endstop = 0
