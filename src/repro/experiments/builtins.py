"""Built-in registry entries: the paper's configuration vocabulary.

Importing this module (which :mod:`repro.experiments` does) populates
the registries with every configuration of Table 6 / Figures 4-7:

* ``sync`` — fully synchronous processor, everything at 1 GHz;
* ``mcd_base`` — baseline MCD processor, all domains at 1 GHz;
* ``attack_decay`` — MCD + the on-line controller, optionally
  parameterised by the paper's legend label
  (``attack_decay[1.750_06.0_0.175_2.5]``, ``[literal]`` suffix for the
  literal Listing 1 variant) and/or per-field overrides;
* ``dynamic_<pct>`` — MCD + the off-line schedule iterated against a
  degradation target (``dynamic_1``, ``dynamic_5``);
* ``global@<mhz>`` — fully synchronous processor at one reduced global
  frequency with memory latency tracking the clock.

Clocking modes (``sync``/``mcd``/``global``) and controller factories
(``none``/``attack_decay``/``fixed``/``global_dvfs``/
``offline_profiler``) are registered alongside so custom configurations
can be composed from named pieces.
"""

from __future__ import annotations

import math
import numbers
import re

from repro.config.algorithm import AttackDecayParams
from repro.config.mcd import MCDConfig
from repro.control.attack_decay import AttackDecayController
from repro.control.fixed import FixedFrequencyController
from repro.control.global_dvfs import GlobalDVFSController
from repro.control.offline import (
    OfflineController,
    OfflineProfiler,
    build_offline_schedule,
)
from repro.errors import ExperimentError
from repro.experiments.registry import (
    CLOCKING_MODES,
    register_clocking_mode,
    register_configuration,
    register_controller,
)
from repro.metrics.summary import RunSummary, summarize
from repro.sim.engine import SimulationSpec, run_spec


# --- clocking modes --------------------------------------------------------
@register_clocking_mode("sync")
def sync_clocking() -> dict:
    """Fully synchronous: one chip-wide clock."""
    return {"mcd": False}


@register_clocking_mode("mcd")
def mcd_clocking() -> dict:
    """Multiple clock domains (GALS), independently clocked."""
    return {"mcd": True}


@register_clocking_mode("global")
def global_clocking() -> dict:
    """Global DVFS: synchronous with memory latency tracking the clock."""
    return {"mcd": False, "memory_tracks_global": True}


# --- controllers -----------------------------------------------------------
@register_controller("none")
def no_controller():
    """No controller: frequencies stay at their initial values."""
    return None


@register_controller("attack_decay")
def attack_decay_controller(
    params: AttackDecayParams | None = None,
    literal_listing: bool = False,
    **fields: float | int,
) -> AttackDecayController:
    """The paper's on-line Attack/Decay controller.

    ``fields`` are :class:`~repro.config.algorithm.AttackDecayParams`
    overrides applied on top of ``params`` (default operating point
    when omitted).
    """
    params = params if params is not None else AttackDecayParams()
    if fields:
        params = params.with_(**fields)
    return AttackDecayController(params, literal_listing=literal_listing)


@register_controller("fixed")
def fixed_controller(frequencies_mhz=None) -> FixedFrequencyController:
    """Pins per-domain frequencies for the whole run."""
    return FixedFrequencyController(frequencies_mhz)


@register_controller("global_dvfs")
def global_dvfs_controller(frequency_mhz: float) -> GlobalDVFSController:
    """Scales all four on-chip domains to one common frequency."""
    return GlobalDVFSController(frequency_mhz)


@register_controller("offline_profiler")
def offline_profiler_controller() -> OfflineProfiler:
    """Passive profiling pass for the off-line Dynamic algorithm."""
    return OfflineProfiler()


# --- configurations --------------------------------------------------------
@register_configuration("sync")
def sync_configuration(ctx, benchmark: str, scale: float, seed: int) -> SimulationSpec:
    """Fully synchronous processor at maximum frequency."""
    return SimulationSpec(
        benchmark=benchmark, scale=scale, seed=seed, **CLOCKING_MODES.get("sync")()
    )


@register_configuration("mcd_base")
def mcd_base_configuration(
    ctx, benchmark: str, scale: float, seed: int
) -> SimulationSpec:
    """Baseline MCD processor (all domains at maximum)."""
    return SimulationSpec(
        benchmark=benchmark, scale=scale, seed=seed, **CLOCKING_MODES.get("mcd")()
    )


#: Legend-labelled names: ``attack_decay[1.750_06.0_0.175_2.5][literal]``.
_ATTACK_DECAY_NAME = re.compile(
    r"^attack_decay\[(\d+\.\d+)_(\d+\.\d+)_(\d+\.\d+)_(\d+\.\d+)\](\[literal\])?$"
)


def _parse_attack_decay(name: str) -> dict | None:
    """Parse a legend-labelled ``attack_decay[...]`` configuration name."""
    match = _ATTACK_DECAY_NAME.match(name)
    if match is None:
        return None
    params: dict = {
        "deviation_threshold_pct": float(match.group(1)),
        "reaction_change_pct": float(match.group(2)),
        "decay_pct": float(match.group(3)),
        "perf_deg_threshold_pct": float(match.group(4)),
    }
    if match.group(5):
        params["literal_listing"] = True
    return params


@register_configuration("attack_decay", parse=_parse_attack_decay)
def attack_decay_configuration(
    ctx,
    benchmark: str,
    scale: float,
    seed: int,
    literal_listing: bool = False,
    **fields: float | int,
) -> SimulationSpec:
    """MCD processor under the Attack/Decay controller.

    ``fields`` override individual
    :class:`~repro.config.algorithm.AttackDecayParams` values (legend
    fields come pre-parsed from the configuration name).
    """
    controller = attack_decay_controller(
        literal_listing=literal_listing, **fields
    )
    return SimulationSpec(
        benchmark=benchmark,
        controller=controller,
        scale=scale,
        seed=seed,
        **CLOCKING_MODES.get("mcd")(),
    )


def attack_decay_scenario(
    benchmark: str,
    params: AttackDecayParams | None = None,
    literal_listing: bool = False,
    seed: int | None = None,
    scale: float | None = None,
):
    """Encode an Attack/Decay operating point as a registry scenario.

    The four legend fields go into the configuration name (the paper's
    labelling); anything the legend's fixed-precision format cannot
    represent exactly — a fractional sweep value, plus the non-legend
    fields (``endstop_intervals``, ``interval_instructions``) — travels
    as overrides, which win over the parsed name at execution time and
    are part of the cache identity.  The scenario therefore always runs
    the *exact* operating point given.
    """
    from repro.experiments.scenario import Scenario

    params = params if params is not None else AttackDecayParams()
    name = f"attack_decay[{params.legend()}]"
    if literal_listing:
        name += "[literal]"
    parsed = _parse_attack_decay(name)
    defaults = AttackDecayParams()
    overrides: dict[str, float | int] = {
        field: getattr(params, field)
        for field in (
            "deviation_threshold_pct",
            "reaction_change_pct",
            "decay_pct",
            "perf_deg_threshold_pct",
        )
        if parsed[field] != getattr(params, field)
    }
    overrides.update(
        {
            field: getattr(params, field)
            for field in ("endstop_intervals", "interval_instructions")
            if getattr(params, field) != getattr(defaults, field)
        }
    )
    return Scenario(benchmark, name, seed=seed, scale=scale, overrides=overrides)


_DYNAMIC_NAME = re.compile(r"^dynamic_(\d+(?:\.\d+)?)$")


def _parse_dynamic(name: str) -> dict | None:
    """Parse a ``dynamic_<pct>`` configuration name."""
    match = _DYNAMIC_NAME.match(name)
    if match is None:
        return None
    return {"target_pct": float(match.group(1))}


@register_configuration("dynamic_<pct>", parse=_parse_dynamic)
def dynamic_configuration(
    ctx,
    benchmark: str,
    scale: float,
    seed: int,
    target_pct: float,
    iterations: int = 3,
) -> RunSummary:
    """The off-line algorithm at a degradation target (1 % or 5 %).

    Profiles the benchmark at maximum frequencies, builds the
    demand-based per-interval schedule, and iterates the schedule's
    aggressiveness against *measured* degradation (relative to the
    baseline MCD processor, whose run is the profiling run itself) —
    the off-line algorithm's whole point is that it may re-analyse the
    complete run until its dilation budget is met.  Returns the best
    run's summary directly (a multi-run search, not a single spec):
    ``iterations`` caps the schedules tried, so the search runs at most
    ``1 + iterations`` simulations.
    """
    if isinstance(target_pct, bool) or not (
        isinstance(target_pct, numbers.Real)
        and math.isfinite(target_pct)
        and target_pct >= 0
    ):
        raise ExperimentError(
            f"target_pct must be a finite number >= 0, got {target_pct!r}"
        )
    if (
        isinstance(iterations, bool)
        or not isinstance(iterations, numbers.Integral)
        or iterations < 1
    ):
        raise ExperimentError(
            f"iterations must be a positive integer, got {iterations!r}"
        )
    profile, base = ctx.profile(benchmark, scale=scale, seed=seed)
    target = target_pct / 100.0
    lam = 1.0
    best: RunSummary | None = None
    best_err = float("inf")
    for _ in range(iterations):
        schedule = build_offline_schedule(
            profile, MCDConfig(), target_pct, aggressiveness=lam
        )
        spec = SimulationSpec(
            benchmark=benchmark,
            controller=OfflineController(schedule),
            scale=scale,
            seed=seed,
            **CLOCKING_MODES.get("mcd")(),
        )
        summary = summarize(run_spec(spec))
        deg = summary.wall_time_ns / base.wall_time_ns - 1.0
        err = abs(deg - target)
        if best is None or err < best_err:
            best, best_err = summary, err
        if err <= 0.3 * target + 0.002:
            break
        if deg <= 0.0:
            lam = min(lam * 1.8, 3.0)
        else:
            lam = min(3.0, max(0.1, lam * (target / deg) ** 0.7))
    return best


_GLOBAL_NAME = re.compile(r"^global@(\d+(?:\.\d+)?)$")


def _parse_global(name: str) -> dict | None:
    """Parse a ``global@<mhz>`` configuration name."""
    match = _GLOBAL_NAME.match(name)
    if match is None:
        return None
    return {"frequency_mhz": float(match.group(1))}


@register_configuration("global@<mhz>", parse=_parse_global)
def global_configuration(
    ctx, benchmark: str, scale: float, seed: int, frequency_mhz: float
) -> SimulationSpec:
    """Fully synchronous processor at one global frequency.

    Memory latency tracks the global clock (constant in processor
    cycles): the paper's global-DVFS behaviour, see
    :class:`~repro.sim.engine.SimulationSpec`.
    """
    return SimulationSpec(
        benchmark=benchmark,
        global_frequency_mhz=frequency_mhz,
        scale=scale,
        seed=seed,
        **CLOCKING_MODES.get("global")(),
    )
