"""The derived scenario catalog: stressors composed with the algebra.

Importing this module registers ~24 derived benchmarks (five families)
with the workload registry, so ``get_benchmark`` resolves them and they
run anywhere a catalog entry runs — ``python -m repro sweep``, the
orchestrator, the compiled-trace store, both core paths.

Families
--------
``memory_wall``
    Sustained or alternating main-memory pressure: big working sets,
    far misses, low stride locality.  Stresses the load/store domain's
    deviation signal and the controller's endstop behaviour.
``branch_storm``
    Prediction-hostile streams and predictable/hostile alternation.
    Misprediction stalls starve the issue queues, driving frequencies
    down; recovery exercises attack mode.
``phase_thrash``
    Rapid behaviour alternation via ``interleave`` — phase changes per
    unit time far above any Table 5 entry, the controller's worst case.
``idle_burst``
    The Figure 3 shape generalised: long unit-idle regions with short
    bursts spliced in (floating-point into integer codecs and vice
    versa), exercising decay-to-endstop and re-attack.
``adversarial``
    Attack/Decay-specific traps: transitions aligned to the control
    interval, sawtooth demand at the regulator's slew rate scale,
    perturbed near-stationary noise floors.

All entries are deterministic: composition parameters and seeds are
fixed here, and the resulting phase scripts content-address into the
compiled-trace store exactly like hand-written entries.
"""

from __future__ import annotations

from repro.workloads import algebra
from repro.workloads.catalog import (
    BenchmarkSpec,
    get_catalog_benchmark,
    register_benchmark,
)

__all__ = ["DERIVED_BENCHMARKS", "derived_names"]


def _build_derived() -> dict[str, BenchmarkSpec]:
    a = algebra
    g = get_catalog_benchmark
    specs: list[BenchmarkSpec] = []

    # ------------------------------------------------------------ memory wall
    # Sustained pressure: pointer-chasing simplex joined to streaming FP.
    specs.append(
        a.concat(
            a.scale(g("mcf"), 0.5), a.scale(g("art"), 0.5), name="memory_wall"
        )
    )
    # Alternating pressure: the L2-resident/streaming boundary every 3k.
    specs.append(
        a.interleave(
            a.scale(g("mcf"), 0.4),
            a.scale(g("swim"), 0.4),
            quantum=3000,
            name="memory_wall_thrash",
        )
    )
    # gcc's paper-analysed memory-bound init spliced into a codec.
    specs.append(
        a.splice(g("gsm"), a.scale(g("gcc"), 0.25), at=50_000, name="memory_wall_burst")
    )
    # em3d pushed toward uniform far misses.
    specs.append(
        a.perturb(g("em3d"), seed=11, strength=0.45, name="far_miss_storm")
    )
    specs.append(
        a.repeat(a.scale(g("health"), 0.35), 3, name="memory_wall_chase")
    )

    # ----------------------------------------------------------- branch storm
    # Prediction-hostile from two directions at once.
    specs.append(
        a.interleave(
            a.scale(g("parser"), 0.5),
            a.scale(g("mcf"), 0.5),
            quantum=2000,
            name="branch_storm",
        )
    )
    # Predictable -> hostile -> predictable: accuracy whiplash.
    specs.append(
        a.concat(
            a.scale(g("gsm"), 0.3),
            a.scale(g("parser"), 0.4),
            a.scale(g("gsm"), 0.3),
            name="branch_flip",
        )
    )
    specs.append(
        a.perturb(g("perimeter"), seed=23, strength=0.5, name="branch_storm_wild")
    )
    specs.append(
        a.repeat(a.scale(g("vpr"), 0.4), 2, name="branch_storm_cycle")
    )

    # ----------------------------------------------------------- phase thrash
    # Integer DSP against FP stencil at 1k-instruction quanta: phase
    # changes two orders of magnitude denser than any catalog entry.
    specs.append(
        a.interleave(
            a.scale(g("adpcm"), 0.5),
            a.scale(g("swim"), 0.4),
            quantum=1000,
            name="phase_thrash",
        )
    )
    # The Figure 2/3 case study looped at quarter length.
    specs.append(
        a.repeat(a.scale(g("epic"), 0.25), 4, name="phase_thrash_epic")
    )
    # One pass through all four suite characters.
    specs.append(
        a.concat(
            a.scale(g("adpcm"), 0.3),
            a.scale(g("art"), 0.25),
            a.scale(g("parser"), 0.25),
            a.scale(g("swim"), 0.25),
            name="phase_tour",
        )
    )
    specs.append(
        a.interleave(
            a.scale(g("epic"), 0.4),
            a.scale(g("mcf"), 0.4),
            quantum=2500,
            name="phase_thrash_mem",
        )
    )

    # ------------------------------------------------------------- idle burst
    # Short FP bursts inside a long integer codec: FP domain sits at
    # the endstop, must re-attack twice.
    mesa_burst = a.scale(g("mesa_fp"), 0.12)
    specs.append(
        a.splice(
            a.splice(g("g721"), mesa_burst, at=30_000),
            mesa_burst,
            at=90_000,
            name="idle_burst_fp",
        )
    )
    # Short pointer-chase bursts inside straight-line crypto.
    specs.append(
        a.splice(
            g("pegwit"), a.scale(g("mst"), 0.15), at=40_000, name="idle_burst_ls"
        )
    )
    # A single burst very late in the run (decay has fully converged).
    specs.append(
        a.splice(
            g("gzip"), a.scale(g("equake"), 0.15), at=85_000, name="idle_burst_late"
        )
    )
    specs.append(
        a.repeat(
            a.splice(a.scale(g("g721"), 0.3), a.scale(g("mesa_fp"), 0.08), at=15_000),
            3,
            name="idle_burst_train",
        )
    )

    # ------------------------------------------------------------ adversarial
    # Behaviour flips every 500 instructions — exactly the catalog
    # control interval, so every interval's statistics straddle a
    # transition and the deviation signal is maximally aliased.
    specs.append(
        a.interleave(
            a.scale(g("adpcm"), 0.4),
            a.scale(g("art"), 0.3),
            quantum=500,
            name="adv_interval_alias",
        )
    )
    # Sawtooth: demand rises and collapses six times.
    specs.append(
        a.repeat(
            a.concat(a.scale(g("swim"), 0.12), a.scale(g("g721"), 0.12)),
            6,
            name="adv_sawtooth",
        )
    )
    # Near-stationary with a jittered noise floor: decay should win,
    # any attack is a controller false positive.
    specs.append(
        a.perturb(g("g721"), seed=41, strength=0.12, name="adv_noise_floor")
    )
    # Long decay then a demand step, repeated with opposite senses.
    specs.append(
        a.concat(
            a.scale(g("g721"), 0.6),
            a.scale(g("swim"), 0.35),
            a.scale(g("mcf"), 0.25),
            name="adv_decay_trap",
        )
    )
    # Thrash between the regulator's two frequency extremes.
    specs.append(
        a.interleave(
            a.scale(g("swim"), 0.35),
            a.scale(g("parser"), 0.35),
            quantum=1500,
            name="adv_slew_thrash",
        )
    )
    # A perturbed epic family member: same shape, different statistics.
    specs.append(
        a.perturb(g("epic"), seed=7, strength=0.3, name="adv_epic_variant")
    )
    # Double splice with interval-scale bursts.
    specs.append(
        a.splice(
            a.scale(g("bzip2"), 0.8),
            a.scale(g("art"), 0.05),
            at=40_000,
            name="adv_microburst",
        )
    )

    return {spec.name: spec for spec in specs}


#: All derived scenarios, keyed by name.
DERIVED_BENCHMARKS: dict[str, BenchmarkSpec] = _build_derived()


def derived_names() -> list[str]:
    """Names of every derived scenario, sorted."""
    return sorted(DERIVED_BENCHMARKS)


# replace=True keeps the registration idempotent if a failed first
# import is retried (the loader only latches success; see
# catalog._load_derived) — derived names cannot be squatted beforehand
# because register_benchmark resolves this module first.
for _spec in DERIVED_BENCHMARKS.values():
    register_benchmark(_spec, replace=True)
