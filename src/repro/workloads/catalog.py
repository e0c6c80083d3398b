"""The 30-benchmark catalog (paper Table 5).

Each entry is a synthetic stand-in for one benchmark from MediaBench,
Olden or Spec2000, with phases tuned to the application's published
character (instruction mix, locality, branchiness, phase structure).
Simulation windows are scaled from the paper's 5 M–200 M instruction
windows down to 80 k–160 k so a pure-Python cycle simulator can sweep
all 30 applications; the control interval is scaled alongside (500
instructions) so every run still spans hundreds of control intervals —
the quantity that matters for Attack/Decay dynamics.  Aggregation
weights use the paper's instruction counts.

``epic`` is the paper's running case study: its floating-point unit is
idle except for two distinct bursts (Figure 3), and its load/store
behaviour in the middle of the run drives Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.uarch.isa import InstructionClass as IC
from repro.workloads.phases import (
    FP_COMPUTE_MIX,
    INT_COMPUTE_MIX,
    MEMORY_STREAM_MIX,
    POINTER_CHASE_MIX,
    Phase,
)
from repro.workloads.synthetic import SyntheticTrace

#: Scaled control-interval length used with this catalog (paper: 10,000
#: at 5M-200M windows; we keep hundreds of intervals per run).
CATALOG_INTERVAL_INSTRUCTIONS = 500


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: identity, weighting, and its phase script."""

    name: str
    suite: str
    datasets: str
    paper_window: str
    paper_minstructions: float  # weight for suite averages (Section 4)
    phases: tuple[Phase, ...]
    seed: int
    interval_instructions: int = CATALOG_INTERVAL_INSTRUCTIONS

    @property
    def sim_instructions(self) -> int:
        """Scaled simulation window length."""
        return sum(p.instructions for p in self.phases)

    def build_trace(self, scale: float = 1.0, seed_offset: int = 0) -> SyntheticTrace:
        """Instantiate the trace (optionally length-scaled for quick runs)."""
        phases = self.phases
        if scale != 1.0:
            if scale <= 0:
                raise WorkloadError("scale must be positive")
            phases = tuple(p.scaled(scale) for p in phases)
        return SyntheticTrace(list(phases), seed=self.seed + seed_offset)

    def phase_marks(self, scale: float = 1.0) -> list[tuple[str, int]]:
        """Per-phase ``(name, end_instruction)`` boundaries of the built trace.

        The boundaries match :meth:`build_trace` for the same ``scale``
        (cumulative over the scaled phase lengths), so per-phase metric
        attribution (:mod:`repro.metrics.phases`) lines up with the
        instruction stream exactly.
        """
        phases = self.phases
        if scale != 1.0:
            if scale <= 0:
                raise WorkloadError("scale must be positive")
            phases = tuple(p.scaled(scale) for p in phases)
        marks: list[tuple[str, int]] = []
        total = 0
        for phase in phases:
            total += phase.instructions
            marks.append((phase.name, total))
        return marks

    def trace_payload(self, scale: float = 1.0, seed_offset: int = 0) -> dict:
        """JSON-serialisable identity of the trace :meth:`build_trace` makes.

        Everything that determines the generated instruction stream —
        name, seed, scale and the full phase parameterisation — goes
        in, so the compiled-trace store can content-address it.
        """
        from dataclasses import fields

        def phase_dict(phase: Phase) -> dict:
            out = {}
            for f in fields(phase):
                value = getattr(phase, f.name)
                if f.name == "mix":
                    value = {int(k): v for k, v in value.items()}
                out[f.name] = value
            return out

        return {
            "benchmark": self.name,
            "seed": self.seed + seed_offset,
            "scale": scale,
            "phases": [phase_dict(p) for p in self.phases],
        }


def _mix(**overrides: float) -> dict[IC, float]:
    """Build a normalised mix from class-name keyword fractions."""
    raw = {IC[k.upper()]: v for k, v in overrides.items()}
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


def _spec(
    name: str,
    suite: str,
    datasets: str,
    paper_window: str,
    paper_m: float,
    phases: list[Phase],
    seed: int,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        suite=suite,
        datasets=datasets,
        paper_window=paper_window,
        paper_minstructions=paper_m,
        phases=tuple(phases),
        seed=seed,
    )


def _build_catalog() -> dict[str, BenchmarkSpec]:
    specs: list[BenchmarkSpec] = []

    # ----------------------------------------------------------------- Media
    specs.append(
        _spec(
            "adpcm", "MediaBench", "ref encode+decode", "6.6M + 5.5M", 12.1,
            [
                Phase(
                    "dsp", 80_000, INT_COMPUTE_MIX,
                    dep_density=0.60, dep_mean_distance=6.0,
                    working_set_kb=8, stride_fraction=0.85, code_footprint_kb=4,
                    branch_noise=0.01, loop_period=16,
                ),
            ],
            seed=101,
        )
    )
    # epic: the Figure 2/3 case study.  FP idle, burst, idle, burst, idle;
    # the second idle region carries the load/store utilization swings of
    # Figure 2 (alternating streaming and scattering sub-phases).
    epic_idle_mix = _mix(int_alu=0.46, load=0.28, store=0.10, branch=0.16)
    specs.append(
        _spec(
            "epic", "MediaBench", "ref encode+decode", "53M + 6.7M", 59.7,
            [
                Phase("filter_int", 42_000, epic_idle_mix,
                      working_set_kb=96, stride_fraction=0.75, branch_noise=0.03),
                Phase("fp_burst_1", 24_000, FP_COMPUTE_MIX,
                      dep_density=0.55, dep_mean_distance=8.0, working_set_kb=48, stride_fraction=0.8,
                      branch_noise=0.02),
                Phase("mem_swing_hi", 9_000, epic_idle_mix,
                      working_set_kb=512, stride_fraction=0.35, branch_noise=0.03),
                Phase("mem_swing_lo", 9_000, epic_idle_mix,
                      working_set_kb=24, stride_fraction=0.9, branch_noise=0.03),
                Phase("mem_swing_hi2", 9_000, epic_idle_mix,
                      working_set_kb=512, stride_fraction=0.35, branch_noise=0.03),
                Phase("mem_swing_lo2", 9_000, epic_idle_mix,
                      working_set_kb=24, stride_fraction=0.9, branch_noise=0.03),
                Phase("fp_burst_2", 22_000, FP_COMPUTE_MIX,
                      dep_density=0.55, dep_mean_distance=8.0, working_set_kb=48, stride_fraction=0.8,
                      branch_noise=0.02),
                Phase("writeback", 36_000, epic_idle_mix,
                      working_set_kb=128, stride_fraction=0.8, branch_noise=0.03),
            ],
            seed=102,
        )
    )
    specs.append(
        _spec(
            "jpeg", "MediaBench", "ref compress+decompress", "15.5M + 4.6M", 20.1,
            [
                Phase("dct", 50_000,
                      _mix(int_alu=0.44, int_mult=0.06, load=0.26, store=0.10, branch=0.14),
                      working_set_kb=128, stride_fraction=0.7, branch_noise=0.03),
                Phase("huffman", 40_000, INT_COMPUTE_MIX,
                      dep_density=0.65, dep_mean_distance=5.0,
                      working_set_kb=32, branch_noise=0.07, loop_period=6),
            ],
            seed=103,
        )
    )
    specs.append(
        _spec(
            "g721", "MediaBench", "ref encode+decode", "200M + 200M", 400.0,
            [
                Phase("codec", 100_000, INT_COMPUTE_MIX,
                      dep_density=0.65, dep_mean_distance=5.0,
                      working_set_kb=8, code_footprint_kb=4,
                      branch_noise=0.02, loop_period=12),
            ],
            seed=104,
        )
    )
    specs.append(
        _spec(
            "gsm", "MediaBench", "ref encode+decode", "200M + 74M", 274.0,
            [
                Phase("lpc", 100_000,
                      _mix(int_alu=0.50, int_mult=0.08, load=0.22, store=0.08, branch=0.12),
                      dep_density=0.50, dep_mean_distance=8.0,
                      working_set_kb=16, stride_fraction=0.85,
                      branch_noise=0.01, loop_period=32),
            ],
            seed=105,
        )
    )
    specs.append(
        _spec(
            "ghostscript", "MediaBench", "ref", "200M", 200.0,
            [
                Phase("interpret", 60_000, INT_COMPUTE_MIX,
                      working_set_kb=256, stride_fraction=0.4,
                      branch_noise=0.09, loop_period=5, code_footprint_kb=48),
                Phase("render", 40_000,
                      _mix(int_alu=0.42, load=0.28, store=0.14, branch=0.16),
                      working_set_kb=384, stride_fraction=0.7, branch_noise=0.05),
            ],
            seed=106,
        )
    )
    specs.append(
        _spec(
            "mesa_mb", "MediaBench", "ref mipmap+osdemo", "44.7M + 83.4M", 128.1,
            [
                Phase("geometry", 55_000, FP_COMPUTE_MIX,
                      working_set_kb=64, stride_fraction=0.7, branch_noise=0.03),
                Phase("raster", 45_000,
                      _mix(int_alu=0.36, fp_alu=0.12, load=0.28, store=0.12, branch=0.12),
                      working_set_kb=256, stride_fraction=0.8, branch_noise=0.04),
            ],
            seed=107,
        )
    )
    specs.append(
        _spec(
            "mpeg2", "MediaBench", "ref encode+decode", "171M + 200M", 371.0,
            [
                Phase("motion_est", 35_000,
                      _mix(int_alu=0.46, load=0.30, store=0.08, branch=0.16),
                      working_set_kb=256, stride_fraction=0.8, branch_noise=0.04),
                Phase("idct_fp", 30_000, FP_COMPUTE_MIX,
                      working_set_kb=64, stride_fraction=0.8, branch_noise=0.02),
                Phase("motion_comp", 30_000,
                      _mix(int_alu=0.40, load=0.30, store=0.16, branch=0.14),
                      working_set_kb=384, stride_fraction=0.85, branch_noise=0.04),
                Phase("idct_fp2", 25_000, FP_COMPUTE_MIX,
                      working_set_kb=64, stride_fraction=0.8, branch_noise=0.02),
            ],
            seed=108,
        )
    )
    specs.append(
        _spec(
            "pegwit", "MediaBench", "ref key+encrypt+decrypt", "12.3M + 32.4M + 17.7M", 62.4,
            [
                Phase("bignum", 80_000,
                      _mix(int_alu=0.46, int_mult=0.14, load=0.22, store=0.10, branch=0.08),
                      dep_density=0.55, dep_mean_distance=7.0,
                      working_set_kb=16, branch_noise=0.01, loop_period=32),
            ],
            seed=109,
        )
    )

    # ----------------------------------------------------------------- Olden
    specs.append(
        _spec(
            "bh", "Olden", "2048 1", "0-200M", 200.0,
            [
                Phase("tree_build", 25_000, POINTER_CHASE_MIX,
                      working_set_kb=1024, stride_fraction=0.2,
                      far_miss_fraction=0.04, branch_noise=0.06),
                Phase("force_calc", 75_000, FP_COMPUTE_MIX,
                      dep_density=0.55, dep_mean_distance=7.0, working_set_kb=512,
                      stride_fraction=0.4, far_miss_fraction=0.02,
                      branch_noise=0.03),
            ],
            seed=201,
        )
    )
    specs.append(
        _spec(
            "bisort", "Olden", "65000 0", "entire (127M)", 127.0,
            [
                Phase("sort", 80_000, POINTER_CHASE_MIX,
                      dep_density=0.8, dep_mean_distance=3.0,
                      working_set_kb=1536, stride_fraction=0.15,
                      far_miss_fraction=0.02, branch_noise=0.08, loop_period=4),
            ],
            seed=202,
        )
    )
    specs.append(
        _spec(
            "em3d", "Olden", "4000 10", "70M-119M (49M)", 49.0,
            [
                Phase("propagate", 80_000, MEMORY_STREAM_MIX,
                      dep_density=0.55, dep_mean_distance=7.0, working_set_kb=2048,
                      stride_fraction=0.5, far_miss_fraction=0.05,
                      branch_noise=0.02, loop_period=32),
            ],
            seed=203,
        )
    )
    specs.append(
        _spec(
            "health", "Olden", "4 1000 1", "80M-127M (47M)", 47.0,
            [
                Phase("simulate", 80_000, POINTER_CHASE_MIX,
                      dep_density=0.85, dep_mean_distance=2.5,
                      working_set_kb=2048, stride_fraction=0.1,
                      far_miss_fraction=0.04, branch_noise=0.07, loop_period=4),
            ],
            seed=204,
        )
    )
    specs.append(
        _spec(
            "mst", "Olden", "1024 1", "70M-170M (100M)", 100.0,
            [
                Phase("find_min", 80_000, POINTER_CHASE_MIX,
                      working_set_kb=768, stride_fraction=0.25,
                      far_miss_fraction=0.015, branch_noise=0.04, loop_period=8),
            ],
            seed=205,
        )
    )
    specs.append(
        _spec(
            "perimeter", "Olden", "12 1", "0-200M", 200.0,
            [
                Phase("quadtree", 80_000, POINTER_CHASE_MIX,
                      dep_density=0.75, working_set_kb=768,
                      stride_fraction=0.2, far_miss_fraction=0.02,
                      branch_noise=0.10, loop_period=3),
            ],
            seed=206,
        )
    )
    specs.append(
        _spec(
            "power", "Olden", "1 1", "0-200M", 200.0,
            [
                Phase("optimize", 100_000, FP_COMPUTE_MIX,
                      dep_density=0.55, dep_mean_distance=8.0,
                      working_set_kb=64, stride_fraction=0.6,
                      branch_noise=0.02, loop_period=16),
            ],
            seed=207,
        )
    )
    specs.append(
        _spec(
            "treeadd", "Olden", "20 1", "entire (189M)", 189.0,
            [
                Phase("recurse", 80_000,
                      _mix(int_alu=0.40, load=0.32, store=0.10, branch=0.18),
                      dep_density=0.8, dep_mean_distance=3.0,
                      working_set_kb=2048, stride_fraction=0.2,
                      far_miss_fraction=0.035, branch_noise=0.03, loop_period=4),
            ],
            seed=208,
        )
    )
    specs.append(
        _spec(
            "tsp", "Olden", "100000 1", "0-200M", 200.0,
            [
                Phase("tour_fp", 60_000, FP_COMPUTE_MIX,
                      working_set_kb=512, stride_fraction=0.35,
                      far_miss_fraction=0.03, branch_noise=0.04),
                Phase("tour_walk", 40_000, POINTER_CHASE_MIX,
                      working_set_kb=1024, stride_fraction=0.2,
                      far_miss_fraction=0.05, branch_noise=0.05),
            ],
            seed=209,
        )
    )
    specs.append(
        _spec(
            "voronoi", "Olden", "60000 1 0", "0-200M", 200.0,
            [
                Phase("delaunay", 80_000,
                      _mix(int_alu=0.26, fp_alu=0.20, fp_mult=0.08,
                           load=0.26, store=0.08, branch=0.12),
                      working_set_kb=1024, stride_fraction=0.3,
                      far_miss_fraction=0.04, branch_noise=0.06),
            ],
            seed=210,
        )
    )

    # ------------------------------------------------------------- Spec INT
    specs.append(
        _spec(
            "bzip2", "Spec2000 INT", "source 58", "1000M-1100M", 100.0,
            [
                Phase("compress", 100_000, INT_COMPUTE_MIX,
                      dep_density=0.60, dep_mean_distance=7.0, working_set_kb=512,
                      stride_fraction=0.6, far_miss_fraction=0.01,
                      branch_noise=0.06, loop_period=6),
            ],
            seed=301,
        )
    )
    # gcc: the memory-bound initialization phase the paper analyses (80 %
    # of instructions are memory references missing to main memory)
    # followed by a branchy, highly predictable compile phase (99 %).
    specs.append(
        _spec(
            "gcc", "Spec2000 INT", "166.i", "2000M-2100M", 100.0,
            [
                Phase("mem_init", 40_000,
                      _mix(int_alu=0.14, load=0.55, store=0.25, branch=0.06),
                      dep_density=0.5, working_set_kb=8192,
                      stride_fraction=0.55, far_miss_fraction=0.25,
                      branch_noise=0.002, loop_period=64),
                Phase("compile", 80_000, INT_COMPUTE_MIX,
                      working_set_kb=384, stride_fraction=0.4,
                      branch_noise=0.015, loop_period=8, code_footprint_kb=96),
            ],
            seed=302,
        )
    )
    specs.append(
        _spec(
            "gzip", "Spec2000 INT", "source 60", "1000M-1100M", 100.0,
            [
                Phase("deflate", 100_000, INT_COMPUTE_MIX,
                      dep_density=0.55, dep_mean_distance=7.0,
                      working_set_kb=256, stride_fraction=0.65,
                      branch_noise=0.05, loop_period=6),
            ],
            seed=303,
        )
    )
    specs.append(
        _spec(
            "mcf", "Spec2000 INT", "ref", "1000M-1100M", 100.0,
            [
                Phase("simplex", 100_000, POINTER_CHASE_MIX,
                      dep_density=0.80, dep_mean_distance=3.0,
                      working_set_kb=6144, stride_fraction=0.1,
                      far_miss_fraction=0.09, branch_noise=0.30, loop_period=4),
            ],
            seed=304,
        )
    )
    specs.append(
        _spec(
            "parser", "Spec2000 INT", "ref", "1000M-1100M", 100.0,
            [
                Phase("parse", 100_000, INT_COMPUTE_MIX,
                      working_set_kb=128, stride_fraction=0.35,
                      branch_noise=0.11, loop_period=3, code_footprint_kb=64),
            ],
            seed=305,
        )
    )
    specs.append(
        _spec(
            "vortex", "Spec2000 INT", "ref", "1000M-1100M", 100.0,
            [
                Phase("oodb", 100_000,
                      _mix(int_alu=0.42, load=0.28, store=0.14, branch=0.16),
                      working_set_kb=1024, stride_fraction=0.45,
                      far_miss_fraction=0.02, branch_noise=0.04,
                      code_footprint_kb=128),
            ],
            seed=306,
        )
    )
    specs.append(
        _spec(
            "vpr", "Spec2000 INT", "ref", "1000M-1100M", 100.0,
            [
                Phase("place", 55_000,
                      _mix(int_alu=0.36, fp_alu=0.10, load=0.26, store=0.10, branch=0.18),
                      working_set_kb=512, stride_fraction=0.35,
                      branch_noise=0.08, loop_period=5),
                Phase("route", 45_000, POINTER_CHASE_MIX,
                      working_set_kb=1024, stride_fraction=0.3,
                      far_miss_fraction=0.03, branch_noise=0.06),
            ],
            seed=307,
        )
    )

    # -------------------------------------------------------------- Spec FP
    specs.append(
        _spec(
            "art", "Spec2000 FP", "ref", "300M-400M", 100.0,
            [
                Phase("train_f1", 100_000, MEMORY_STREAM_MIX,
                      dep_density=0.48, dep_mean_distance=9.0, working_set_kb=3072,
                      stride_fraction=0.75, far_miss_fraction=0.05,
                      branch_noise=0.01, loop_period=64),
            ],
            seed=401,
        )
    )
    specs.append(
        _spec(
            "equake", "Spec2000 FP", "ref", "1000M-1100M", 100.0,
            [
                Phase("smvp", 100_000,
                      _mix(int_alu=0.20, fp_alu=0.26, fp_mult=0.10,
                           load=0.30, store=0.08, branch=0.06),
                      dep_density=0.50, dep_mean_distance=9.0, working_set_kb=2048,
                      stride_fraction=0.55, far_miss_fraction=0.04,
                      branch_noise=0.02, loop_period=32),
            ],
            seed=402,
        )
    )
    specs.append(
        _spec(
            "mesa_fp", "Spec2000 FP", "ref", "1000M-1100M", 100.0,
            [
                Phase("shade", 100_000, FP_COMPUTE_MIX,
                      dep_density=0.55, dep_mean_distance=8.0, working_set_kb=128,
                      stride_fraction=0.7, branch_noise=0.02, loop_period=16),
            ],
            seed=403,
        )
    )
    specs.append(
        _spec(
            "swim", "Spec2000 FP", "ref", "1000M-1100M", 100.0,
            [
                Phase("stencil", 100_000,
                      _mix(int_alu=0.16, fp_alu=0.30, fp_mult=0.12,
                           load=0.30, store=0.10, branch=0.02),
                      dep_density=0.45, dep_mean_distance=10.0, working_set_kb=6144,
                      stride_fraction=0.9, stride_bytes=8,
                      far_miss_fraction=0.06, branch_noise=0.005,
                      loop_period=128),
            ],
            seed=404,
        )
    )

    return {spec.name: spec for spec in specs}


#: All thirty benchmarks, keyed by name.
BENCHMARKS: dict[str, BenchmarkSpec] = _build_catalog()

#: Runtime registrations beyond Table 5: the derived scenario catalog
#: (:mod:`repro.workloads.derived`, loaded lazily) plus anything the
#: session registers (imported external traces, ad-hoc compositions).
_EXTRA_BENCHMARKS: dict[str, BenchmarkSpec] = {}
_derived_loaded = False


def _load_derived() -> None:
    """Populate the registry with the derived catalog (idempotent).

    The loaded flag is only set once the import *succeeds*: a failed
    load (an error in a derived composition) surfaces on every call
    rather than leaving the registry silently partial.  Re-entrant
    calls during the import itself are satisfied from ``sys.modules``.
    """
    global _derived_loaded
    if not _derived_loaded:
        # Imported for its registration side effect; the module calls
        # register_benchmark for every derived scenario.
        import repro.workloads.derived  # noqa: F401

        _derived_loaded = True


def register_benchmark(spec: BenchmarkSpec, replace: bool = False) -> BenchmarkSpec:
    """Register a runnable workload under its name.

    Anything with the :class:`BenchmarkSpec` surface (``build_trace``,
    ``trace_payload``, ``phase_marks``, ``interval_instructions``)
    qualifies — composed specs from :mod:`repro.workloads.algebra`,
    imported external traces (:mod:`repro.uarch.etf`).  Table 5 and
    derived-catalog names are reserved; re-registering another name
    requires ``replace``.
    """
    name = spec.name
    if name in BENCHMARKS:
        raise WorkloadError(f"cannot shadow catalog benchmark {name!r}")
    # Resolve the derived catalog first so its names are claimed before
    # any runtime registration can squat on them (during the derived
    # import itself this is satisfied from sys.modules and the in-flight
    # entries land below, marked replaceable).
    _load_derived()
    if name in _EXTRA_BENCHMARKS and not replace:
        raise WorkloadError(f"benchmark {name!r} is already registered")
    _EXTRA_BENCHMARKS[name] = spec
    return spec


def all_benchmarks() -> dict[str, BenchmarkSpec]:
    """Every runnable workload: catalog, derived, and registered."""
    _load_derived()
    return {**BENCHMARKS, **_EXTRA_BENCHMARKS}


def runtime_benchmark_snapshot() -> dict[str, BenchmarkSpec]:
    """The workloads registered at runtime (derived catalog excluded).

    The Table 5 catalog and the derived catalog re-materialise from
    imports in any process; only these entries are process-local state
    a spawn-context orchestrator worker would otherwise miss.
    """
    _load_derived()
    from repro.workloads.derived import DERIVED_BENCHMARKS

    return {
        name: spec
        for name, spec in _EXTRA_BENCHMARKS.items()
        if name not in DERIVED_BENCHMARKS
    }


def restore_runtime_benchmarks(snapshot: dict[str, BenchmarkSpec]) -> None:
    """Re-register a :func:`runtime_benchmark_snapshot` in this process.

    ``replace=True`` keeps the restore idempotent under fork (where the
    entries are inherited and already present).
    """
    for spec in snapshot.values():
        register_benchmark(spec, replace=True)


def is_known_benchmark(name: str) -> bool:
    """Whether ``name`` resolves to a runnable workload."""
    if name in BENCHMARKS:
        return True
    _load_derived()
    return name in _EXTRA_BENCHMARKS


def benchmark_names(suite: str | None = None) -> list[str]:
    """Names of the Table 5 benchmarks, optionally filtered by suite prefix.

    Derived and registered workloads are intentionally excluded — the
    paper's tables and suite averages cover the catalog only.  Use
    :func:`all_benchmarks` for the full runnable namespace.
    """
    if suite is None:
        return list(BENCHMARKS)
    return [n for n, s in BENCHMARKS.items() if s.suite.startswith(suite)]


def get_catalog_benchmark(name: str) -> BenchmarkSpec:
    """Look up a Table 5 entry only (no derived/registered names)."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise WorkloadError(f"unknown benchmark {name!r}; known: {known}") from None


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up any runnable workload; raises :class:`WorkloadError` if unknown.

    Resolution order: the Table 5 catalog, then the derived scenario
    catalog and runtime registrations (:func:`register_benchmark`).
    """
    spec = BENCHMARKS.get(name)
    if spec is not None:
        return spec
    _load_derived()
    spec = _EXTRA_BENCHMARKS.get(name)
    if spec is not None:
        return spec
    known = ", ".join(sorted(BENCHMARKS) + sorted(_EXTRA_BENCHMARKS))
    raise WorkloadError(f"unknown benchmark {name!r}; known: {known}") from None
