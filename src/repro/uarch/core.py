"""The four-domain out-of-order core (cycle-approximate, trace-driven).

The simulator advances wall-clock time (nanoseconds) by always
processing the earliest pending clock edge among the *active* domains.
Per edge it performs that domain's work for one cycle:

* **front end** — retire from the ROB head (completions must be
  *visible* across the domain boundary), then fetch/rename/dispatch up
  to the decode width into the ROB and the issue queues, consulting the
  real L1 I-cache and branch predictor (a mispredicted branch stalls
  fetch until it resolves plus the mispredict penalty);
* **integer / floating-point / load-store** — scan the domain's issue
  queue oldest-first and issue ready entries to free functional units;
  loads probe the real L1D/L2 hierarchy.

Cross-domain transfers (dispatched queue entries, operand results,
completion signals) are usable at the first consumer edge at least a
*crossing threshold* after they were produced.  Under MCD the threshold
is the Sjogren-Myers synchronization window; in the fully synchronous
baseline, whose domain clocks share phase exactly, a half-period guard
band makes the rule degenerate to the classic next-edge pipeline stage.
The *inherent* MCD degradation (paper: ~1.3 %) is therefore an output
of the model — random clock phases plus jitter plus window conflicts —
rather than an input.

Same-domain dependencies are tracked in integer cycles (jitter cannot
change a latency expressed in cycles); cross-domain dependencies are
tracked in nanoseconds and pay the synchronization window.

Domains with an empty issue queue are *inactive*: their clocks are
bulk-advanced (and their gated idle energy bulk-charged) at dispatch
and at control-interval boundaries, preserving all observable behaviour
at a fraction of the cost.

The run loop is deliberately monolithic and hand-inlined: this is the
innermost loop of every experiment in the repository, executed hundreds
of millions of times across the benchmark harness.  The structure
classes it works on (issue queues, ROB, register files, functional-unit
pools, domain clocks, energy meters) hold state and validate their
construction; each machine rule — dispatch, issue, retirement, the
crossing window, conditional clocking, energy charging — is written
once per interpreter, in the loop.  The Python side of a
control-interval boundary (observables, controller, regulators,
interval record) is one method, :meth:`MCDCore._end_interval`, which
both interpreters call.

The loop exists in two forms that produce byte-identical results, and
the trace a core is built over picks one:

* the **reference interpreter** consumes a generator
  :class:`~repro.uarch.trace.TraceStream` one instruction at a time
  through a :class:`~repro.uarch.frontend.TraceCursor`;
* the **native loop** (``_hotpath.c``, see :mod:`repro.uarch.native`)
  runs when the core is built over a
  :class:`~repro.uarch.compiled_trace.CompiledTrace`:
  :meth:`MCDCore.native_marshal` hands it the trace's numpy columns
  plus this core's state, and folds the results back.  Every
  observable event (cache/predictor state, jitter stream consumption,
  energy accumulation order, interval boundaries) is sequenced exactly
  as in the reference interpreter, which the equivalence property tests
  and ``benchmarks/bench_control_loop.py`` both verify.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.clocks.domain_clock import DomainClock
from repro.clocks.jitter import GaussianJitter, NoJitter
from repro.config.algorithm import AttackDecayParams
from repro.config.mcd import Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.control.base import (
    CORE_DOMAIN_INDEX,
    CORE_DOMAINS,
    FrequencyController,
    IntervalSnapshot,
    interval_observables,
)
from repro.dvfs.regulator import VoltageFrequencyRegulator
from repro.errors import SimulationError
from repro.power.accounting import EnergyAccounting
from repro.power.wattch import AccessEnergies, DEFAULT_ENERGIES
from repro.uarch.branch_predictor import CombiningBranchPredictor
from repro.uarch.caches import CacheHierarchy, MemoryLevel
from repro.uarch.compiled_trace import CompiledTrace
from repro.uarch.frontend import TraceCursor
from repro.uarch.functional_units import build_pools
from repro.uarch.isa import (
    DEST_REGISTER_TYPE,
    ISSUE_DOMAIN_INDEX,
    NUM_CLASSES,
    InstructionClass,
)
from repro.uarch.queues import IssueQueue, RegisterFile, ReorderBuffer
from repro.uarch.trace import TraceStream

_INF = float("inf")
_EPS_NS = 1e-6
_RING = 2048
_RING_MASK = _RING - 1

# Domain indices used throughout the hot loop.
_FE, _INT, _FP, _LS = 0, 1, 2, 3
_DOMAINS = CORE_DOMAINS
_DOMAIN_INDEX = CORE_DOMAIN_INDEX

# Destination register type per instruction class (0 int, 1 fp, -1 none)
# and issue domain index per class.  The native loop derives both per
# instruction from the same tables, handed over as NUM_CLASSES-entry
# arrays.
_DEST_TYPE = dict(DEST_REGISTER_TYPE)
_ISSUE_DOMAIN = dict(ISSUE_DOMAIN_INDEX)
_DEST_TABLE = array("q", (_DEST_TYPE[kind] for kind in range(NUM_CLASSES)))
_DOMAIN_TABLE = array("q", (_ISSUE_DOMAIN[kind] for kind in range(NUM_CLASSES)))


def _no_unit_error(kind: int) -> SimulationError:
    """The error for a run whose trace holds ``kind`` with no unit to run it."""
    domain = _DOMAINS[_ISSUE_DOMAIN[kind]].value
    return SimulationError(
        f"the trace holds {InstructionClass(kind).name} instructions, but the "
        f"{domain} domain has no functional unit for them"
    )


def _load_native():
    """The native extension a compiled-trace core needs, or SimulationError."""
    from repro.uarch.native import load_hotpath

    hotpath = load_hotpath()
    if hotpath is None:
        raise SimulationError(
            "a compiled-trace core needs the native loop, but the "
            "extension is unavailable; build the core over a generator "
            "trace instead"
        )
    return hotpath


@dataclass(frozen=True)
class CoreOptions:
    """Run-level switches for the core.

    Parameters
    ----------
    mcd:
        True: independent domain clocks with jitter, synchronization
        windows and the MCD clock-energy overhead.  False: the fully
        synchronous baseline (single phase-aligned clock, no windows,
        no overhead).
    seed:
        Seed for clock phases and jitter streams; read only under MCD
        clocking, so a synchronous core may leave it None.
    interval_instructions:
        Control interval length (retired instructions).
    record_interval_trace:
        Keep a per-interval log of queue utilizations and frequencies
        (Figures 2 and 3).
    initial_frequencies_mhz:
        Starting frequency per domain (defaults to maximum everywhere —
        the baseline MCD operating point).
    """

    mcd: bool = True
    seed: int | None = 1
    interval_instructions: int = AttackDecayParams().interval_instructions
    record_interval_trace: bool = False
    initial_frequencies_mhz: dict[Domain, float] | None = None


@dataclass
class IntervalRecord:
    """One control interval's observables (for figure benches).

    ``energy`` and ``memory_accesses`` are *cumulative* run totals at
    the interval's end edge (chip energy including off-chip accesses),
    sampled identically by both execution paths; per-phase metric
    attribution (:mod:`repro.metrics.phases`) differences them.
    """

    index: int
    end_instruction: int
    end_time_ns: float
    ipc: float
    queue_utilization: dict[Domain, float]
    frequencies_mhz: dict[Domain, float]
    energy: float = 0.0
    memory_accesses: int = 0


@dataclass
class CoreResult:
    """Everything measured during one run."""

    instructions: int
    wall_time_ns: float
    energy: float
    clock_energy: float
    domain_energy: dict[Domain, float]
    domain_busy_cycles: dict[Domain, int]
    domain_cycles: dict[Domain, int]
    final_frequencies_mhz: dict[Domain, float]
    l1i_miss_rate: float
    l1d_miss_rate: float
    l2_miss_rate: float
    branch_accuracy: float
    branch_lookups: int
    memory_accesses: int
    dispatch_stall_cycles: int
    intervals: list[IntervalRecord] = field(default_factory=list)

    @property
    def cpi(self) -> float:
        """Cycles per instruction referenced to the 1 GHz front-end clock."""
        if not self.instructions:
            return 0.0
        return self.wall_time_ns / self.instructions

    @property
    def epi(self) -> float:
        """Energy per instruction (energy units / instruction)."""
        if not self.instructions:
            return 0.0
        return self.energy / self.instructions

    @property
    def power(self) -> float:
        """Average power (energy units per ns)."""
        if self.wall_time_ns <= 0:
            return 0.0
        return self.energy / self.wall_time_ns

    @property
    def energy_delay_product(self) -> float:
        """Energy x delay."""
        return self.energy * self.wall_time_ns


class MCDCore:
    """One run of the MCD pipeline over a trace.

    Parameters
    ----------
    processor:
        Architectural parameters (Table 4).
    mcd_config:
        Electrical parameters (Table 1).
    trace:
        The dynamic instruction stream — either a generator
        :class:`~repro.uarch.trace.TraceStream` (reference interpreter)
        or a :class:`~repro.uarch.compiled_trace.CompiledTrace` (native
        loop; byte-identical results).
    controller:
        Optional frequency controller invoked every interval; None
        leaves all domains at their initial frequencies.
    options:
        Run-level switches.
    energies:
        Per-access energy calibration.
    """

    def __init__(
        self,
        processor: ProcessorConfig,
        mcd_config: MCDConfig,
        trace: TraceStream | CompiledTrace,
        controller: FrequencyController | None = None,
        options: CoreOptions = CoreOptions(),
        energies: AccessEnergies = DEFAULT_ENERGIES,
    ) -> None:
        self.processor = processor
        self.mcd_config = mcd_config
        self.controller = controller
        self.options = options
        self.energies = energies
        self.compiled = trace if isinstance(trace, CompiledTrace) else None
        self.cursor = None if self.compiled is not None else TraceCursor(trace)
        self.total_instructions = trace.total_instructions
        self.hierarchy = CacheHierarchy(processor)
        self.predictor = CombiningBranchPredictor(processor)
        self.accounting = EnergyAccounting(
            mcd_config, energies, mcd_clocking=options.mcd
        )
        self._build_clock_domains()
        self._build_pipeline()
        self._build_energy_constants()
        self._build_latency_tables()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_clock_domains(self) -> None:
        cfg = self.mcd_config
        opts = self.options
        fmax = cfg.max_frequency_mhz
        initial = opts.initial_frequencies_mhz or {}
        if opts.mcd:
            import random

            phase_rng = random.Random(opts.seed)
            self.window_ns = cfg.sync_window_ns
            jitters = [
                GaussianJitter(cfg.jitter_sigma_ns, seed=opts.seed * 7919 + i)
                for i in range(4)
            ]
            phases = [phase_rng.uniform(0.0, cfg.min_period_ns) for _ in range(4)]
        else:
            self.window_ns = 0.0
            jitters = [NoJitter() for _ in range(4)]
            phases = [0.0] * 4
        self.clocks: list[DomainClock] = []
        self.regulators: list[VoltageFrequencyRegulator] = []
        for i, domain in enumerate(_DOMAINS):
            mhz = initial.get(domain, fmax)
            self.clocks.append(DomainClock(domain.value, mhz, jitters[i], phases[i]))
            self.regulators.append(VoltageFrequencyRegulator(cfg, mhz))

    def _build_pipeline(self) -> None:
        proc = self.processor
        self.rob = ReorderBuffer(proc.reorder_buffer_size)
        self.int_regs = RegisterFile(proc.int_physical_registers)
        self.fp_regs = RegisterFile(proc.fp_physical_registers)
        self.queues = [
            None,
            IssueQueue("IIQ", proc.int_issue_queue_size),
            IssueQueue("FIQ", proc.fp_issue_queue_size),
            IssueQueue("LSQ", proc.load_store_queue_size),
        ]
        pools = build_pools(proc)
        self.pools = [
            None,
            pools["integer"],
            pools["floating_point"],
            pools["load_store"],
        ]
        # Completion tracking rings.
        self.fin_ns = [-_INF] * _RING
        self.fin_cycle = [0] * _RING
        self.fin_domain = [-1] * _RING
        self.dest_type_ring = [-1] * _RING

    def _build_energy_constants(self) -> None:
        e = self.energies
        self._e_dispatch = e.rename_dispatch_per_instruction + e.rob_write
        self._e_fetch = e.fetch_per_instruction
        self._e_retire = e.retire_per_instruction
        self._e_l1i = e.l1i_access
        self._e_bpred = e.branch_predictor_lookup
        # Per issue-domain: (queue write, queue issue+regfile, simple op, complex op)
        self._e_issue = [
            None,
            (e.iq_write, e.iq_issue + e.int_regfile_access, e.int_alu_op, e.int_mult_op),
            (e.fq_write, e.fq_issue + e.fp_regfile_access, e.fp_alu_op, e.fp_mult_op),
            (e.lsq_write, e.lsq_issue, e.l1d_access, e.l1d_access),
        ]
        self._e_l2 = e.l2_access

    def _build_latency_tables(self) -> None:
        proc = self.processor
        self._lat_cycles = [0] * 8
        self._lat_cycles[int(InstructionClass.INT_ALU)] = proc.int_alu_latency
        self._lat_cycles[int(InstructionClass.INT_MULT)] = proc.int_mult_latency
        self._lat_cycles[int(InstructionClass.FP_ALU)] = proc.fp_alu_latency
        self._lat_cycles[int(InstructionClass.FP_MULT)] = proc.fp_mult_latency
        self._lat_cycles[int(InstructionClass.LOAD)] = proc.l1_latency_cycles
        self._lat_cycles[int(InstructionClass.STORE)] = 1
        self._lat_cycles[int(InstructionClass.BRANCH)] = proc.int_alu_latency
        self._complex = [False] * 8
        self._complex[int(InstructionClass.INT_MULT)] = True
        self._complex[int(InstructionClass.FP_MULT)] = True
        # Classes no unit of their issue domain can execute (a complex op
        # in a domain without complex units): a run meeting one raises.
        self._unexecutable = [
            kind
            for kind, d in _ISSUE_DOMAIN.items()
            if self._complex[kind] and not self.pools[d].complex_units
        ]

    # ------------------------------------------------------------------
    def warm_up(self, trace: TraceStream | CompiledTrace, limit: int) -> int:
        """Pre-touch predictor and caches with the first ``limit`` instructions.

        The paper's simulation windows sample the middle of long runs
        (e.g. instructions 1000 M-1100 M), where predictors and caches
        are warm.  This replays the head of ``trace`` through the
        predictor and cache models only (no pipeline timing), then
        resets their statistics so reported rates cover the measured
        region.  Replays and returns ``max(0, min(limit, n))``
        instructions.

        A :class:`~repro.uarch.compiled_trace.CompiledTrace` is replayed
        by the native extension (``_hotpath.warm_up``) and raises
        :class:`~repro.errors.SimulationError` when it is unavailable;
        a generator trace is replayed block by block here, the
        reference both are tested against.  Both leave identical
        predictor/cache state behind.
        """
        from repro.uarch.branch_predictor import BranchStats
        from repro.uarch.caches import CacheStats

        hierarchy = self.hierarchy
        predictor = self.predictor
        if isinstance(trace, CompiledTrace):
            count = _load_native().warm_up(
                {**self._hotpath_args(trace), "limit": limit}
            )
        else:
            line_shift = hierarchy.l1i.line_shift
            last_line = -1
            kind_branch = int(InstructionClass.BRANCH)
            kind_load = int(InstructionClass.LOAD)
            kind_store = int(InstructionClass.STORE)
            count = 0
            for block in trace.blocks():
                kinds = block.kinds
                pcs = block.pcs
                addrs = block.addrs
                taken = block.taken
                targets = block.targets
                for i in range(len(kinds)):
                    if count >= limit:
                        break
                    line = pcs[i] >> line_shift
                    if line != last_line:
                        last_line = line
                        hierarchy.instruction_access(pcs[i])
                    kind = kinds[i]
                    if kind == kind_branch:
                        predictor.access(pcs[i], taken[i], targets[i])
                    elif kind == kind_load or kind == kind_store:
                        hierarchy.data_access(addrs[i])
                    count += 1
                if count >= limit:
                    break
        predictor.stats = BranchStats()
        hierarchy.l1i.stats = CacheStats()
        hierarchy.l1d.stats = CacheStats()
        hierarchy.l2.stats = CacheStats()
        return count

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def _operating_point_tables(self):
        """One-time per-run setup shared by every execution path.

        Returns ``(vscale_params, vscale_of, clock_e, idle_e,
        simple_w, complex_w)``: the linear voltage map's constants
        ``(vmin, fmin, vslope, vmax_sq_inv)``, the frequency →
        (V/Vmax)² scale function built on them, the per-domain
        busy/idle cycle energies, and the functional-unit widths.
        Centralised so the byte-identical run paths cannot drift.
        """
        cfg = self.mcd_config
        vmin = cfg.min_voltage_v
        fmin = cfg.min_frequency_mhz
        vslope = (cfg.max_voltage_v - vmin) / (cfg.max_frequency_mhz - fmin)
        vmax_sq_inv = 1.0 / (cfg.max_voltage_v * cfg.max_voltage_v)

        def vscale_of(freq_mhz: float) -> float:
            v = vmin + (freq_mhz - fmin) * vslope
            return v * v * vmax_sq_inv

        acct = self.accounting
        clock_e = [acct.clock_cycle_energy(dom) for dom in _DOMAINS]
        idle_e = [acct.idle_cycle_energy(dom) for dom in _DOMAINS]
        simple_w = [0] + [self.pools[i].simple_units for i in (1, 2, 3)]
        complex_w = [0] + [self.pools[i].complex_units for i in (1, 2, 3)]
        return (
            (vmin, fmin, vslope, vmax_sq_inv),
            vscale_of,
            clock_e,
            idle_e,
            simple_w,
            complex_w,
        )

    def run(self) -> CoreResult:
        """Simulate the whole trace and return the measurements.

        The trace type decides the interpreter: a core built over a
        compiled trace runs the native loop (see
        :mod:`repro.uarch.native`) and raises
        :class:`~repro.errors.SimulationError` when the extension is
        unavailable; a core built over a generator trace runs the
        reference interpreter.  Both produce byte-identical results.
        """
        if self.compiled is None:
            return self._run_generator()
        hotpath = _load_native()
        args, finish = self.native_marshal()
        return finish(hotpath.run_compiled(args))

    def _hotpath_args(self, comp: CompiledTrace) -> dict:
        """The argument-dict entries every ``_hotpath`` entry reads.

        The trace's seven base columns (read-only; each entry checks
        their dtypes and ranges), the geometry, and this core's cache,
        predictor and BTB buffers, which the C side reads and updates
        in place.
        """
        l1i, l1d, l2 = self.hierarchy.l1i, self.hierarchy.l1d, self.hierarchy.l2
        predictor = self.predictor
        btb = predictor.btb
        columns = comp.arrays
        return {
            "kinds": columns["kinds"],
            "src1": columns["src1"],
            "src2": columns["src2"],
            "pcs": columns["pcs"],
            "addrs": columns["addrs"],
            "taken": columns["taken"],
            "targets": columns["targets"],
            "n": comp.n,
            "kind_load": int(InstructionClass.LOAD),
            "kind_store": int(InstructionClass.STORE),
            "kind_branch": int(InstructionClass.BRANCH),
            "line_shift": l1i.line_shift,
            "l1i_nsets": l1i.sets,
            "l1i_ways": l1i.ways,
            "l1i_tags": l1i.tags,
            "l1i_counts": l1i.counts,
            "l1d_nsets": l1d.sets,
            "l1d_ways": l1d.ways,
            "l1d_tags": l1d.tags,
            "l1d_counts": l1d.counts,
            "l2_nsets": l2.sets,
            "l2_ways": l2.ways,
            "l2_tags": l2.tags,
            "l2_counts": l2.counts,
            "btb_nsets": btb.sets,
            "btb_ways": btb.ways,
            "btb_tags": btb.tags,
            "btb_targets": btb.targets,
            "btb_counts": btb.counts,
            "hist_mask": predictor.history_mask,
            "hist": predictor.history,
            "pl2": predictor.pattern,
            "bim": predictor.bimodal,
            "meta": predictor.meta,
        }

    def native_marshal(self):
        """Marshal this core for the C loop; returns ``(args, finish)``.

        ``args`` is the argument dict :func:`_hotpath.run_compiled`
        consumes (also one slot of a :func:`_hotpath.run_batch` vector);
        ``finish(res)`` folds the C loop's result back into the owning
        Python objects exactly as the reference interpreter leaves
        them and returns the :class:`CoreResult`.  Splitting the two
        lets the engine marshal N cores up front, run the whole batch
        under one GIL release, and fold each run back afterwards.

        A stock :class:`~repro.control.attack_decay.AttackDecayController`,
        :class:`~repro.control.offline.OfflineProfiler` or
        :class:`~repro.control.offline.OfflineController` is marshalled
        into flat buffers and run *inside* the C loop — the whole run
        then makes zero per-interval Python crossings.  Custom
        controllers and ``record_interval_trace`` consumers fall back to
        the per-interval ``rollover`` callback, the C loop's only Python
        crossing.

        In MCD mode each clock's :class:`GaussianJitter` hands the C
        loop its numpy bit generator (as a capsule) and ``_draw``'s
        parameters; the loop draws every block itself, advancing each
        generator exactly as ``_draw`` would.  A capsule does not keep
        its generator alive: the core does, and ``finish`` holds the
        core.
        """
        import numpy as np

        from repro.uarch.native import (
            CTRL_NONE,
            fold_native_controller,
            native_controller_args,
        )

        comp = self.compiled
        for kind in self._unexecutable:
            if (comp.arrays["kinds"] == kind).any():
                raise _no_unit_error(kind)

        if self.controller is not None:
            self.controller.begin(
                self.mcd_config,
                {d: self.regulators[i].current_mhz for i, d in enumerate(_DOMAINS)},
            )

        opts = self.options
        proc = self.processor
        controller = self.controller
        record_trace = opts.record_interval_trace
        interval_len = opts.interval_instructions
        regulators = self.regulators
        clocks = self.clocks
        hierarchy = self.hierarchy
        predictor = self.predictor
        acct = self.accounting

        reg_cur = np.array([r.current_mhz for r in regulators])
        reg_tgt = np.array([r.target_mhz for r in regulators])
        reg_last = np.array([r._last_time_ns for r in regulators])
        reg_slew = np.array([r._slew_mhz_per_ns for r in regulators])
        reg_slew_acc = np.zeros(4)
        cur_freq = reg_cur.copy()
        edge = np.array([c.next_edge_ns for c in clocks])
        cyc = np.array([c.cycle_index for c in clocks], dtype=np.int64)
        acc_clock = np.zeros(4)
        acc_struct = np.zeros(4)
        n_busy = np.zeros(4, dtype=np.int64)
        n_idle = np.zeros(4, dtype=np.int64)
        q_occ = np.zeros(4, dtype=np.int64)
        q_writes = np.zeros(4, dtype=np.int64)
        cache_stats = np.zeros(6, dtype=np.int64)
        bp_stats = np.zeros(3, dtype=np.int64)
        (
            (vmin, fmin, vslope, vmax_sq_inv),
            _,
            clock_e_l,
            idle_e_l,
            simple_w_l,
            complex_w_l,
        ) = self._operating_point_tables()
        clock_e = np.array(clock_e_l)
        idle_e = np.array(idle_e_l)
        simple_w = np.array(simple_w_l, dtype=np.int64)
        complex_w = np.array(complex_w_l, dtype=np.int64)
        e_issue = np.zeros(4)
        e_simple = np.zeros(4)
        e_complex = np.zeros(4)
        for d in (1, 2, 3):
            tup = self._e_issue[d]
            e_issue[d], e_simple[d], e_complex[d] = tup[1], tup[2], tup[3]
        q_cap = np.array(
            [0] + [self.queues[i].capacity for i in (1, 2, 3)], dtype=np.int64
        )
        lat_cycles = np.array(self._lat_cycles, dtype=np.int64)
        complex_op = np.array(
            [1 if x else 0 for x in self._complex], dtype=np.int64
        )

        jitters = [c.jitter for c in clocks]

        # A stock controller runs natively inside the C loop unless the
        # caller needs per-interval records (which only the Python
        # callback can collect).
        native_ctrl_args = None
        if controller is not None and not record_trace:
            native_ctrl_args = native_controller_args(
                controller, self.mcd_config, regulators[0].scale, comp.n, interval_len
            )

        self._intervals = []
        e_mem = self.energies.memory_access

        def rollover(
            index, retired, t, duration, occ1, occ2, occ3, b0, b1, b2, b3,
            mem_accesses,
        ):
            """Per-interval callback: the interval step on the C loop's registers."""
            for i in range(4):
                reg = regulators[i]
                reg.current_mhz = float(reg_cur[i])
                reg.target_mhz = float(reg_tgt[i])
            # The C loop accumulates energy in these shared buffers in
            # place, so they are live here; the sum mirrors the
            # reference interpreter's accumulation order exactly.
            clock = acc_clock.tolist()
            struct = acc_struct.tolist()
            self._end_interval(
                index, retired, t, duration, (occ1, occ2, occ3),
                (b0, b1, b2, b3), cur_freq.tolist(),
                clock[0] + clock[1] + clock[2] + clock[3]
                + struct[0] + struct[1] + struct[2] + struct[3]
                + mem_accesses * e_mem,
                mem_accesses,
            )
            for i in range(4):
                reg_cur[i] = regulators[i].current_mhz
                reg_tgt[i] = regulators[i].target_mhz

        args = {
            **self._hotpath_args(comp),
            # tables
            "dest_table": _DEST_TABLE,
            "domain_table": _DOMAIN_TABLE,
            "lat_cycles": lat_cycles,
            "complex_op": complex_op,
            "simple_w": simple_w,
            "complex_w": complex_w,
            "q_cap": q_cap,
            "clock_e": clock_e,
            "idle_e": idle_e,
            "e_issue": e_issue,
            "e_simple": e_simple,
            "e_complex": e_complex,
            # in/out state
            "reg_cur": reg_cur,
            "reg_tgt": reg_tgt,
            "reg_last": reg_last,
            "reg_slew": reg_slew,
            "reg_slew_acc": reg_slew_acc,
            "edge": edge,
            "cyc": cyc,
            "cur_freq": cur_freq,
            "acc_clock": acc_clock,
            "acc_struct": acc_struct,
            "n_busy": n_busy,
            "n_idle": n_idle,
            "q_occ": q_occ,
            "q_writes": q_writes,
            "cache_stats": cache_stats,
            "bp_stats": bp_stats,
            "jbufs": [getattr(j, "_buffer", []) for j in jitters],
            "jitter": [j.native_stream() for j in jitters] if opts.mcd else None,
            # The C loop draws jitter itself; the key stays for wrappers
            # that instrument the argument dict's callbacks by name.
            "refill": None,
            "rollover": rollover,
            # scalars
            "decode_width": proc.decode_width,
            "retire_width": proc.retire_width,
            "rob_cap": self.rob.capacity,
            "l1_cycles": proc.l1_latency_cycles,
            "l2_cycles": proc.l2_latency_cycles,
            "mispredict_penalty": proc.branch_mispredict_penalty,
            "interval_len": interval_len,
            "mcd": 1 if opts.mcd else 0,
            "int_free": self.int_regs.free,
            "fp_free": self.fp_regs.free,
            "call_rollover": (
                1
                if (
                    (controller is not None or record_trace)
                    and native_ctrl_args is None
                )
                else 0
            ),
            "native_ctrl": CTRL_NONE,
            "mem_latency": float(proc.memory_latency_ns),
            "window": self.window_ns,
            "vmin": vmin,
            "fmin": fmin,
            "vslope": vslope,
            "vmax_sq_inv": vmax_sq_inv,
            "e_l1i": self._e_l1i,
            "e_l2": self._e_l2,
            "e_bpred": self._e_bpred,
            "e_retire": self._e_retire,
            "e_disp_fetch": self._e_dispatch + self._e_fetch,
        }
        if native_ctrl_args is not None:
            args.update(native_ctrl_args)

        def finish(res: dict) -> CoreResult:
            """Fold one C-loop result back into the owning objects."""
            if res["error"]:
                raise SimulationError(
                    f"trace exhausted with {res['retired']}/{comp.n} retired"
                )

            # Fold the run's state back into the owning objects, exactly
            # as the reference interpreter leaves them.
            self.int_regs.free = res["int_free"]
            self.fp_regs.free = res["fp_free"]
            for i in (1, 2, 3):
                queue = self.queues[i]
                queue.writes += int(q_writes[i])
                queue.occupancy_accumulated += int(q_occ[i])
            for i in range(4):
                clock = clocks[i]
                clock.next_edge_ns = float(edge[i])
                clock.cycle_index = int(cyc[i])
                clock.period_ns = 1e3 / float(cur_freq[i])
                reg = regulators[i]
                reg.current_mhz = float(reg_cur[i])
                reg.target_mhz = float(reg_tgt[i])
                reg._last_time_ns = float(reg_last[i])
                reg.stats.slewing_time_ns += float(reg_slew_acc[i])
            hierarchy.l1i.stats.accesses += int(cache_stats[0])
            hierarchy.l1i.stats.misses += int(cache_stats[1])
            hierarchy.l1d.stats.accesses += int(cache_stats[2])
            hierarchy.l1d.stats.misses += int(cache_stats[3])
            hierarchy.l2.stats.accesses += int(cache_stats[4])
            hierarchy.l2.stats.misses += int(cache_stats[5])
            bstats = predictor.stats
            bstats.lookups += int(bp_stats[0])
            bstats.direction_mispredicts += int(bp_stats[1])
            bstats.btb_target_misses += int(bp_stats[2])
            if native_ctrl_args is not None:
                fold_native_controller(controller, regulators, args, res["intervals"])
            for i, dom in enumerate(_DOMAINS):
                acct.add_raw(
                    dom,
                    float(acc_clock[i]),
                    float(acc_struct[i]),
                    int(n_busy[i]),
                    int(n_idle[i]),
                )
            acct.add_memory_accesses(res["memory_accesses"])
            return self._build_result(
                res["retired"],
                res["wall"],
                res["memory_accesses"],
                res["dispatch_stall_cycles"],
            )

        return args, finish

    def _run_generator(self) -> CoreResult:
        """Reference path: per-instruction cursor over a generator trace."""
        if self.controller is not None:
            self.controller.begin(
                self.mcd_config,
                {d: self.regulators[i].current_mhz for i, d in enumerate(_DOMAINS)},
            )

        opts = self.options
        window = self.window_ns
        cursor = self.cursor
        total = cursor.total_instructions
        clocks = self.clocks
        regulators = self.regulators
        queues = self.queues
        rob = self.rob
        fin_ns = self.fin_ns
        fin_cycle = self.fin_cycle
        fin_domain = self.fin_domain
        dest_ring = self.dest_type_ring
        lat_cycles = self._lat_cycles
        complex_op = self._complex
        proc = self.processor
        decode_width = proc.decode_width
        retire_width = proc.retire_width
        l1_cycles = proc.l1_latency_cycles
        mem_latency = proc.memory_latency_ns
        l2_cycles = proc.l2_latency_cycles
        mispredict_penalty = proc.branch_mispredict_penalty
        interval_len = opts.interval_instructions
        record_trace = opts.record_interval_trace
        mcd_mode = opts.mcd
        controller = self.controller
        int_regs = self.int_regs
        fp_regs = self.fp_regs
        hierarchy = self.hierarchy
        predictor = self.predictor
        e_mem = self.energies.memory_access
        mem_level_l1 = MemoryLevel.L1
        mem_level_l2 = MemoryLevel.L2

        # --- per-domain cached operating point (freq/period/vscale) ------
        _, vscale_of, clock_e, idle_e, simple_w, complex_w = (
            self._operating_point_tables()
        )
        cur_freq = [r.current_mhz for r in regulators]
        cur_period = [1e3 / f for f in cur_freq]
        cur_vscale = [vscale_of(f) for f in cur_freq]
        for i in range(4):
            clocks[i].period_ns = cur_period[i]

        # --- inlined energy accumulators ----------------------------------
        acct = self.accounting
        acc_clock = [0.0, 0.0, 0.0, 0.0]
        acc_struct = [0.0, 0.0, 0.0, 0.0]
        n_busy = [0, 0, 0, 0]
        n_idle = [0, 0, 0, 0]

        active = [True, False, False, False]
        retired = 0
        seq_counter = 0
        fetch_resume_ns = 0.0  # fetch stalled until this time (icache / branch)
        branch_stall_seq = -1  # seq of unresolved mispredicted branch, -1 if none
        dispatch_stall_cycles = 0
        memory_accesses = 0
        interval_start_ns = 0.0
        next_interval = interval_len
        interval_index = 0
        busy_in_interval = [0, 0, 0, 0]
        self._intervals = []
        line_shift = hierarchy.l1i.line_shift
        last_fetch_line = -1

        kind_load = int(InstructionClass.LOAD)
        kind_store = int(InstructionClass.STORE)
        kind_branch = int(InstructionClass.BRANCH)

        clock_fe = clocks[_FE]
        next_edges = [c.next_edge_ns for c in clocks]

        while retired < total:
            # Earliest pending edge among active domains.
            d = 0
            t = next_edges[0]
            if active[1] and next_edges[1] < t:
                d, t = 1, next_edges[1]
            if active[2] and next_edges[2] < t:
                d, t = 2, next_edges[2]
            if active[3] and next_edges[3] < t:
                d, t = 3, next_edges[3]

            regulator = regulators[d]
            if regulator.current_mhz != regulator.target_mhz:
                freq = regulator.advance_to(t)
                if freq != cur_freq[d]:
                    cur_freq[d] = freq
                    cur_period[d] = 1e3 / freq
                    cur_vscale[d] = vscale_of(freq)
                    clocks[d].period_ns = cur_period[d]
            clock = clocks[d]
            vscale = cur_vscale[d]

            if d == _FE:
                access_energy = 0.0
                worked = False

                # ---- retire ------------------------------------------------
                cross_thresh = window if mcd_mode else 0.5 * cur_period[0]
                n_retire = 0
                rob_entries = rob.entries
                while rob_entries and n_retire < retire_width:
                    seq = rob_entries[0]
                    slot = seq & _RING_MASK
                    if fin_ns[slot] + cross_thresh > t + _EPS_NS:
                        break
                    rob_entries.popleft()
                    dest = dest_ring[slot]
                    if dest == 0:
                        int_regs.free += 1
                    elif dest == 1:
                        fp_regs.free += 1
                    n_retire += 1
                retired += n_retire
                if n_retire:
                    worked = True
                    access_energy += n_retire * self._e_retire

                # ---- interval rollover --------------------------------------
                if retired >= next_interval:
                    interval_index += 1
                    next_interval += interval_len
                    duration = t - interval_start_ns
                    if duration <= 0:
                        duration = cur_period[0]
                    # Catch up every regulator (so slew timing is exact
                    # when new targets are applied below) and the clocks
                    # and idle energy of inactive domains.
                    for i in (1, 2, 3):
                        ireg = regulators[i]
                        ifreq = ireg.advance_to(t)
                        if ifreq != cur_freq[i]:
                            cur_freq[i] = ifreq
                            cur_period[i] = 1e3 / ifreq
                            cur_vscale[i] = vscale_of(ifreq)
                            clocks[i].period_ns = cur_period[i]
                        if not active[i]:
                            skipped = clocks[i].skip_idle_until(t)
                            if skipped:
                                acc_clock[i] += idle_e[i] * cur_vscale[i] * skipped
                                n_idle[i] += skipped
                            next_edges[i] = clocks[i].next_edge_ns
                    occupancies = (
                        queues[_INT].take_occupancy(),
                        queues[_FP].take_occupancy(),
                        queues[_LS].take_occupancy(),
                    )
                    if controller is not None or record_trace:
                        self._end_interval(
                            interval_index - 1, retired, t, duration,
                            occupancies, busy_in_interval, cur_freq,
                            acc_clock[0] + acc_clock[1]
                            + acc_clock[2] + acc_clock[3]
                            + acc_struct[0] + acc_struct[1]
                            + acc_struct[2] + acc_struct[3]
                            + memory_accesses * e_mem,
                            memory_accesses,
                        )
                        # A snapped domain changes frequency at once.
                        for i in range(4):
                            f2 = regulators[i].current_mhz
                            if f2 != cur_freq[i]:
                                cur_freq[i] = f2
                                cur_period[i] = 1e3 / f2
                                cur_vscale[i] = vscale_of(f2)
                                clocks[i].period_ns = cur_period[i]
                    busy_in_interval = [0, 0, 0, 0]
                    interval_start_ns = t

                # ---- fetch / dispatch ---------------------------------------
                if (
                    branch_stall_seq < 0
                    and t + _EPS_NS >= fetch_resume_ns
                    and not cursor.exhausted
                ):
                    fetched = 0
                    stalled = False
                    while fetched < decode_width:
                        if cursor.exhausted:
                            break
                        kind = cursor.kind
                        # I-cache: one lookup per new fetch line.
                        pc = cursor.pc
                        line = pc >> line_shift
                        if line != last_fetch_line:
                            last_fetch_line = line
                            access_energy += self._e_l1i
                            level = hierarchy.instruction_access(pc)
                            if level is not mem_level_l1:
                                delay = l2_cycles * cur_period[_LS] + 2.0 * window
                                access_energy += self._e_l2
                                if level is not mem_level_l2:
                                    delay += mem_latency
                                    memory_accesses += 1
                                fetch_resume_ns = t + delay
                                break
                        # Structural dispatch constraints.
                        if not rob.has_space:
                            stalled = True
                            break
                        qd = _ISSUE_DOMAIN[kind]
                        queue = queues[qd]
                        if len(queue.entries) >= queue.capacity:
                            stalled = True
                            break
                        dest = _DEST_TYPE[kind]
                        if dest == 0:
                            if int_regs.free <= 0:
                                stalled = True
                                break
                            int_regs.free -= 1
                        elif dest == 1:
                            if fp_regs.free <= 0:
                                stalled = True
                                break
                            fp_regs.free -= 1

                        # Rename/dispatch.
                        seq_counter += 1
                        seq = seq_counter
                        slot = seq & _RING_MASK
                        fin_ns[slot] = _INF
                        fin_domain[slot] = -1
                        dest_ring[slot] = dest
                        s1 = cursor.src1
                        s2 = cursor.src2
                        p1 = seq - s1 if s1 and s1 < seq else 0
                        p2 = seq - s2 if s2 and s2 < seq else 0
                        mispredicted = False
                        if kind == kind_branch:
                            access_energy += self._e_bpred
                            mispredicted = predictor.access(
                                pc, cursor.taken, cursor.target
                            )
                        queue.entries.append([seq, kind, t, p1, p2, cursor.addr, 0.0])
                        queue.writes += 1
                        if not active[qd]:
                            qreg = regulators[qd]
                            qfreq = qreg.advance_to(t)
                            if qfreq != cur_freq[qd]:
                                cur_freq[qd] = qfreq
                                cur_period[qd] = 1e3 / qfreq
                                cur_vscale[qd] = vscale_of(qfreq)
                                clocks[qd].period_ns = cur_period[qd]
                            skipped = clocks[qd].skip_idle_until(t)
                            if skipped:
                                acc_clock[qd] += idle_e[qd] * cur_vscale[qd] * skipped
                                n_idle[qd] += skipped
                            next_edges[qd] = clocks[qd].next_edge_ns
                            active[qd] = True
                        rob.entries.append(seq)
                        access_energy += self._e_dispatch + self._e_fetch
                        cursor.pop()
                        fetched += 1
                        if mispredicted:
                            branch_stall_seq = seq
                            break
                    if fetched:
                        worked = True
                    elif stalled:
                        dispatch_stall_cycles += 1

                if worked:
                    busy_in_interval[0] += 1
                    n_busy[0] += 1
                    acc_clock[0] += clock_e[0] * vscale
                    acc_struct[0] += access_energy * vscale
                else:
                    n_idle[0] += 1
                    acc_clock[0] += idle_e[0] * vscale
                    if access_energy:
                        acc_struct[0] += access_energy * vscale
                next_edges[0] = clock_fe.advance()

            else:
                # ---- issue domain (integer / fp / load-store) ----------------
                queue = queues[d]
                entries = queue.entries
                queue.occupancy_accumulated += len(entries)
                issued_any = False
                access_energy = 0.0
                e_tuple = self._e_issue[d]
                e_issue = e_tuple[1]
                e_simple = e_tuple[2]
                e_complex = e_tuple[3]
                cross_thresh = window if mcd_mode else 0.5 * cur_period[d]
                cyc = clock.cycle_index
                period = cur_period[d]
                sfree = simple_w[d]
                cfree = complex_w[d]
                for entry in entries:
                    if entry[6] > t:
                        continue
                    if t - entry[2] < cross_thresh:
                        # Dispatch not yet synchronized into this domain;
                        # younger entries arrived even later.
                        break
                    p1 = entry[3]
                    if p1:
                        slot1 = p1 & _RING_MASK
                        fd = fin_domain[slot1]
                        if fd < 0:
                            continue
                        if fd == d:
                            if fin_cycle[slot1] > cyc:
                                continue
                        else:
                            nb = fin_ns[slot1] + cross_thresh
                            if nb > t + _EPS_NS:
                                entry[6] = nb
                                continue
                    p2 = entry[4]
                    if p2:
                        slot2 = p2 & _RING_MASK
                        fd = fin_domain[slot2]
                        if fd < 0:
                            continue
                        if fd == d:
                            if fin_cycle[slot2] > cyc:
                                continue
                        else:
                            nb = fin_ns[slot2] + cross_thresh
                            if nb > t + _EPS_NS:
                                entry[6] = nb
                                continue
                    kind = entry[1]
                    if complex_op[kind]:
                        if cfree <= 0:
                            if not complex_w[d]:
                                raise _no_unit_error(kind)
                            continue
                        cfree -= 1
                        access_energy += e_complex
                        lat_c = lat_cycles[kind]
                        lat = lat_c * period
                    elif sfree <= 0:
                        if cfree <= 0:
                            break
                        continue
                    elif kind == kind_load:
                        sfree -= 1
                        level = hierarchy.data_access(entry[5])
                        access_energy += e_simple  # L1D probe
                        if level is mem_level_l1:
                            lat = l1_cycles * period
                            lat_c = l1_cycles
                        elif level is mem_level_l2:
                            access_energy += self._e_l2
                            lat = l2_cycles * period
                            lat_c = l2_cycles
                        else:
                            access_energy += self._e_l2
                            memory_accesses += 1
                            lat = l2_cycles * period + mem_latency + 2.0 * window
                            lat_c = int(lat / period) + 1
                    elif kind == kind_store:
                        sfree -= 1
                        hierarchy.data_access(entry[5])
                        access_energy += e_simple
                        lat = period
                        lat_c = 1
                    else:
                        sfree -= 1
                        access_energy += e_simple
                        lat_c = lat_cycles[kind]
                        lat = lat_c * period
                    # Issue!
                    seq = entry[0]
                    finish = t + lat
                    slot = seq & _RING_MASK
                    fin_ns[slot] = finish
                    fin_cycle[slot] = cyc + lat_c
                    fin_domain[slot] = d
                    access_energy += e_issue
                    issued_any = True
                    if seq == branch_stall_seq:
                        branch_stall_seq = -1
                        resume = finish + window + mispredict_penalty * cur_period[0]
                        if resume > fetch_resume_ns:
                            fetch_resume_ns = resume
                    if sfree <= 0 and cfree <= 0:
                        break
                # Rebuild the queue without the entries issued this
                # cycle: an entry's ring slot holds -1 from dispatch
                # until the moment it issues.
                if issued_any:
                    queue.entries = [
                        e for e in entries if fin_domain[e[0] & _RING_MASK] == -1
                    ]
                    busy_in_interval[d] += 1
                    n_busy[d] += 1
                    acc_clock[d] += clock_e[d] * vscale
                    acc_struct[d] += access_energy * vscale
                    if queue.entries:
                        next_edges[d] = clock.advance()
                    else:
                        active[d] = False
                        clock.advance()
                else:
                    n_idle[d] += 1
                    acc_clock[d] += idle_e[d] * vscale
                    next_edges[d] = clock.advance()

            # Safety valve: the trace must keep draining.
            if cursor.exhausted and not rob.entries and retired < total:
                raise SimulationError(
                    f"trace exhausted with {retired}/{total} retired"
                )

        wall = clocks[_FE].next_edge_ns
        # Final catch-up: idle tails of inactive domains still burn
        # gated clock energy until the program ends.
        for i in (1, 2, 3):
            ireg = regulators[i]
            ifreq = ireg.advance_to(wall)
            if ifreq != cur_freq[i]:
                cur_freq[i] = ifreq
                cur_vscale[i] = vscale_of(ifreq)
            skipped = clocks[i].skip_idle_until(wall)
            if skipped:
                acc_clock[i] += idle_e[i] * cur_vscale[i] * skipped
                n_idle[i] += skipped

        # Flush the inlined accumulators into the accounting meters.
        for i, dom in enumerate(_DOMAINS):
            acct.add_raw(dom, acc_clock[i], acc_struct[i], n_busy[i], n_idle[i])
        acct.add_memory_accesses(memory_accesses)

        return self._build_result(
            retired, wall, memory_accesses, dispatch_stall_cycles
        )

    # ------------------------------------------------------------------
    def _end_interval(
        self,
        index: int,
        retired: int,
        t: float,
        duration: float,
        occupancies,
        busy,
        frequencies: list[float],
        energy: float,
        memory_accesses: int,
    ) -> None:
        """Close control interval ``index`` at front-end edge ``t``.

        Both interpreters call this at each interval boundary of a run
        with a controller or ``record_interval_trace``: the reference
        inline, the native loop through its ``rollover`` callback.  It
        derives the observables from the interval's raw counters (the
        integer, floating-point and load/store queue occupancy sums,
        and each core domain's busy cycles and frequency in
        ``CORE_DOMAINS`` order), hands the controller its
        :class:`IntervalSnapshot` and routes the targets to the
        regulators (snapped for an ``instantaneous`` controller,
        requested otherwise), and records the :class:`IntervalRecord`
        with the run's cumulative ``energy`` and ``memory_accesses``.
        The caller re-reads the regulators afterwards.
        """
        interval_len = self.options.interval_instructions
        qutil, ipc, busy_fraction = interval_observables(
            interval_len, duration, occupancies, busy, frequencies
        )
        freqs = dict(zip(_DOMAINS, frequencies))
        controller = self.controller
        if controller is not None:
            targets = controller.on_interval(
                IntervalSnapshot(
                    index=index,
                    instructions=interval_len,
                    time_ns=t,
                    duration_ns=duration,
                    ipc=ipc,
                    queue_utilization=qutil,
                    busy_fraction=busy_fraction,
                    frequencies_mhz=freqs,
                )
            )
            if targets:
                snap = getattr(controller, "instantaneous", False)
                for dom, mhz in targets.items():
                    reg = self.regulators[_DOMAIN_INDEX[dom]]
                    if snap:
                        reg.snap_to(mhz)
                    else:
                        reg.request(mhz)
        if self.options.record_interval_trace:
            self._intervals.append(
                IntervalRecord(
                    index=index,
                    end_instruction=retired,
                    end_time_ns=t,
                    ipc=ipc,
                    queue_utilization=qutil,
                    frequencies_mhz=freqs,
                    energy=energy,
                    memory_accesses=memory_accesses,
                )
            )

    def _build_result(
        self,
        retired: int,
        wall_ns: float,
        memory_accesses: int,
        dispatch_stall_cycles: int,
    ) -> CoreResult:
        meters = self.accounting.meters
        return CoreResult(
            instructions=retired,
            wall_time_ns=wall_ns,
            energy=self.accounting.total_energy,
            clock_energy=self.accounting.total_clock_energy,
            domain_energy={d: m.total_energy for d, m in meters.items()},
            domain_busy_cycles={d: m.busy_cycles for d, m in meters.items()},
            domain_cycles={d: m.cycles for d, m in meters.items()},
            final_frequencies_mhz={
                dom: self.regulators[i].current_mhz for i, dom in enumerate(_DOMAINS)
            },
            l1i_miss_rate=self.hierarchy.l1i.stats.miss_rate,
            l1d_miss_rate=self.hierarchy.l1d.stats.miss_rate,
            l2_miss_rate=self.hierarchy.l2.stats.miss_rate,
            branch_accuracy=self.predictor.stats.accuracy,
            branch_lookups=self.predictor.stats.lookups,
            memory_accesses=memory_accesses,
            dispatch_stall_cycles=dispatch_stall_cycles,
            intervals=self._intervals,
        )
