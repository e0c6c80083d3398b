"""Tests for the control-interval step both interpreters share.

At each interval boundary the reference interpreter and the native
loop's ``rollover`` callback hand their raw counters to one method,
``MCDCore._end_interval``: it derives the observables
(``repro.control.base.interval_observables``), gives the controller its
``IntervalSnapshot``, routes the targets to the regulators and appends
the ``IntervalRecord``.  These tests pin each of those pieces, first on
direct calls and then across whole runs on both interpreters.
"""

from dataclasses import asdict

import pytest

from repro.config.mcd import Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.control.base import CORE_DOMAINS, IntervalSnapshot, interval_observables
from repro.dvfs.regulator import RegulatorState
from repro.uarch import native
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import CoreOptions, IntervalRecord, MCDCore
from repro.uarch.isa import InstructionClass
from repro.uarch.trace import InstructionBlock, ListTrace

needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)

INTERVAL = 100


class RecordingController:
    """Keeps every snapshot and returns the targets it was given."""

    def __init__(self, targets=None, instantaneous=False):
        self.targets = targets
        self.instantaneous = instantaneous
        self.snapshots = []

    def begin(self, config, initial_mhz):
        self.snapshots = []

    def on_interval(self, snapshot):
        self.snapshots.append(snapshot)
        return self.targets


def _trace(n=1000):
    """Integer, floating-point and memory work in every interval."""
    block = InstructionBlock()
    for i in range(n):
        if i % 4 == 0:
            block.append(InstructionClass.LOAD, src1=1, pc=4 * i, addr=64 * (i % 64))
        elif i % 4 == 1:
            block.append(InstructionClass.FP_ALU, src1=2, pc=4 * i)
        elif i % 4 == 2:
            block.append(InstructionClass.STORE, src1=1, pc=4 * i, addr=4096 + 8 * i)
        else:
            block.append(InstructionClass.INT_ALU, src1=3, pc=4 * i)
    return ListTrace([block])


def _core(controller=None, record=False, trace=None, mcd=True):
    core = MCDCore(
        ProcessorConfig(),
        MCDConfig(),
        trace if trace is not None else _trace(8),
        controller=controller,
        options=CoreOptions(
            mcd=mcd,
            seed=3,
            interval_instructions=INTERVAL,
            record_interval_trace=record,
        ),
    )
    # run() starts each run with an empty record list; a direct call
    # of the interval step needs the same.
    core._intervals = []
    return core


#: One interval's raw counters, as a run loop hands them over.
OCCUPANCIES = (150, 30, 600)
BUSY = (80, 40, 10, 100)
FREQUENCIES = [1000.0, 500.0, 250.0, 1000.0]
DURATION = 100.0


def _end_interval(core, index=4, retired=500, t=612.5, energy=3.25, accesses=7):
    core._end_interval(
        index, retired, t, DURATION, OCCUPANCIES, BUSY, list(FREQUENCIES),
        energy, accesses,
    )


class TestIntervalObservables:
    def test_queue_utilization_is_occupancy_per_instruction(self):
        qutil, _, _ = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, FREQUENCIES
        )
        # The load/store figure exceeds the queue size: the paper's
        # metric divides by instructions, not cycles.
        assert qutil == {
            Domain.INTEGER: 1.5,
            Domain.FLOATING_POINT: 0.3,
            Domain.LOAD_STORE: 6.0,
        }

    def test_ipc_is_referenced_to_the_front_end_clock(self):
        _, ipc, _ = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, FREQUENCIES
        )
        assert ipc == pytest.approx(1.0)  # 100 instructions in 100 cycles
        slower_back_end = [1000.0, 250.0, 250.0, 250.0]
        _, same, _ = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, slower_back_end
        )
        assert same == ipc
        _, halved_clock, _ = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, [500.0, *FREQUENCIES[1:]]
        )
        assert halved_clock == pytest.approx(2.0)

    def test_busy_fraction_is_busy_time_over_duration(self):
        _, _, busy = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, FREQUENCIES
        )
        # 80 cycles at 1 GHz, 40 at 500 MHz, 10 at 250 MHz, 100 at 1 GHz.
        assert list(busy) == list(CORE_DOMAINS)
        assert busy == pytest.approx(
            {
                Domain.FRONT_END: 0.8,
                Domain.INTEGER: 0.8,
                Domain.FLOATING_POINT: 0.4,
                Domain.LOAD_STORE: 1.0,
            }
        )

    def test_busy_fraction_clamped_at_one(self):
        _, _, busy = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, (120, 99, 30, 250), FREQUENCIES
        )
        assert all(value == 1.0 for value in busy.values())


class TestEndInterval:
    def test_snapshot_carries_the_interval_counters(self):
        controller = RecordingController()
        core = _core(controller)
        _end_interval(core)
        (snapshot,) = controller.snapshots
        qutil, ipc, busy = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, FREQUENCIES
        )
        assert snapshot == IntervalSnapshot(
            index=4,
            instructions=INTERVAL,
            time_ns=612.5,
            duration_ns=DURATION,
            ipc=ipc,
            queue_utilization=qutil,
            busy_fraction=busy,
            frequencies_mhz=dict(zip(CORE_DOMAINS, FREQUENCIES)),
        )

    def test_instantaneous_targets_snap_the_regulator(self):
        core = _core(RecordingController({Domain.INTEGER: 500.0}, instantaneous=True))
        reg = core.regulators[CORE_DOMAINS.index(Domain.INTEGER)]
        _end_interval(core)
        assert reg.current_mhz == reg.target_mhz == reg.scale.quantize(500.0)
        assert reg.state is RegulatorState.STEADY

    def test_gradual_targets_are_requested(self):
        core = _core(RecordingController({Domain.LOAD_STORE: 500.0}))
        reg = core.regulators[CORE_DOMAINS.index(Domain.LOAD_STORE)]
        before = reg.current_mhz
        _end_interval(core)
        assert reg.target_mhz == reg.scale.quantize(500.0)
        assert reg.current_mhz == before
        assert reg.state is RegulatorState.SLEWING

    def test_absent_domains_keep_their_target(self):
        core = _core(
            RecordingController({Domain.FLOATING_POINT: 250.0}, instantaneous=True)
        )
        before = [(r.current_mhz, r.target_mhz) for r in core.regulators]
        _end_interval(core)
        changed = [
            domain
            for domain, reg, old in zip(CORE_DOMAINS, core.regulators, before)
            if (reg.current_mhz, reg.target_mhz) != old
        ]
        assert changed == [Domain.FLOATING_POINT]

    @pytest.mark.parametrize("targets", [None, {}], ids=["none", "empty"])
    def test_no_targets_leave_the_regulators(self, targets):
        controller = RecordingController(targets, instantaneous=True)
        core = _core(controller)
        before = [(r.current_mhz, r.target_mhz) for r in core.regulators]
        _end_interval(core)
        assert len(controller.snapshots) == 1
        assert [(r.current_mhz, r.target_mhz) for r in core.regulators] == before

    def test_record_holds_the_cumulative_run_totals(self):
        core = _core(RecordingController(), record=True)
        _end_interval(core, index=2, retired=300, t=410.0, energy=9.5, accesses=11)
        qutil, ipc, _ = interval_observables(
            INTERVAL, DURATION, OCCUPANCIES, BUSY, FREQUENCIES
        )
        assert core._intervals == [
            IntervalRecord(
                index=2,
                end_instruction=300,
                end_time_ns=410.0,
                ipc=ipc,
                queue_utilization=qutil,
                frequencies_mhz=dict(zip(CORE_DOMAINS, FREQUENCIES)),
                energy=9.5,
                memory_accesses=11,
            )
        ]

    def test_no_record_without_interval_trace(self):
        controller = RecordingController()
        core = _core(controller, record=False)
        _end_interval(core)
        assert len(controller.snapshots) == 1
        assert core._intervals == []

    def test_records_without_a_controller(self):
        core = _core(None, record=True)
        _end_interval(core, index=0, retired=100)
        (record,) = core._intervals
        assert (record.index, record.end_instruction) == (0, 100)


INTERPRETERS = [pytest.param("native", marks=needs_native), "python"]


def _run(path, controller, record=True, mcd=True):
    trace = _trace()
    core = _core(
        controller,
        record=record,
        trace=compile_trace(trace) if path == "native" else trace,
        mcd=mcd,
    )
    return core.run()


class TestIntervalStepInRuns:
    @pytest.mark.parametrize("path", INTERPRETERS)
    def test_each_record_matches_its_snapshot(self, path):
        controller = RecordingController()
        result = _run(path, controller)
        assert len(result.intervals) == 1000 // INTERVAL
        assert len(controller.snapshots) == len(result.intervals)
        for i, (snapshot, record) in enumerate(
            zip(controller.snapshots, result.intervals)
        ):
            assert snapshot.index == record.index == i
            # An interval closes on the cycle retirement reaches its
            # length; one cycle retires up to the retire width.
            overshoot = record.end_instruction - (i + 1) * INTERVAL
            assert 0 <= overshoot < ProcessorConfig().retire_width
            assert snapshot.time_ns == record.end_time_ns
            assert snapshot.ipc == record.ipc
            assert dict(snapshot.queue_utilization) == record.queue_utilization
            assert dict(snapshot.frequencies_mhz) == record.frequencies_mhz

    @pytest.mark.parametrize("path", INTERPRETERS)
    def test_recorded_totals_are_cumulative(self, path):
        result = _run(path, None)
        energies = [r.energy for r in result.intervals]
        accesses = [r.memory_accesses for r in result.intervals]
        times = [r.end_time_ns for r in result.intervals]
        assert energies == sorted(energies) and energies[0] > 0
        assert accesses == sorted(accesses)
        assert times == sorted(times)
        assert energies[-1] <= result.energy
        assert times[-1] <= result.wall_time_ns

    @needs_native
    @pytest.mark.parametrize("mcd", [False, True], ids=["sync", "mcd"])
    def test_gradual_targets_identical_on_both_interpreters(self, mcd):
        """A slewing request crosses the native callback's ``reg_tgt`` copy."""
        results = [
            asdict(
                _run(path, RecordingController({Domain.INTEGER: 250.0}), mcd=mcd)
            )
            for path in ("python", "native")
        ]
        assert results[1] == results[0]
        int_freqs = [r["frequencies_mhz"][Domain.INTEGER] for r in results[0]["intervals"]]
        assert int_freqs[-1] < int_freqs[0]
