"""Tests for fixed, global, offline controllers and hardware cost."""

import pytest

from repro.config.mcd import CONTROLLED_DOMAINS, Domain, MCDConfig
from repro.control.base import IntervalSnapshot
from repro.control.fixed import FixedFrequencyController
from repro.control.global_dvfs import GlobalDVFSController
from repro.control.hardware_cost import (
    HardwareCostModel,
    estimate_attack_decay_hardware,
)
from repro.control.offline import (
    OfflineController,
    OfflineProfile,
    OfflineProfiler,
    build_offline_schedule,
)
from repro.errors import ControlError


def snapshot(index: int, busy=None, qutil=None, ipc=1.0) -> IntervalSnapshot:
    return IntervalSnapshot(
        index=index,
        instructions=500,
        time_ns=(index + 1) * 500.0,
        duration_ns=500.0,
        ipc=ipc,
        queue_utilization=qutil or {},
        busy_fraction=busy or {},
    )


class TestFixedController:
    def test_applies_once(self):
        ctl = FixedFrequencyController({Domain.INTEGER: 500.0})
        ctl.begin(MCDConfig(), {})
        assert ctl.on_interval(snapshot(0)) == {Domain.INTEGER: 500.0}
        assert ctl.on_interval(snapshot(1)) == {}

    def test_empty_mapping_never_targets(self):
        ctl = FixedFrequencyController()
        ctl.begin(MCDConfig(), {})
        assert ctl.on_interval(snapshot(0)) == {}


class TestGlobalController:
    def test_targets_all_onchip_domains(self):
        ctl = GlobalDVFSController(700.0)
        ctl.begin(MCDConfig(), {})
        targets = ctl.on_interval(snapshot(0))
        assert set(targets) == {
            Domain.FRONT_END,
            Domain.INTEGER,
            Domain.FLOATING_POINT,
            Domain.LOAD_STORE,
        }
        assert all(v == 700.0 for v in targets.values())
        assert ctl.on_interval(snapshot(1)) == {}

    def test_clamped_into_range(self):
        ctl = GlobalDVFSController(100.0)
        ctl.begin(MCDConfig(), {})
        assert ctl.frequency_mhz == 250.0

    def test_non_positive_rejected(self):
        with pytest.raises(ControlError):
            GlobalDVFSController(0.0)


class TestOffline:
    def _profile(self, intervals: int = 10, busy: float = 0.5) -> OfflineProfile:
        profiler = OfflineProfiler()
        profiler.begin(MCDConfig(), {})
        for i in range(intervals):
            profiler.on_interval(
                snapshot(
                    i,
                    busy={d: busy for d in CONTROLLED_DOMAINS},
                    qutil={d: 1.0 for d in CONTROLLED_DOMAINS},
                )
            )
        return profiler.profile

    def test_profiler_records_everything(self):
        profile = self._profile(7)
        assert len(profile) == 7
        assert len(profile.ipc) == 7

    def test_schedule_length_matches_profile(self):
        profile = self._profile(9)
        schedule = build_offline_schedule(profile, MCDConfig(), 1.0)
        assert len(schedule) == 9

    def test_busier_profile_gets_higher_frequencies(self):
        lo = build_offline_schedule(self._profile(busy=0.2), MCDConfig(), 1.0)
        hi = build_offline_schedule(self._profile(busy=0.9), MCDConfig(), 1.0)
        assert hi[0][Domain.INTEGER] > lo[0][Domain.INTEGER]

    def test_higher_target_scales_lower(self):
        p = self._profile()
        d1 = build_offline_schedule(p, MCDConfig(), 1.0)
        d5 = build_offline_schedule(p, MCDConfig(), 5.0)
        assert d5[0][Domain.INTEGER] <= d1[0][Domain.INTEGER]

    def test_aggressiveness_zero_keeps_max(self):
        p = self._profile()
        s = build_offline_schedule(p, MCDConfig(), 5.0, aggressiveness=0.0)
        assert all(v == 1000.0 for v in s[0].values())

    def test_frequencies_always_legal(self):
        config = MCDConfig()
        p = self._profile(busy=0.01)
        for step in build_offline_schedule(p, config, 5.0, aggressiveness=2.0):
            for mhz in step.values():
                assert config.min_frequency_mhz <= mhz <= config.max_frequency_mhz
                assert config.is_legal_frequency(mhz)

    def test_controller_replays_and_holds_last(self):
        schedule = [{Domain.INTEGER: 500.0}, {Domain.INTEGER: 600.0}]
        ctl = OfflineController(schedule)
        ctl.begin(MCDConfig(), {})
        assert ctl.on_interval(snapshot(0))[Domain.INTEGER] == 500.0
        assert ctl.on_interval(snapshot(1))[Domain.INTEGER] == 600.0
        assert ctl.on_interval(snapshot(2))[Domain.INTEGER] == 600.0  # held

    def test_controller_is_instantaneous(self):
        assert OfflineController([{}]).instantaneous is True

    def test_empty_schedule_rejected(self):
        with pytest.raises(ControlError):
            OfflineController([])

    def test_negative_target_rejected(self):
        with pytest.raises(ControlError):
            build_offline_schedule(self._profile(), MCDConfig(), -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["target_degradation_pct", "aggressiveness"])
    def test_non_finite_schedule_input_rejected(self, field, value):
        """A NaN used to quantise every step to the minimum frequency."""
        kwargs = {"target_degradation_pct": 5.0, field: value}
        with pytest.raises(ControlError, match=field):
            build_offline_schedule(self._profile(), MCDConfig(), **kwargs)

    @pytest.mark.parametrize(
        "step, fault",
        [
            ({Domain.INTEGER: float("nan")}, "integer"),
            ({Domain.INTEGER: float("inf")}, "integer"),
            ({Domain.LOAD_STORE: 0.0}, "load_store"),
            ({Domain.LOAD_STORE: -500.0}, "load_store"),
            ({Domain.INTEGER: True}, "integer"),
            ({Domain.INTEGER: "500"}, "integer"),
            ({"bogus": 500.0}, "bogus"),
            ({Domain.EXTERNAL: 500.0}, "EXTERNAL"),
        ],
    )
    def test_controller_rejects_malformed_step(self, step, fault):
        schedule = [{Domain.INTEGER: 500.0}, step]
        with pytest.raises(ControlError, match=r"schedule\[1\]") as info:
            OfflineController(schedule)
        assert fault in str(info.value)

    def test_controller_rejects_non_mapping_step(self):
        with pytest.raises(ControlError, match="mapping"):
            OfflineController([[(Domain.INTEGER, 500.0)]])

    def test_controller_copies_its_schedule(self):
        schedule = [{Domain.INTEGER: 500.0}]
        ctl = OfflineController(schedule)
        schedule[0][Domain.INTEGER] = float("nan")
        ctl.begin(MCDConfig(), {})
        assert ctl.on_interval(snapshot(0)) == {Domain.INTEGER: 500.0}


class TestHardwareCost:
    def test_table3_per_domain_gates(self):
        model = estimate_attack_decay_hardware()
        # Paper: accumulator 176 + comparators 192 + multiplier 80 +
        # endstop 28 = 476 gates per domain.
        assert model.gates_per_domain == 476

    def test_table3_interval_counter(self):
        assert estimate_attack_decay_hardware().shared_gates == 112

    def test_fewer_than_2500_gates_total(self):
        model = estimate_attack_decay_hardware(domains=4)
        assert model.total_gates < 2500
        assert model.total_gates == 4 * 476 + 112  # paper: 2016 gates

    def test_table3_rows_match_paper(self):
        rows = {r[0]: r[2] for r in HardwareCostModel().table3_rows()}
        assert rows["Queue Utilization Counter (Accumulator)"] == 176
        assert rows["Comparators (2 required)"] == 192
        assert rows["Multiplier (partial-product accumulation)"] == 80
        assert rows["Interval Counter (14-bit)"] == 112
        assert rows["Endstop Counter (4-bit)"] == 28

    def test_scaling_with_width(self):
        wide = HardwareCostModel(device_bits=32)
        assert wide.gates_per_domain > HardwareCostModel().gates_per_domain
