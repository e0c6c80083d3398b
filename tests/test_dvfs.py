"""Tests for the frequency scale and the slewing regulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.mcd import MCDConfig
from repro.dvfs.regulator import RegulatorState, VoltageFrequencyRegulator
from repro.dvfs.scale import FrequencyScale, frequency_scale
from repro.errors import RegulatorError


class TestFrequencyScale:
    def test_320_points(self, mcd_config):
        scale = FrequencyScale(mcd_config)
        assert len(scale) == 320
        assert scale.frequencies_mhz[0] == pytest.approx(250.0)
        assert scale.frequencies_mhz[-1] == pytest.approx(1000.0)

    def test_voltage_tracks_frequency(self, mcd_config):
        scale = FrequencyScale(mcd_config)
        assert scale.voltages_v[0] == pytest.approx(0.65)
        assert scale.voltages_v[-1] == pytest.approx(1.20)
        # strictly increasing
        assert all(
            scale.voltages_v[i] < scale.voltages_v[i + 1] for i in range(len(scale) - 1)
        )

    def test_index_of_clamps(self, mcd_config):
        scale = FrequencyScale(mcd_config)
        assert scale.index_of(0.0) == 0
        assert scale.index_of(2000.0) == len(scale) - 1

    def test_step_from_clamps_at_ends(self, mcd_config):
        scale = FrequencyScale(mcd_config)
        assert scale.step_from(250.0, -5) == pytest.approx(250.0)
        assert scale.step_from(1000.0, +5) == pytest.approx(1000.0)

    def test_require_legal_accepts_grid_points(self, mcd_config):
        scale = FrequencyScale(mcd_config)
        f = float(scale.frequencies_mhz[17])
        assert scale.require_legal(f) == pytest.approx(f)

    def test_require_legal_rejects_off_grid(self, mcd_config):
        scale = FrequencyScale(mcd_config)
        with pytest.raises(RegulatorError):
            scale.require_legal(251.0)

    @given(st.floats(min_value=250, max_value=1000))
    @settings(max_examples=200)
    def test_quantize_matches_config(self, f):
        config = MCDConfig()
        scale = FrequencyScale(config)
        assert scale.quantize(f) == pytest.approx(config.quantize_frequency(f), abs=1e-9)

    def test_one_shared_read_only_scale_per_config(self):
        scale = frequency_scale(MCDConfig())
        assert frequency_scale(MCDConfig()) is scale  # equal configs share it
        assert frequency_scale(MCDConfig(frequency_points=64)) is not scale
        regulators = [VoltageFrequencyRegulator(MCDConfig()) for _ in range(4)]
        assert all(r.scale is scale for r in regulators)
        for table in (scale.frequencies_mhz, scale.voltages_v):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        fresh = FrequencyScale(MCDConfig())
        assert (fresh.frequencies_mhz == scale.frequencies_mhz).all()
        assert (fresh.voltages_v == scale.voltages_v).all()


class TestRegulator:
    def test_starts_at_max_steady(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        assert reg.current_mhz == pytest.approx(1000.0)
        assert reg.state is RegulatorState.STEADY
        assert reg.voltage_v == pytest.approx(1.20)

    def test_request_quantizes(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        target = reg.request(501.3)
        assert mcd_config.is_legal_frequency(target, tol=1e-6)

    def test_slew_rate_honoured(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        reg.request(500.0)
        # After 49.1 ns the frequency may have moved at most 1 MHz.
        reg.advance_to(49.1)
        assert reg.current_mhz == pytest.approx(999.0, abs=1e-6)
        assert reg.state is RegulatorState.SLEWING

    def test_slew_completes(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        target = reg.request(500.0)
        needed = mcd_config.slew_time_ns(1000.0, target)
        reg.advance_to(needed + 1.0)
        assert reg.current_mhz == pytest.approx(target)
        assert reg.state is RegulatorState.STEADY

    def test_execute_through_intermediate_frequencies(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        reg.request(250.0)
        previous = reg.current_mhz
        for step in range(1, 20):
            f = reg.advance_to(step * 500.0)
            assert f <= previous + 1e-12  # monotone descent
            previous = f
            # Voltage always consistent with the instantaneous frequency.
            expected_v = mcd_config.voltage_for_frequency(f)
            assert reg.voltage_v == pytest.approx(expected_v)

    def test_snap_to_is_instant(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        reg.snap_to(250.0)
        assert reg.current_mhz == pytest.approx(250.0)
        assert reg.state is RegulatorState.STEADY

    def test_time_backwards_rejected(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        reg.advance_to(100.0)
        with pytest.raises(RegulatorError):
            reg.advance_to(50.0)

    def test_direction_change_counted(self, mcd_config):
        reg = VoltageFrequencyRegulator(mcd_config)
        reg.request(500.0)
        reg.advance_to(1000.0)
        reg.request(990.0)  # reverse direction mid-slew
        assert reg.stats.direction_changes == 1

    def test_zero_slew_rate_is_instant(self):
        config = MCDConfig(slew_ns_per_mhz=0.0)
        reg = VoltageFrequencyRegulator(config)
        reg.request(250.0)
        reg.advance_to(1e-9)
        assert reg.current_mhz == pytest.approx(250.0)

    @given(
        st.lists(st.floats(min_value=250, max_value=1000), min_size=1, max_size=20),
        st.lists(st.floats(min_value=0.1, max_value=5000), min_size=20, max_size=20),
    )
    @settings(max_examples=50)
    def test_frequency_always_within_range(self, requests, dts):
        config = MCDConfig()
        reg = VoltageFrequencyRegulator(config)
        now = 0.0
        for i, dt in enumerate(dts):
            if i < len(requests):
                reg.request(requests[i])
            now += dt
            f = reg.advance_to(now)
            assert config.min_frequency_mhz - 1e-9 <= f <= config.max_frequency_mhz + 1e-9
