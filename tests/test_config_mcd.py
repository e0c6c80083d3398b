"""Tests for the MCD configuration (paper Table 1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config.mcd import CONTROLLED_DOMAINS, Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.errors import ConfigError


class TestTable1Defaults:
    def test_frequency_range(self, mcd_config):
        assert mcd_config.min_frequency_mhz == 250.0
        assert mcd_config.max_frequency_mhz == 1000.0

    def test_voltage_range(self, mcd_config):
        assert mcd_config.min_voltage_v == 0.65
        assert mcd_config.max_voltage_v == 1.20

    def test_320_frequency_points(self, mcd_config):
        assert mcd_config.frequency_points == 320

    def test_slew_rate_is_xscale(self, mcd_config):
        assert mcd_config.slew_ns_per_mhz == 49.1

    def test_jitter_sigma_110ps(self, mcd_config):
        assert mcd_config.jitter_sigma_ns == pytest.approx(0.110)

    def test_sync_window_is_30pct_of_fastest_clock(self, mcd_config):
        assert mcd_config.sync_window_ns == pytest.approx(
            0.30 * mcd_config.min_period_ns
        )

    def test_mcd_clock_overhead_10pct(self, mcd_config):
        assert mcd_config.mcd_clock_energy_overhead == pytest.approx(1.10)

    def test_table1_rows_render(self, mcd_config):
        rows = dict(mcd_config.table1_rows())
        assert rows["Domain Voltage"] == "0.65 V - 1.20 V"
        assert "49.1" in rows["Frequency Change Rate"]
        assert "300ps" in rows["Synchronization Window"]


class TestVoltageMap:
    def test_linear_endpoints(self, mcd_config):
        assert mcd_config.voltage_for_frequency(250.0) == pytest.approx(0.65)
        assert mcd_config.voltage_for_frequency(1000.0) == pytest.approx(1.20)

    def test_midpoint(self, mcd_config):
        assert mcd_config.voltage_for_frequency(625.0) == pytest.approx(0.925)

    def test_out_of_range_raises(self, mcd_config):
        with pytest.raises(ConfigError):
            mcd_config.voltage_for_frequency(100.0)
        with pytest.raises(ConfigError):
            mcd_config.voltage_for_frequency(1100.0)

    @given(st.floats(min_value=250.0, max_value=1000.0))
    def test_voltage_monotone_and_in_range(self, f):
        config = MCDConfig()
        v = config.voltage_for_frequency(f)
        assert 0.65 - 1e-9 <= v <= 1.20 + 1e-9


class TestQuantization:
    def test_endpoints_are_legal(self, mcd_config):
        assert mcd_config.is_legal_frequency(250.0)
        assert mcd_config.is_legal_frequency(1000.0)

    def test_step_size(self, mcd_config):
        assert mcd_config.frequency_step_mhz == pytest.approx(750.0 / 319)

    def test_quantize_clamps(self, mcd_config):
        assert mcd_config.quantize_frequency(10.0) == 250.0
        assert mcd_config.quantize_frequency(5000.0) == 1000.0

    @given(st.floats(min_value=0.0, max_value=2000.0, allow_nan=False))
    def test_quantize_idempotent(self, f):
        config = MCDConfig()
        once = config.quantize_frequency(f)
        assert config.quantize_frequency(once) == pytest.approx(once, abs=1e-9)

    @given(st.floats(min_value=250.0, max_value=1000.0))
    def test_quantize_error_bounded_by_half_step(self, f):
        config = MCDConfig()
        q = config.quantize_frequency(f)
        assert abs(q - f) <= config.frequency_step_mhz / 2 + 1e-9

    def test_slew_time_symmetric(self, mcd_config):
        assert mcd_config.slew_time_ns(250.0, 1000.0) == pytest.approx(
            mcd_config.slew_time_ns(1000.0, 250.0)
        )
        assert mcd_config.slew_time_ns(250.0, 1000.0) == pytest.approx(750 * 49.1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_frequency_mhz": -1.0},
            {"max_frequency_mhz": 100.0},  # below min
            {"min_voltage_v": 0.0},
            {"max_voltage_v": 0.1},  # below min
            {"frequency_points": 1},
            {"slew_ns_per_mhz": -1.0},
            {"jitter_sigma_ns": -0.1},
            {"sync_window_ns": -0.1},
            {"mcd_clock_energy_overhead": 0.9},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            MCDConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "config, field",
        [
            (MCDConfig, "min_frequency_mhz"),
            (MCDConfig, "max_frequency_mhz"),
            (MCDConfig, "min_voltage_v"),
            (MCDConfig, "max_voltage_v"),
            (MCDConfig, "slew_ns_per_mhz"),
            (MCDConfig, "jitter_sigma_ns"),
            (MCDConfig, "sync_window_ns"),
            (MCDConfig, "mcd_clock_energy_overhead"),
            (ProcessorConfig, "memory_latency_ns"),
        ],
    )
    def test_non_finite_float_field_raises_naming_it(self, config, field, value):
        # NaN passes every `< 0` check: a NaN jitter sigma used to hang
        # both interpreters, a NaN window or memory latency to "work".
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            config(**{field: value})


class TestDomains:
    def test_five_domains(self):
        assert len(Domain) == 5

    def test_external_not_controllable(self):
        assert not Domain.EXTERNAL.is_controllable
        assert Domain.INTEGER.is_controllable

    def test_controlled_domains_excludes_front_end_and_external(self):
        assert Domain.FRONT_END not in CONTROLLED_DOMAINS
        assert Domain.EXTERNAL not in CONTROLLED_DOMAINS
        assert len(CONTROLLED_DOMAINS) == 3
