"""Tests for the energy table, the accounting constants and the meters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.mcd import Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.control.base import CORE_DOMAINS
from repro.errors import ConfigError
from repro.power.accounting import IDLE_RESIDUAL, EnergyAccounting
from repro.power.wattch import DEFAULT_ENERGIES, AccessEnergies
from repro.uarch.core import MCDCore
from repro.uarch.isa import InstructionClass
from repro.uarch.trace import InstructionBlock, ListTrace


class TestAccessEnergies:
    def test_defaults_non_negative(self):
        for name, value in DEFAULT_ENERGIES.__dict__.items():
            assert value >= 0, name

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError):
            AccessEnergies(l1d_access=-0.1)

    def test_external_domain_has_no_clock(self):
        assert DEFAULT_ENERGIES.clock_energy(Domain.EXTERNAL) == 0.0

    def test_each_domain_has_clock_energy(self):
        for domain in (
            Domain.FRONT_END,
            Domain.INTEGER,
            Domain.FLOATING_POINT,
            Domain.LOAD_STORE,
        ):
            assert DEFAULT_ENERGIES.clock_energy(domain) > 0

    def test_idle_overhead_positive_on_chip(self):
        assert DEFAULT_ENERGIES.idle_overhead(Domain.FLOATING_POINT) > 0
        assert DEFAULT_ENERGIES.idle_overhead(Domain.EXTERNAL) == 0.0


def _core(mcd_config):
    block = InstructionBlock()
    block.append(InstructionClass.INT_ALU)
    return MCDCore(ProcessorConfig(), mcd_config, ListTrace([block]))


class TestAccounting:
    def test_voltage_scaling_quadratic(self, mcd_config):
        tables = _core(mcd_config)._operating_point_tables()
        _, vscale_of, clock_e, idle_e, _, _ = tables
        vmax = mcd_config.max_voltage_v
        for mhz in (250.0, 400.0, 625.0, 1000.0):
            v = mcd_config.voltage_for_frequency(mhz)
            assert vscale_of(mhz) == pytest.approx((v / vmax) ** 2)
        assert vscale_of(mcd_config.max_frequency_mhz) == pytest.approx(1.0)
        # 250 MHz runs at 0.65 V: (0.65/1.2)² of the energy at Vmax.
        assert vscale_of(mcd_config.min_frequency_mhz) == pytest.approx(
            (0.65 / 1.20) ** 2
        )
        acct = EnergyAccounting(mcd_config)
        assert clock_e == [acct.clock_cycle_energy(d) for d in CORE_DOMAINS]
        assert idle_e == [acct.idle_cycle_energy(d) for d in CORE_DOMAINS]

    def test_mcd_clock_overhead_applied_to_clock_only(self, mcd_config):
        sync = EnergyAccounting(mcd_config, mcd_clocking=False)
        mcd = EnergyAccounting(mcd_config, mcd_clocking=True)
        clock = DEFAULT_ENERGIES.clock_integer
        assert sync.clock_cycle_energy(Domain.INTEGER) == pytest.approx(clock)
        assert mcd.clock_cycle_energy(Domain.INTEGER) - sync.clock_cycle_energy(
            Domain.INTEGER
        ) == pytest.approx(0.10 * clock)
        # The gated idle datapath share carries no clock overhead.
        assert mcd.idle_cycle_energy(Domain.INTEGER) - sync.idle_cycle_energy(
            Domain.INTEGER
        ) == pytest.approx(IDLE_RESIDUAL * 0.10 * clock)

    @pytest.mark.parametrize("mcd_clocking", [True, False])
    def test_idle_cycle_is_the_gated_residual(self, mcd_config, mcd_clocking):
        assert IDLE_RESIDUAL == 0.18
        acct = EnergyAccounting(mcd_config, mcd_clocking=mcd_clocking)
        for domain in CORE_DOMAINS:
            busy = acct.clock_cycle_energy(domain)
            idle = acct.idle_cycle_energy(domain)
            assert idle == pytest.approx(
                IDLE_RESIDUAL * (busy + DEFAULT_ENERGIES.idle_overhead(domain))
            )
            assert idle < busy

    def test_memory_access_charged_to_external(self, mcd_config):
        acct = EnergyAccounting(mcd_config)
        acct.add_memory_accesses(0)
        assert acct.total_energy == 0.0
        acct.add_memory_accesses(3)
        external = acct.meters[Domain.EXTERNAL].structure_energy
        assert external == pytest.approx(3 * DEFAULT_ENERGIES.memory_access)
        assert acct.total_energy == external
        assert acct.total_clock_energy == 0.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(CORE_DOMAINS),
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=10.0),
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100)
    def test_flushes_accumulate(self, flushes):
        acct = EnergyAccounting(MCDConfig())
        for domain, clock, structure, busy, idle in flushes:
            acct.add_raw(domain, clock, structure, busy, idle)
        assert acct.total_clock_energy == pytest.approx(sum(f[1] for f in flushes))
        assert acct.total_energy == pytest.approx(sum(f[1] + f[2] for f in flushes))
        for domain in CORE_DOMAINS:
            mine = [f for f in flushes if f[0] is domain]
            meter = acct.meters[domain]
            assert meter.busy_cycles == sum(f[3] for f in mine)
            assert meter.cycles == sum(f[3] + f[4] for f in mine)
