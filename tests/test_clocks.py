"""Tests for jitter models, domain clocks and the synchronizer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.domain_clock import DomainClock
from repro.clocks.jitter import GaussianJitter, NoJitter
from repro.clocks.synchronizer import Synchronizer, SynchronizerStats
from repro.config.mcd import Domain
from repro.errors import ClockError


class TestJitter:
    def test_no_jitter_is_zero(self):
        j = NoJitter()
        assert all(j.sample() == 0.0 for _ in range(100))

    def test_gaussian_jitter_statistics(self):
        j = GaussianJitter(sigma_ns=0.110, seed=42)
        samples = [j.sample() for _ in range(50_000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert abs(mean) < 0.005
        assert math.sqrt(var) == pytest.approx(0.110, rel=0.05)

    def test_gaussian_jitter_clipped(self):
        j = GaussianJitter(sigma_ns=0.110, seed=1, clip_sigmas=3.0)
        assert all(abs(j.sample()) <= 0.330 + 1e-12 for _ in range(100_000))

    def test_deterministic_for_same_seed(self):
        a = GaussianJitter(0.1, seed=7)
        b = GaussianJitter(0.1, seed=7)
        assert [a.sample() for _ in range(1000)] == [b.sample() for _ in range(1000)]

    def test_different_seeds_differ(self):
        a = GaussianJitter(0.1, seed=7)
        b = GaussianJitter(0.1, seed=8)
        assert [a.sample() for _ in range(10)] != [b.sample() for _ in range(10)]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianJitter(-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("field", ["sigma_ns", "clip_sigmas"])
    def test_non_finite_or_negative_parameter_rejected(self, field, value):
        kwargs = {"sigma_ns": 0.110, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GaussianJitter(**kwargs)


class TestDomainClock:
    def test_initial_edge_at_phase(self):
        clock = DomainClock("x", 1000.0, phase_ns=0.25)
        assert clock.next_edge_ns == 0.25
        assert clock.cycle_index == 0

    def test_advance_steps_by_period(self):
        clock = DomainClock("x", 1000.0)
        clock.advance()
        assert clock.next_edge_ns == pytest.approx(1.0)
        clock.advance()
        assert clock.next_edge_ns == pytest.approx(2.0)
        assert clock.cycle_index == 2

    def test_frequency_round_trip(self):
        clock = DomainClock("x", 250.0)
        assert clock.frequency_mhz == pytest.approx(250.0)
        clock.set_frequency(500.0)
        assert clock.period_ns == pytest.approx(2.0)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ClockError):
            DomainClock("x", 0.0)
        clock = DomainClock("x", 1000.0)
        with pytest.raises(ClockError):
            clock.set_frequency(-1.0)

    def test_negative_phase_rejected(self):
        with pytest.raises(ClockError):
            DomainClock("x", 1000.0, phase_ns=-1.0)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30)
    def test_edges_strictly_monotone_with_jitter(self, n):
        clock = DomainClock("x", 1000.0, jitter=GaussianJitter(0.110, seed=3))
        last = clock.next_edge_ns
        for _ in range(n):
            now = clock.advance()
            assert now > last
            last = now

    def test_skip_idle_until_reaches_target(self):
        clock = DomainClock("x", 1000.0)
        skipped = clock.skip_idle_until(100.5)
        assert skipped == 101  # edges at 0,1,...: first edge >= 100.5 is 101
        assert clock.next_edge_ns >= 100.5
        assert clock.cycle_index == skipped

    def test_skip_idle_noop_when_in_past(self):
        clock = DomainClock("x", 1000.0, phase_ns=5.0)
        assert clock.skip_idle_until(2.0) == 0
        assert clock.next_edge_ns == 5.0

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=100)
    def test_skip_idle_lands_within_one_period(self, period_ghz_inv, target):
        clock = DomainClock("x", 1e3 / period_ghz_inv)
        clock.skip_idle_until(target)
        assert clock.next_edge_ns >= target - 1e-9
        assert clock.next_edge_ns < target + period_ghz_inv + 1e-6


class TestSynchronizer:
    def test_window_rule(self):
        sync = Synchronizer(window_ns=0.3)
        assert sync.visible(write_time_ns=0.0, dst_edge_ns=0.3)
        assert not sync.visible(write_time_ns=0.0, dst_edge_ns=0.29)
        assert sync.visible(write_time_ns=0.0, dst_edge_ns=1.0)

    def test_zero_window_always_visible_at_or_after(self):
        sync = Synchronizer(window_ns=0.0)
        assert sync.visible(1.0, 1.0)
        assert not sync.visible(1.0, 0.5)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Synchronizer(-0.1)

    def test_stats_record_deferrals(self):
        sync = Synchronizer(window_ns=0.3)
        sync.visible_recorded(0.0, 0.1, Domain.FRONT_END, Domain.INTEGER)
        sync.visible_recorded(0.0, 0.5, Domain.FRONT_END, Domain.INTEGER)
        assert sync.stats.attempts == 2
        assert sync.stats.deferrals == 1
        assert sync.stats.deferral_rate == pytest.approx(0.5)
        assert sync.stats.by_edge[("front_end", "integer")] == 1

    def test_earlier_edges_not_counted_as_attempts(self):
        sync = Synchronizer(window_ns=0.3)
        sync.visible_recorded(1.0, 0.5, Domain.INTEGER, Domain.FRONT_END)
        assert sync.stats.attempts == 0

    def test_empty_stats(self):
        stats = SynchronizerStats()
        assert stats.deferral_rate == 0.0
