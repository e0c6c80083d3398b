"""Focused tests of the crossing rules inside the core.

These pin the timing semantics docs/design.md §4 describes: the synchronous
baseline's crossing threshold degenerates to the classic next-edge
pipeline stage, and MCD crossings pay the Sjogren-Myers window.
"""

import pytest

from repro.config.mcd import MCDConfig
from repro.config.processor import ProcessorConfig
from repro.uarch.core import CoreOptions, MCDCore
from repro.uarch.isa import InstructionClass
from repro.uarch.trace import InstructionBlock, ListTrace


def run_chain(n: int, mcd: bool, seed: int = 1, dist: int = 1):
    """A pure serial INT_ALU chain of length n."""
    block = InstructionBlock()
    for _ in range(n):
        block.append(InstructionClass.INT_ALU, src1=dist)
    core = MCDCore(
        ProcessorConfig(),
        MCDConfig(),
        ListTrace([block]),
        options=CoreOptions(mcd=mcd, seed=seed, interval_instructions=10_000),
    )
    return core.run()


class TestSyncBaselineTiming:
    def test_serial_chain_is_one_cycle_per_link(self):
        # Same-domain back-to-back ALU ops: cycle-exact 1 CPI, plus a
        # small pipeline fill/drain allowance.
        result = run_chain(2000, mcd=False)
        assert result.cpi == pytest.approx(1.0, abs=0.05)

    def test_chain_timing_independent_of_dep_distance_when_saturated(self):
        # dist=2 gives two independent chains -> ~0.5 CPI.
        result = run_chain(2000, mcd=False, dist=2)
        assert result.cpi == pytest.approx(0.5, abs=0.05)


class TestMCDTiming:
    def test_mcd_serial_chain_close_to_sync(self):
        # Same-domain chains are tracked in cycles: jitter cannot slow
        # them.  Only dispatch/retire crossings differ slightly.
        sync = run_chain(2000, mcd=False)
        mcd = run_chain(2000, mcd=True)
        assert mcd.wall_time_ns == pytest.approx(sync.wall_time_ns, rel=0.05)

    def test_mcd_jitter_changes_timing_across_seeds(self):
        a = run_chain(1000, mcd=True, seed=1)
        b = run_chain(1000, mcd=True, seed=2)
        assert a.wall_time_ns != b.wall_time_ns

    def test_load_use_chain_crossing_band(self):
        # LOAD -> INT_ALU -> LOAD ... alternating domains every link.
        # Sync pays exactly one cycle per crossing (next aligned edge);
        # MCD pays the first edge >= fin + window — on average ~0.8
        # cycles plus jitter, so a crossing-dominated chain can come
        # out slightly *faster* or slower than sync.  What matters is
        # the band: well within a cycle per link either way (the
        # suite-level inherent degradation is separately calibrated).
        def build(mcd: bool, seed: int = 3):
            block = InstructionBlock()
            for i in range(3000):
                if i % 2 == 0:
                    block.append(InstructionClass.LOAD, src1=1, addr=64 * (i % 32))
                else:
                    block.append(InstructionClass.INT_ALU, src1=1)
            core = MCDCore(
                ProcessorConfig(),
                MCDConfig(),
                ListTrace([block]),
                options=CoreOptions(mcd=mcd, seed=seed, interval_instructions=10_000),
            )
            return core.run()

        sync = build(mcd=False)
        times = [build(mcd=True, seed=s).wall_time_ns for s in range(3, 8)]
        mean_mcd = sum(times) / len(times)
        ratio = mean_mcd / sync.wall_time_ns
        assert 0.80 < ratio < 1.35
