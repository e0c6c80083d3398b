"""Tests for issue queues, ROB and register file."""

import pytest

from repro.config.mcd import MCDConfig
from repro.config.processor import ProcessorConfig
from repro.errors import SimulationError
from repro.uarch.core import MCDCore
from repro.uarch.isa import InstructionClass
from repro.uarch.queues import IssueQueue, RegisterFile, ReorderBuffer
from repro.uarch.trace import InstructionBlock, ListTrace


class TestIssueQueue:
    def test_take_occupancy_resets(self):
        q = IssueQueue("IIQ", 4)
        q.occupancy_accumulated += 3
        assert q.take_occupancy() == 3
        assert q.occupancy_accumulated == 0
        assert q.take_occupancy() == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            IssueQueue("bad", 0)


class TestReorderBuffer:
    def test_capacity(self):
        rob = ReorderBuffer(2)
        assert rob.has_space
        rob.entries.extend((1, 2))
        assert not rob.has_space
        rob.entries.popleft()
        assert rob.has_space

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            ReorderBuffer(0)


class TestRegisterFile:
    def test_table4_rename_pool(self):
        assert RegisterFile(72).free == 40  # 72 - 32 architectural
        block = InstructionBlock()
        block.append(InstructionClass.INT_ALU)
        core = MCDCore(ProcessorConfig(), MCDConfig(), ListTrace([block]))
        assert core.int_regs.free == 40
        assert core.fp_regs.free == 40

    def test_too_small_rejected(self):
        with pytest.raises(SimulationError):
            RegisterFile(32)
