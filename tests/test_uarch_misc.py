"""Tests for ISA mapping, trace cursor, functional units, Table 4 config."""

import pytest

from repro.config.mcd import Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.errors import ConfigError
from repro.uarch.core import MCDCore
from repro.uarch.frontend import TraceCursor
from repro.uarch.functional_units import FunctionalUnitPool, build_pools
from repro.uarch.isa import NUM_CLASSES, InstructionClass
from repro.uarch.trace import InstructionBlock, ListTrace


class TestISA:
    def test_seven_classes(self):
        assert NUM_CLASSES == 7

    def test_domain_mapping(self):
        assert InstructionClass.INT_ALU.domain is Domain.INTEGER
        assert InstructionClass.BRANCH.domain is Domain.INTEGER
        assert InstructionClass.FP_MULT.domain is Domain.FLOATING_POINT
        assert InstructionClass.LOAD.domain is Domain.LOAD_STORE

    def test_codes_are_stable(self):
        # Trace-format constants: changing these breaks stored traces.
        assert int(InstructionClass.INT_ALU) == 0
        assert int(InstructionClass.BRANCH) == 6


class TestTraceCursor:
    def _trace(self):
        a = InstructionBlock()
        a.append(InstructionClass.INT_ALU, src1=2, pc=4)
        b = InstructionBlock()
        b.append(InstructionClass.LOAD, addr=64, pc=8)
        return ListTrace([a, InstructionBlock(), b])  # empty block skipped

    def test_walks_across_blocks(self):
        cursor = TraceCursor(self._trace())
        assert cursor.kind == int(InstructionClass.INT_ALU)
        assert cursor.src1 == 2
        cursor.pop()
        assert cursor.kind == int(InstructionClass.LOAD)
        assert cursor.addr == 64
        cursor.pop()
        assert cursor.exhausted
        assert cursor.consumed == 2

    def test_total_instructions(self):
        assert TraceCursor(self._trace()).total_instructions == 2


class TestFunctionalUnits:
    def test_build_pools_matches_table4(self, processor_config):
        pools = build_pools(processor_config)
        assert pools["integer"].simple_units == 4
        assert pools["integer"].complex_units == 1
        assert pools["floating_point"].simple_units == 2
        assert pools["load_store"].simple_units == 2
        assert pools["load_store"].complex_units == 0

    def test_complex_classes_and_widths(self, processor_config):
        block = InstructionBlock()
        block.append(InstructionClass.INT_ALU)
        core = MCDCore(processor_config, MCDConfig(), ListTrace([block]))
        complex_kinds = {
            kind for kind in InstructionClass if core._complex[int(kind)]
        }
        assert complex_kinds == {InstructionClass.INT_MULT, InstructionClass.FP_MULT}
        *_, simple_w, complex_w = core._operating_point_tables()
        assert simple_w == [0, 4, 2, 2]
        assert complex_w == [0, 1, 1, 0]

    def test_bad_widths_rejected(self):
        with pytest.raises(ConfigError):
            FunctionalUnitPool(0, 1)
        with pytest.raises(ConfigError):
            FunctionalUnitPool(1, -1)


class TestProcessorConfig:
    def test_table4_defaults(self, processor_config):
        p = processor_config
        assert p.decode_width == 4
        assert p.issue_width == 6
        assert p.retire_width == 11
        assert p.int_issue_queue_size == 20
        assert p.fp_issue_queue_size == 15
        assert p.load_store_queue_size == 64
        assert p.reorder_buffer_size == 80
        assert p.branch_mispredict_penalty == 7
        assert p.l1_latency_cycles == 2
        assert p.l2_latency_cycles == 12

    def test_table4_rows_complete(self, processor_config):
        rows = dict(processor_config.table4_rows())
        assert rows["Decode Width"] == "4"
        assert rows["L2 Unified Cache"] == "1MB, direct mapped"
        assert rows["Integer ALUs"] == "4 + 1 mult/div unit"
        assert rows["Physical Register File Size"] == "72 integer, 72 floating-point"
        assert len(rows) == 21

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(l1d_kb=3, l1d_ways=7, line_bytes=64)

    def test_non_positive_field_rejected(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(decode_width=0)
