"""Tests for the trace format, synthetic generator and catalog."""

import pytest

from repro.errors import TraceError, WorkloadError
from repro.uarch.compiled_trace import COLUMNS
from repro.uarch.isa import InstructionClass
from repro.uarch.trace import MAX_DEP_DISTANCE, InstructionBlock, ListTrace
from repro.workloads.catalog import BENCHMARKS, benchmark_names, get_benchmark
from repro.workloads.phases import INT_COMPUTE_MIX, Phase
from repro.workloads.synthetic import _BLOCK, SyntheticTrace


class TestInstructionBlock:
    def test_append_and_len(self):
        b = InstructionBlock()
        b.append(InstructionClass.INT_ALU, src1=1)
        b.append(InstructionClass.LOAD, addr=64)
        assert len(b) == 2
        b.validate()

    def test_validate_rejects_mismatched_arrays(self):
        b = InstructionBlock(kinds=[0, 1], src1=[0])
        with pytest.raises(TraceError):
            b.validate()

    def test_validate_rejects_bad_class(self):
        b = InstructionBlock()
        b.append(InstructionClass.INT_ALU)
        b.kinds[0] = 99
        with pytest.raises(TraceError):
            b.validate()

    def test_validate_rejects_excess_dep_distance(self):
        b = InstructionBlock()
        b.append(InstructionClass.INT_ALU, src1=MAX_DEP_DISTANCE + 1)
        with pytest.raises(TraceError):
            b.validate()

    def test_class_counts(self):
        b = InstructionBlock()
        b.append(InstructionClass.LOAD)
        b.append(InstructionClass.LOAD)
        b.append(InstructionClass.BRANCH)
        counts = b.class_counts()
        assert counts[InstructionClass.LOAD] == 2
        assert counts[InstructionClass.BRANCH] == 1


class TestListTrace:
    def test_total_and_iteration(self):
        b = InstructionBlock()
        b.append(InstructionClass.INT_ALU)
        trace = ListTrace([b, b])
        assert trace.total_instructions == 2
        assert len(list(trace.blocks())) == 2


class TestPhase:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            Phase("p", 100, {InstructionClass.INT_ALU: 0.5})

    def test_negative_instructions_rejected(self):
        with pytest.raises(WorkloadError):
            Phase("p", 0, INT_COMPUTE_MIX)

    def test_fraction_fields_validated(self):
        with pytest.raises(WorkloadError):
            Phase("p", 100, INT_COMPUTE_MIX, dep_density=1.5)

    def test_scaled_rounds_and_clamps(self):
        p = Phase("p", 1000, INT_COMPUTE_MIX)
        assert p.scaled(0.5).instructions == 500
        assert p.scaled(0.00001).instructions == 1


class TestSyntheticTrace:
    def _trace(self, **kw) -> SyntheticTrace:
        phase = Phase("p", 10_000, INT_COMPUTE_MIX, **kw)
        return SyntheticTrace([phase], seed=3)

    def test_exact_length(self):
        t = self._trace()
        total = sum(len(b) for b in t.blocks())
        assert total == t.total_instructions == 10_000

    def test_blocks_are_valid(self):
        t = self._trace()
        for block in t.blocks():
            block.validate()

    def test_deterministic(self):
        a = self._trace()
        b = self._trace()
        for ba, bb in zip(a.blocks(), b.blocks()):
            assert ba.kinds == bb.kinds
            assert ba.addrs == bb.addrs
            assert ba.taken == bb.taken

    def test_mix_fractions_approximated(self):
        t = self._trace()
        counts = dict.fromkeys(InstructionClass, 0)
        total = 0
        for block in t.blocks():
            for k, v in block.class_counts().items():
                counts[k] += v
            total += len(block)
        for klass, expect in INT_COMPUTE_MIX.items():
            got = counts[klass] / total
            assert got == pytest.approx(expect, abs=0.05)

    def test_static_program_image_stable(self):
        # A given pc must always carry the same instruction class.
        t = self._trace()
        seen: dict[int, int] = {}
        for block in t.blocks():
            for pc, kind in zip(block.pcs, block.kinds):
                assert seen.setdefault(pc, kind) == kind

    def test_branch_targets_stable_per_pc(self):
        t = self._trace()
        seen: dict[int, int] = {}
        for block in t.blocks():
            for i, kind in enumerate(block.kinds):
                if kind == int(InstructionClass.BRANCH) and block.taken[i]:
                    pc, tgt = block.pcs[i], block.targets[i]
                    assert seen.setdefault(pc, tgt) == tgt

    def test_memory_ops_have_addresses(self):
        t = self._trace()
        for block in t.blocks():
            for i, kind in enumerate(block.kinds):
                if kind in (int(InstructionClass.LOAD), int(InstructionClass.STORE)):
                    assert block.addrs[i] > 0

    def test_far_fraction_produces_far_addresses(self):
        t = self._trace(far_miss_fraction=0.5)
        far = near = 0
        for block in t.blocks():
            for i, kind in enumerate(block.kinds):
                if kind in (int(InstructionClass.LOAD), int(InstructionClass.STORE)):
                    if block.addrs[i] >= 1 << 32:
                        far += 1
                    else:
                        near += 1
        assert far / (far + near) == pytest.approx(0.5, abs=0.1)

    def test_empty_phases_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticTrace([])


class TestSyntheticColumns:
    """``columns()`` writes the ``blocks()`` stream into preallocated columns.

    Each narrowed block lands at its offset in columns sized to the
    trace, so these pin the offsets at every block and phase boundary
    (a phase's last block is partial), the ``COLUMNS`` dtypes, and the
    per-block range check.
    """

    @staticmethod
    def _assert_columns_match_blocks(trace: SyntheticTrace) -> None:
        columns = trace.columns()
        flat: list[list[int]] = [[] for _ in COLUMNS]
        for block in trace.blocks():
            fields = (
                block.kinds,
                block.src1,
                block.src2,
                block.pcs,
                block.addrs,
                block.taken,
                block.targets,
            )
            for store, field in zip(flat, fields):
                store.extend(int(value) for value in field)
        assert len(columns) == len(COLUMNS)
        for (name, dtype, _, _), column, expected in zip(COLUMNS, columns, flat):
            assert column.dtype == dtype, name
            assert len(column) == trace.total_instructions, name
            assert column.tolist() == expected, name

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_catalog_columns_match_blocks(self, name):
        trace = get_benchmark(name).build_trace(scale=0.37)
        self._assert_columns_match_blocks(trace)

    @pytest.mark.parametrize(
        "lengths",
        [(1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (2 * _BLOCK + 7, 1, _BLOCK, 3)],
        ids=lambda lengths: "+".join(map(str, lengths)),
    )
    def test_columns_match_blocks_at_boundaries(self, lengths):
        phases = [Phase(f"p{i}", n, INT_COMPUTE_MIX) for i, n in enumerate(lengths)]
        self._assert_columns_match_blocks(SyntheticTrace(phases, seed=5))

    def test_late_out_of_range_block_raises(self):
        # Four KB below the pcs column's limit: the first phase's 1 KB
        # image fits, the second phase's 16 KB loop body walks past it.
        code_base = 2**32 - 4096
        fits = Phase("fits", 5000, INT_COMPUTE_MIX, code_footprint_kb=1)
        spills = Phase(
            "spills",
            5000,
            INT_COMPUTE_MIX,
            code_footprint_kb=64,
            loop_body_bytes=16384,
        )
        SyntheticTrace([fits], seed=3, code_base=code_base).columns()
        trace = SyntheticTrace([fits, spills], seed=3, code_base=code_base)
        with pytest.raises(TraceError, match="trace column pcs"):
            trace.columns()


class TestCatalog:
    def test_thirty_benchmarks(self):
        assert len(BENCHMARKS) == 30

    def test_suites_match_table5(self):
        suites = {s.suite for s in BENCHMARKS.values()}
        assert suites == {"MediaBench", "Olden", "Spec2000 INT", "Spec2000 FP"}
        assert len(benchmark_names("MediaBench")) == 9
        assert len(benchmark_names("Olden")) == 10
        assert len(benchmark_names("Spec2000 INT")) == 7
        assert len(benchmark_names("Spec2000 FP")) == 4

    def test_unknown_benchmark_raises(self):
        with pytest.raises(WorkloadError):
            get_benchmark("nonesuch")

    def test_windows_are_scaled_sensibly(self):
        for spec in BENCHMARKS.values():
            assert 50_000 <= spec.sim_instructions <= 200_000, spec.name
            # Hundreds of control intervals per run.
            intervals = spec.sim_instructions / spec.interval_instructions
            assert intervals >= 100, spec.name

    def test_traces_build_and_have_exact_length(self):
        spec = get_benchmark("adpcm")
        trace = spec.build_trace()
        assert trace.total_instructions == spec.sim_instructions

    def test_scale_shrinks_trace(self):
        spec = get_benchmark("adpcm")
        assert spec.build_trace(scale=0.1).total_instructions == pytest.approx(
            spec.sim_instructions * 0.1, rel=0.01
        )

    def test_epic_has_two_fp_bursts(self):
        spec = get_benchmark("epic")
        fp_phases = [p for p in spec.phases if "fp_burst" in p.name]
        assert len(fp_phases) == 2

    def test_weights_positive(self):
        assert all(s.paper_minstructions > 0 for s in BENCHMARKS.values())
