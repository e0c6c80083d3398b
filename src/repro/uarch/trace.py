"""Block-structured dynamic instruction traces.

A trace is a sequence of :class:`InstructionBlock` objects, each a
struct-of-arrays over a few thousand dynamic instructions.  Blocks are
produced lazily by workload generators and consumed once by the core's
*reference* interpreter, so arbitrarily long runs use bounded memory.
The native loop runs over the same stream compiled into whole-trace
columnar form instead (:mod:`repro.uarch.compiled_trace`); both views
come from one generator routine and are identical instruction for
instruction.

Per-instruction fields
----------------------
``kinds[i]``
    :class:`~repro.uarch.isa.InstructionClass` code.
``src1[i]``, ``src2[i]``
    Dependency distances: how many dynamic instructions earlier the
    producing instruction ran (0 = no register dependency).  Bounded by
    :data:`MAX_DEP_DISTANCE` so the core can use a fixed-size
    completion ring.
``pcs[i]``
    Instruction address (drives the L1 I-cache and branch predictor).
``addrs[i]``
    Effective address for loads/stores, else 0 (drives L1D/L2).
``taken[i]``
    Branch outcome (branches only).
``targets[i]``
    Branch target address (branches only; drives the BTB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol

from repro.errors import TraceError
from repro.uarch.isa import NUM_CLASSES, InstructionClass

#: Upper bound on register dependency distances in any trace.
MAX_DEP_DISTANCE = 512


@dataclass
class InstructionBlock:
    """A struct-of-arrays block of dynamic instructions.

    All lists have identical length.  Plain Python lists (not numpy)
    because the reference simulation path consumes them element-wise,
    where list indexing beats numpy scalar indexing.
    """

    kinds: list[int] = field(default_factory=list)
    src1: list[int] = field(default_factory=list)
    src2: list[int] = field(default_factory=list)
    pcs: list[int] = field(default_factory=list)
    addrs: list[int] = field(default_factory=list)
    taken: list[bool] = field(default_factory=list)
    targets: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kinds)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TraceError` if broken."""
        n = len(self.kinds)
        arrays = (
            self.src1,
            self.src2,
            self.pcs,
            self.addrs,
            self.taken,
            self.targets,
        )
        if any(len(a) != n for a in arrays):
            raise TraceError("instruction block arrays have mismatched lengths")
        for i in range(n):
            if not 0 <= self.kinds[i] < NUM_CLASSES:
                raise TraceError(f"instruction {i}: bad class code {self.kinds[i]}")
            if not 0 <= self.src1[i] <= MAX_DEP_DISTANCE:
                raise TraceError(f"instruction {i}: src1 distance out of range")
            if not 0 <= self.src2[i] <= MAX_DEP_DISTANCE:
                raise TraceError(f"instruction {i}: src2 distance out of range")
            if self.pcs[i] < 0 or self.addrs[i] < 0 or self.targets[i] < 0:
                raise TraceError(f"instruction {i}: negative address")

    def append(
        self,
        kind: InstructionClass,
        src1: int = 0,
        src2: int = 0,
        pc: int = 0,
        addr: int = 0,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        """Append one instruction (test/builder convenience)."""
        self.kinds.append(int(kind))
        self.src1.append(src1)
        self.src2.append(src2)
        self.pcs.append(pc)
        self.addrs.append(addr)
        self.taken.append(taken)
        self.targets.append(target)

    def class_counts(self) -> dict[InstructionClass, int]:
        """Histogram of instruction classes in this block."""
        counts = dict.fromkeys(InstructionClass, 0)
        for code in self.kinds:
            counts[InstructionClass(code)] += 1
        return counts


class TraceStream(Protocol):
    """A lazily generated sequence of instruction blocks.

    Implementations must also expose the total number of instructions
    they will produce, so the core can size progress accounting.
    """

    @property
    def total_instructions(self) -> int:
        """Exact number of dynamic instructions the stream will yield."""
        ...

    def blocks(self) -> Iterator[InstructionBlock]:
        """Yield the trace, block by block, exactly once."""
        ...


class ListTrace:
    """An in-memory trace over pre-built blocks (tests, tiny examples)."""

    def __init__(self, blocks: Iterable[InstructionBlock]) -> None:
        self._blocks = list(blocks)
        for block in self._blocks:
            block.validate()
        self._total = sum(len(b) for b in self._blocks)

    @property
    def total_instructions(self) -> int:
        """Total instructions across all blocks."""
        return self._total

    def blocks(self) -> Iterator[InstructionBlock]:
        """Iterate over the stored blocks."""
        return iter(self._blocks)
