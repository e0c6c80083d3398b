"""Instruction classes of the trace-driven ISA.

The simulator is trace driven: workloads emit a stream of dynamic
instructions, each tagged with one of these classes.  The class
determines which domain executes the instruction, which issue queue
buffers it, which functional unit it needs and its execution latency.
"""

from __future__ import annotations

import enum

from repro.config.mcd import Domain


class InstructionClass(enum.IntEnum):
    """Dynamic instruction classes.

    IntEnum so trace blocks can store compact integer codes; the
    numeric values are part of the trace format and must not change.
    """

    INT_ALU = 0
    INT_MULT = 1
    FP_ALU = 2
    FP_MULT = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6

    @property
    def domain(self) -> Domain:
        """The execution domain for this class."""
        return _DOMAIN_OF[self]


_DOMAIN_OF = {
    InstructionClass.INT_ALU: Domain.INTEGER,
    InstructionClass.INT_MULT: Domain.INTEGER,
    InstructionClass.FP_ALU: Domain.FLOATING_POINT,
    InstructionClass.FP_MULT: Domain.FLOATING_POINT,
    InstructionClass.LOAD: Domain.LOAD_STORE,
    InstructionClass.STORE: Domain.LOAD_STORE,
    InstructionClass.BRANCH: Domain.INTEGER,
}

#: Number of distinct instruction classes (trace-format constant).
NUM_CLASSES = len(InstructionClass)

#: Destination register type per class code: 0 integer, 1 floating
#: point, -1 no destination.  Shared by the core's dispatch loop and the
#: trace compiler (:mod:`repro.uarch.compiled_trace`) so both paths
#: rename identically.
DEST_REGISTER_TYPE: dict[int, int] = {
    int(InstructionClass.INT_ALU): 0,
    int(InstructionClass.INT_MULT): 0,
    int(InstructionClass.FP_ALU): 1,
    int(InstructionClass.FP_MULT): 1,
    int(InstructionClass.LOAD): 0,
    int(InstructionClass.STORE): -1,
    int(InstructionClass.BRANCH): -1,
}

#: Issue-domain index per class code, using the core's domain ordering
#: (0 front end, 1 integer, 2 floating point, 3 load/store).  Branches
#: issue to the integer domain (they execute on integer ALUs).
ISSUE_DOMAIN_INDEX: dict[int, int] = {
    int(InstructionClass.INT_ALU): 1,
    int(InstructionClass.INT_MULT): 1,
    int(InstructionClass.FP_ALU): 2,
    int(InstructionClass.FP_MULT): 2,
    int(InstructionClass.LOAD): 3,
    int(InstructionClass.STORE): 3,
    int(InstructionClass.BRANCH): 1,
}
