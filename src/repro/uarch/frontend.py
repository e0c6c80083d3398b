"""Front-end trace cursor: block iteration with cheap element access.

The *reference* fetch path consumes the workload's instruction blocks
one element at a time.  :class:`TraceCursor` hides block boundaries
and exposes the struct-of-arrays fields of the current instruction
through plain attribute reads, keeping that loop free of iterator
overhead and allocation.  The native loop does not use a cursor at
all — it walks the compiled columns
(:mod:`repro.uarch.compiled_trace`) by integer index.
"""

from __future__ import annotations

from repro.uarch.trace import InstructionBlock, TraceStream


class TraceCursor:
    """Single-pass cursor over a :class:`TraceStream`.

    Usage pattern in the fetch loop::

        while not cursor.exhausted:
            kind = cursor.kind  # peek fields of the current instruction
            ...
            cursor.pop()        # then consume it
    """

    __slots__ = (
        "_iter",
        "_block",
        "_index",
        "_length",
        "consumed",
        "total_instructions",
    )

    def __init__(self, trace: TraceStream) -> None:
        self._iter = trace.blocks()
        self._block: InstructionBlock | None = None
        self._index = 0
        self._length = 0
        self.consumed = 0
        self.total_instructions = trace.total_instructions
        self._advance_block()

    def _advance_block(self) -> None:
        while True:
            block = next(self._iter, None)
            if block is None:
                self._block = None
                self._length = 0
                self._index = 0
                return
            if len(block):
                self._block = block
                self._index = 0
                self._length = len(block)
                return

    @property
    def exhausted(self) -> bool:
        """True when every instruction has been consumed."""
        return self._block is None

    # --- field peeks (current instruction) ----------------------------------
    @property
    def kind(self) -> int:
        """Instruction class code of the current instruction."""
        return self._block.kinds[self._index]

    @property
    def src1(self) -> int:
        """First dependency distance."""
        return self._block.src1[self._index]

    @property
    def src2(self) -> int:
        """Second dependency distance."""
        return self._block.src2[self._index]

    @property
    def pc(self) -> int:
        """Instruction address."""
        return self._block.pcs[self._index]

    @property
    def addr(self) -> int:
        """Effective address (loads/stores)."""
        return self._block.addrs[self._index]

    @property
    def taken(self) -> bool:
        """Branch outcome."""
        return self._block.taken[self._index]

    @property
    def target(self) -> int:
        """Branch target address."""
        return self._block.targets[self._index]

    def pop(self) -> None:
        """Consume the current instruction."""
        self.consumed += 1
        self._index += 1
        if self._index >= self._length:
            self._advance_block()
