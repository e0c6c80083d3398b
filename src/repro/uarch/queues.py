"""Decoupling queues: issue queues, load/store queue, reorder buffer.

These are the structures the Attack/Decay controller observes: each
controlled domain has a queue at its input, and the controller's signal
is the queue's occupancy accumulated every domain cycle and normalised
by the interval length in instructions (paper Section 3 / Figure 3
caption — the average can exceed the queue size when an interval takes
more cycles than instructions).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError


class IssueQueue:
    """A bounded in-order-scan issue window.

    Entries are opaque to the queue (the core stores small lists); the
    queue provides capacity checking and per-cycle occupancy
    accumulation.  Entries are kept in dispatch order, so the core's
    issue scan is oldest-first.
    """

    __slots__ = ("name", "capacity", "entries", "occupancy_accumulated", "writes")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.entries: list = []
        #: Sum over observed cycles of instantaneous occupancy.
        self.occupancy_accumulated = 0
        #: Total entries ever written (energy/traffic accounting).
        self.writes = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def has_space(self) -> bool:
        """Whether one more entry fits."""
        return len(self.entries) < self.capacity

    def write(self, entry) -> None:
        """Append ``entry``; raises if the queue is full."""
        if len(self.entries) >= self.capacity:
            raise SimulationError(f"{self.name}: write to full queue")
        self.entries.append(entry)
        self.writes += 1

    def accumulate_occupancy(self, cycles: int = 1) -> None:
        """Record instantaneous occupancy for ``cycles`` clock cycles."""
        self.occupancy_accumulated += len(self.entries) * cycles

    def take_occupancy(self) -> int:
        """Return and reset the accumulated occupancy (interval rollover)."""
        value = self.occupancy_accumulated
        self.occupancy_accumulated = 0
        return value


class ReorderBuffer:
    """In-order retirement window (ROB).

    Stores sequence numbers in dispatch order; the core retires from
    the head when the instruction's completion is visible in the
    front-end domain.
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("ROB capacity must be positive")
        self.capacity = capacity
        self.entries: deque[int] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def has_space(self) -> bool:
        """Whether one more instruction can dispatch."""
        return len(self.entries) < self.capacity

    @property
    def head(self) -> int:
        """Sequence number at the head (next to retire)."""
        return self.entries[0]

    def dispatch(self, seq: int) -> None:
        """Insert ``seq`` at the tail."""
        if len(self.entries) >= self.capacity:
            raise SimulationError("ROB overflow")
        self.entries.append(seq)

    def retire_head(self) -> int:
        """Remove and return the head sequence number."""
        return self.entries.popleft()


class RegisterFile:
    """Physical register rename pool (counter model).

    Table 4 gives 72 integer + 72 floating-point physical registers;
    with 32 architectural registers each, 40 are available for rename.
    Dispatch blocks when no free register of the needed type remains,
    and retirement frees the previous mapping.
    """

    __slots__ = ("total", "free")

    ARCHITECTURAL = 32

    def __init__(self, total: int) -> None:
        if total <= self.ARCHITECTURAL:
            raise SimulationError(
                f"physical register file ({total}) must exceed "
                f"{self.ARCHITECTURAL} architectural registers"
            )
        self.total = total
        self.free = total - self.ARCHITECTURAL

    @property
    def has_free(self) -> bool:
        """Whether a rename register is available."""
        return self.free > 0

    def allocate(self) -> None:
        """Take one rename register."""
        if self.free <= 0:
            raise SimulationError("register file underflow")
        self.free -= 1

    def release(self) -> None:
        """Return one rename register (at retirement)."""
        if self.free >= self.total - self.ARCHITECTURAL:
            raise SimulationError("register file overflow")
        self.free += 1
