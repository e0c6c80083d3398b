"""Set-associative caches and the L1I/L1D/L2/memory hierarchy.

The hierarchy mirrors Table 4: split 64 KB 2-way L1 caches, a unified
1 MB direct-mapped L2, and main memory in the external clock domain.
Lookups return the *level* that served the access; the core converts
levels into latencies using the current load/store-domain clock period
(L1/L2 latencies are in load/store cycles, memory latency is wall-clock
nanoseconds, paper Section 2/4).

Replacement is LRU.  The model is tag-only (no data movement) and
allocate-on-miss for both loads and stores (stores are treated as
write-allocate, matching SimpleScalar's default).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass

from repro.config.processor import ProcessorConfig
from repro.errors import ConfigError


class MemoryLevel(enum.IntEnum):
    """The level of the hierarchy that serviced an access."""

    L1 = 1
    L2 = 2
    MEMORY = 3


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Miss fraction (0 when never accessed)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses


class SetAssociativeCache:
    """A tag-only set-associative cache with LRU replacement.

    The state is two flat ``array('q')`` buffers that the native loop
    (``_hotpath.c``) reads and writes in place: ``tags`` holds set
    ``s`` in ``tags[s * ways : s * ways + counts[s]]``, least recently
    used way first, and ``counts[s]`` is that set's number of valid
    ways.  :meth:`access` applies exactly the set-LRU update of the C
    ``cache_access`` helper.

    Parameters
    ----------
    size_kb:
        Capacity in kibibytes.
    ways:
        Associativity (1 = direct mapped).
    line_bytes:
        Line size; addresses are split as tag | set | offset.
    name:
        Diagnostic label.
    """

    __slots__ = ("name", "sets", "ways", "line_shift", "stats", "tags", "counts")

    def __init__(self, size_kb: int, ways: int, line_bytes: int, name: str) -> None:
        lines = size_kb * 1024 // line_bytes
        if lines == 0 or lines % ways:
            raise ConfigError(f"{name}: invalid geometry")
        if line_bytes & (line_bytes - 1):
            raise ConfigError(f"{name}: line size must be a power of two")
        self.name = name
        self.sets = lines // ways
        self.ways = ways
        self.line_shift = line_bytes.bit_length() - 1
        self.stats = CacheStats()
        self.tags = array("q", bytes(8 * lines))
        self.counts = array("q", bytes(8 * self.sets))

    def access(self, address: int) -> bool:
        """Look up ``address``; allocate on miss.  Returns hit?"""
        line = address >> self.line_shift
        index = line % self.sets
        tag = line // self.sets
        stats = self.stats
        stats.accesses += 1
        tags = self.tags
        base = index * self.ways
        top = base + self.counts[index] - 1  # the MRU way (base - 1: empty set)
        if top >= base and tags[top] == tag:
            return True
        way = base
        while way < top and tags[way] != tag:
            way += 1
        hit = way < top
        if not hit:
            stats.misses += 1
            if top - base + 1 < self.ways:  # allocate a free way
                tags[top + 1] = tag
                self.counts[index] += 1
                return False
            way = base  # evict the LRU way
        while way < top:
            tags[way] = tags[way + 1]
            way += 1
        tags[top] = tag
        return hit

    def probe(self, address: int) -> bool:
        """Non-allocating, non-counting lookup (tests/diagnostics)."""
        line = address >> self.line_shift
        return line // self.sets in self.valid_ways(line % self.sets)

    def valid_ways(self, index: int) -> list[int]:
        """Set ``index``'s valid tags, most recently used last."""
        base = index * self.ways
        return self.tags[base : base + self.counts[index]].tolist()


class CacheHierarchy:
    """Split L1s over a unified L2 over main memory.

    The unified L2 is shared by instruction and data misses, so an
    instruction-fetch storm can evict data lines and vice versa —
    behaviour the gcc init-phase analysis in the paper leans on.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.l1i = SetAssociativeCache(
            config.l1i_kb, config.l1i_ways, config.line_bytes, "L1I"
        )
        self.l1d = SetAssociativeCache(
            config.l1d_kb, config.l1d_ways, config.line_bytes, "L1D"
        )
        self.l2 = SetAssociativeCache(
            config.l2_kb, config.l2_ways, config.line_bytes, "L2"
        )

    def data_access(self, address: int) -> MemoryLevel:
        """Access the data path; returns the servicing level."""
        if self.l1d.access(address):
            return MemoryLevel.L1
        if self.l2.access(address):
            return MemoryLevel.L2
        return MemoryLevel.MEMORY

    def instruction_access(self, address: int) -> MemoryLevel:
        """Access the instruction path; returns the servicing level."""
        if self.l1i.access(address):
            return MemoryLevel.L1
        if self.l2.access(address):
            return MemoryLevel.L2
        return MemoryLevel.MEMORY
