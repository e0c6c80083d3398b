"""Tests for the set-associative caches and the hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.processor import ProcessorConfig
from repro.errors import ConfigError
from repro.uarch.caches import CacheHierarchy, MemoryLevel, SetAssociativeCache


class TestSetAssociativeCache:
    def test_compulsory_miss_then_hit(self):
        c = SetAssociativeCache(size_kb=4, ways=2, line_bytes=64, name="t")
        assert not c.access(0x1000)
        assert c.access(0x1000)
        assert c.stats.accesses == 2
        assert c.stats.misses == 1

    def test_same_line_different_offset_hits(self):
        c = SetAssociativeCache(4, 2, 64, "t")
        c.access(0x1000)
        assert c.access(0x103F)  # same 64B line

    def test_lru_eviction_within_set(self):
        # Direct-mapped, 2 sets: lines mapping to the same set conflict.
        c = SetAssociativeCache(size_kb=1, ways=8, line_bytes=64, name="t")
        # 1KB/64B = 16 lines, 8 ways -> 2 sets.  Even lines map to set 0.
        addresses = [i * 128 for i in range(9)]  # nine lines in set 0
        for a in addresses:
            c.access(a)
        assert not c.probe(addresses[0])  # evicted (LRU)
        assert c.probe(addresses[-1])

    def test_probe_does_not_allocate_or_count(self):
        c = SetAssociativeCache(4, 2, 64, "t")
        assert not c.probe(0x5000)
        assert c.stats.accesses == 0
        assert not c.access(0x5000)  # still a miss: probe didn't allocate

    def test_miss_rate(self):
        c = SetAssociativeCache(4, 2, 64, "t")
        c.access(0)
        c.access(0)
        assert c.stats.miss_rate == pytest.approx(0.5)

    def test_zero_accesses_zero_miss_rate(self):
        c = SetAssociativeCache(4, 2, 64, "t")
        assert c.stats.miss_rate == 0.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(1, 32, 64, "t")  # 16 lines, 32 ways
        with pytest.raises(ConfigError):
            SetAssociativeCache(4, 2, 60, "t")  # non power-of-two line

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=500))
    @settings(max_examples=50)
    def test_capacity_invariant(self, addresses):
        c = SetAssociativeCache(4, 2, 64, "t")
        for a in addresses:
            c.access(a)
        occupancy = [len(c.valid_ways(i)) for i in range(c.sets)]
        assert sum(occupancy) <= 4 * 1024 // 64
        assert all(n <= c.ways for n in occupancy)
        for i in range(c.sets):
            ways = c.valid_ways(i)
            assert len(set(ways)) == len(ways)  # no tag twice in a set

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_immediate_rereference_always_hits(self, addresses):
        c = SetAssociativeCache(64, 2, 64, "t")
        for a in addresses:
            c.access(a)
            assert c.probe(a)


class ListCache:
    """The list-of-lists set-LRU model the flat buffers replaced.

    Each set is a list of tags, most recently used last; the oracle for
    :class:`SetAssociativeCache` (and, through it, the native loop's
    ``cache_access``, which updates the same buffers).
    """

    def __init__(self, sets, ways, line_shift):
        self.sets, self.ways, self.line_shift = sets, ways, line_shift
        self.table = [[] for _ in range(sets)]

    def access(self, address):
        line = address >> self.line_shift
        entry_set = self.table[line % self.sets]
        tag = line // self.sets
        try:
            entry_set.remove(tag)
        except ValueError:
            entry_set.append(tag)
            if len(entry_set) > self.ways:
                entry_set.pop(0)
            return False
        entry_set.append(tag)
        return True


#: (size_kb, ways, line_bytes): 48, 24, 12 and 20 sets (not powers of
#: two) and 16 sets, at 1 to 4 ways.
FLAT_GEOMETRIES = [
    (3, 1, 64),
    (3, 2, 64),
    (3, 3, 64),
    (3, 4, 64),
    (5, 4, 64),
    (1, 2, 32),
    (4, 4, 64),
]


class TestFlatBuffersMatchListModel:
    @given(
        st.sampled_from(FLAT_GEOMETRIES),
        st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_hits_and_sets_match(self, geometry, addresses):
        size_kb, ways, line_bytes = geometry
        cache = SetAssociativeCache(size_kb, ways, line_bytes, "t")
        model = ListCache(cache.sets, ways, cache.line_shift)
        hits = [cache.access(a) for a in addresses]
        assert hits == [model.access(a) for a in addresses]
        assert [cache.valid_ways(i) for i in range(cache.sets)] == model.table
        assert cache.stats.misses == hits.count(False)
        assert all(cache.probe(a) for a in addresses[-1:])


class TestHierarchy:
    def test_table4_geometry(self, processor_config):
        h = CacheHierarchy(processor_config)
        assert h.l1d.sets * h.l1d.ways == 64 * 1024 // 64
        assert h.l1i.sets * h.l1i.ways == 64 * 1024 // 64
        assert h.l2.ways == 1
        assert h.l2.sets == 1024 * 1024 // 64

    def test_miss_path_reaches_memory(self, processor_config):
        h = CacheHierarchy(processor_config)
        assert h.data_access(0xDEAD000) is MemoryLevel.MEMORY
        assert h.data_access(0xDEAD000) is MemoryLevel.L1

    def test_l2_serves_l1_evictions(self, processor_config):
        h = CacheHierarchy(processor_config)
        # Fill L1D set 0 beyond associativity; lines remain in L2.
        step = h.l1d.sets * 64
        addresses = [i * step for i in range(4)]
        for a in addresses:
            h.data_access(a)
        level = h.data_access(addresses[0])
        assert level in (MemoryLevel.L1, MemoryLevel.L2)
        assert level is not MemoryLevel.MEMORY

    def test_instruction_and_data_share_l2(self, processor_config):
        h = CacheHierarchy(processor_config)
        h.instruction_access(0x40000)
        # Same line via the data path: L1D misses, L2 hits.
        assert h.data_access(0x40000) is MemoryLevel.L2
