"""Tests for the combining branch predictor and BTB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.processor import ProcessorConfig
from repro.uarch.branch_predictor import (
    BranchStats,
    BranchTargetBuffer,
    CombiningBranchPredictor,
    _counter_update,
)


class TestCounterUpdate:
    def test_saturates_high(self):
        assert _counter_update(3, True) == 3

    def test_saturates_low(self):
        assert _counter_update(0, False) == 0

    def test_moves_toward_taken(self):
        assert _counter_update(1, True) == 2

    def test_moves_toward_not_taken(self):
        assert _counter_update(2, False) == 1


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(sets=1, ways=2)
        btb.update(0x10, 1)
        btb.update(0x20, 2)
        btb.update(0x30, 3)  # evicts 0x10 (LRU)
        assert btb.lookup(0x10) is None
        assert btb.lookup(0x20) == 2
        assert btb.lookup(0x30) == 3

    def test_lookup_refreshes_lru(self):
        btb = BranchTargetBuffer(sets=1, ways=2)
        btb.update(0x10, 1)
        btb.update(0x20, 2)
        btb.lookup(0x10)  # refresh
        btb.update(0x30, 3)  # now evicts 0x20
        assert btb.lookup(0x10) == 1
        assert btb.lookup(0x20) is None

    def test_update_replaces_target(self):
        btb = BranchTargetBuffer(sets=4, ways=2)
        btb.update(0x40, 100)
        btb.update(0x40, 200)
        assert btb.lookup(0x40) == 200

    def test_word_indexing_uses_all_sets(self):
        # 4-byte-aligned pcs must not alias onto a quarter of the sets.
        btb = BranchTargetBuffer(sets=4, ways=1)
        for i in range(4):
            btb.update(i * 4, i)
        assert all(btb.lookup(i * 4) == i for i in range(4))

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(sets=0, ways=2)


class ListBTB:
    """The list-of-lists BTB model the flat buffers replaced.

    Each set is a list of (tag, target) pairs, most recently used last;
    the oracle for :class:`BranchTargetBuffer` (and, through it, the
    native loop's ``btb_lookup``/``btb_update``).
    """

    def __init__(self, sets, ways):
        self.sets, self.ways = sets, ways
        self.table = [[] for _ in range(sets)]

    def lookup(self, pc):
        word = pc >> 2
        entry_set = self.table[word % self.sets]
        tag = word // self.sets
        for i, (stored_tag, target) in enumerate(entry_set):
            if stored_tag == tag:
                entry_set.append(entry_set.pop(i))
                return target
        return None

    def update(self, pc, target):
        word = pc >> 2
        entry_set = self.table[word % self.sets]
        tag = word // self.sets
        for i, (stored_tag, _) in enumerate(entry_set):
            if stored_tag == tag:
                entry_set.pop(i)
                break
        entry_set.append((tag, target))
        if len(entry_set) > self.ways:
            entry_set.pop(0)


class TestFlatBTBMatchesListModel:
    @given(
        st.integers(min_value=1, max_value=13),
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=300,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_targets_and_sets_match(self, sets, ways, stream):
        btb = BranchTargetBuffer(sets, ways)
        model = ListBTB(sets, ways)
        for is_update, word, target in stream:
            pc = word << 2
            if is_update:
                btb.update(pc, target)
                model.update(pc, target)
            else:
                assert btb.lookup(pc) == model.lookup(pc)
        assert [btb.valid_ways(i) for i in range(sets)] == model.table


class TestPredictor:
    def test_learns_always_taken(self, processor_config):
        p = CombiningBranchPredictor(processor_config)
        for _ in range(100):
            p.access(0x1000, taken=True, target=0x2000)
        assert p.stats.accuracy > 0.95

    def test_learns_always_not_taken(self, processor_config):
        p = CombiningBranchPredictor(processor_config)
        for _ in range(100):
            p.access(0x1000, taken=False, target=0)
        assert p.stats.accuracy > 0.95

    def test_learns_short_loop_pattern(self, processor_config):
        p = CombiningBranchPredictor(processor_config)
        for i in range(4000):
            taken = (i % 8) != 0
            p.access(0x1000, taken=taken, target=0x2000)
        # Two-level predictor captures a period-8 pattern in 10-bit history.
        late = BranchStats()
        for i in range(4000, 5000):
            taken = (i % 8) != 0
            if p.access(0x1000, taken=taken, target=0x2000):
                late.direction_mispredicts += 1
            late.lookups += 1
        assert 1.0 - late.direction_mispredicts / late.lookups > 0.9

    def test_btb_target_miss_counts_as_mispredict(self, processor_config):
        p = CombiningBranchPredictor(processor_config)
        # Train direction taken.
        for _ in range(10):
            p.access(0x1000, taken=True, target=0x2000)
        before = p.stats.mispredicts
        # Same direction, changed target: one BTB target miss.
        p.access(0x1000, taken=True, target=0x3000)
        assert p.stats.btb_target_misses >= 1
        assert p.stats.mispredicts > before

    def test_not_taken_never_checks_btb(self, processor_config):
        p = CombiningBranchPredictor(processor_config)
        for _ in range(50):
            p.access(0x1000, taken=False, target=0)
        assert p.stats.btb_target_misses == 0

    def test_distinct_sites_independent(self, processor_config):
        p = CombiningBranchPredictor(processor_config)
        for _ in range(200):
            p.access(0x1000, taken=True, target=0x2000)
            p.access(0x2004, taken=False, target=0)
        assert p.stats.accuracy > 0.9

    def test_stats_accuracy_empty(self):
        assert BranchStats().accuracy == 1.0
