"""Combining branch predictor with BTB (paper Table 4, SimpleScalar style).

Components:

* a **bimodal** predictor: 2-bit saturating counters indexed by PC;
* a **two-level** predictor: a first-level table of per-PC history
  registers feeding a second-level pattern history table of 2-bit
  counters;
* a **combining (meta) predictor**: 2-bit counters that select which
  component to trust, trained whenever the components disagree;
* a **branch target buffer**: set-associative, LRU, providing targets
  for predicted-taken branches.

A branch is mispredicted when the direction is wrong, or when it is
taken and the BTB cannot supply the correct target.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.config.processor import ProcessorConfig


def _counter_update(counter: int, taken: bool) -> int:
    """2-bit saturating counter update."""
    if taken:
        return counter + 1 if counter < 3 else 3
    return counter - 1 if counter > 0 else 0


@dataclass
class BranchStats:
    """Prediction outcome counts."""

    lookups: int = 0
    direction_mispredicts: int = 0
    btb_target_misses: int = 0

    @property
    def mispredicts(self) -> int:
        """Total mispredictions (direction plus taken-with-bad-target)."""
        return self.direction_mispredicts + self.btb_target_misses

    @property
    def accuracy(self) -> float:
        """Fraction of lookups predicted correctly."""
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement.

    Laid out like :class:`~repro.uarch.caches.SetAssociativeCache`:
    flat ``array('q')`` buffers the native loop updates in place, set
    ``s`` in ``[s * ways, s * ways + counts[s])`` of ``tags`` and
    ``targets``, least recently used way first.  :meth:`lookup` and
    :meth:`update` apply exactly the C ``btb_lookup``/``btb_update``
    rules.
    """

    def __init__(self, sets: int, ways: int) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("BTB sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        self.tags = array("q", bytes(8 * sets * ways))
        self.targets = array("q", bytes(8 * sets * ways))
        self.counts = array("q", bytes(8 * sets))

    def lookup(self, pc: int) -> int | None:
        """Return the stored target for ``pc``, or None on a miss.

        Indexed by word address (pc >> 2): instruction addresses are
        4-byte aligned, so byte indexing would leave 3/4 of the sets
        unused.  A hit moves the entry to the MRU way.
        """
        word = pc >> 2
        index = word % self.sets
        tag = word // self.sets
        tags = self.tags
        base = index * self.ways
        top = base + self.counts[index] - 1  # the MRU way
        way = top
        while way >= base and tags[way] != tag:
            way -= 1
        if way < base:
            return None
        targets = self.targets
        target = targets[way]
        while way < top:
            tags[way] = tags[way + 1]
            targets[way] = targets[way + 1]
            way += 1
        tags[top] = tag
        targets[top] = target
        return target

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for ``pc`` in the MRU way."""
        word = pc >> 2
        index = word % self.sets
        tag = word // self.sets
        tags = self.tags
        targets = self.targets
        base = index * self.ways
        count = self.counts[index]
        top = base + count - 1  # the MRU way
        way = top
        while way >= base and tags[way] != tag:
            way -= 1
        if way < base:
            if count < self.ways:  # allocate a free way
                tags[top + 1] = tag
                targets[top + 1] = target
                self.counts[index] = count + 1
                return
            way = base  # evict the LRU way
        while way < top:
            tags[way] = tags[way + 1]
            targets[way] = targets[way + 1]
            way += 1
        tags[top] = tag
        targets[top] = target

    def valid_ways(self, index: int) -> list[tuple[int, int]]:
        """Set ``index``'s valid (tag, target) pairs, most recently used last."""
        base = index * self.ways
        end = base + self.counts[index]
        return list(zip(self.tags[base:end].tolist(), self.targets[base:end].tolist()))


class CombiningBranchPredictor:
    """The ``comb`` predictor of Table 4.

    Parameters come from :class:`ProcessorConfig`; all tables start in
    weakly-not-taken / no-history state.  The four tables are flat
    ``array('q')`` buffers the native loop updates in place: per-PC
    ``history`` registers, the two-level ``pattern`` table and the
    ``bimodal`` and ``meta`` counters.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.history = array("q", [0]) * config.bpred_l1_entries
        self.history_mask = (1 << config.bpred_history_bits) - 1
        self.pattern = array("q", [1]) * config.bpred_l2_entries
        self.bimodal = array("q", [1]) * config.bpred_bimodal_entries
        self.meta = array("q", [2]) * config.bpred_combining_entries
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
        self.stats = BranchStats()

    def access(self, pc: int, taken: bool, target: int) -> bool:
        """Predict, train, and return whether the branch mispredicted.

        ``taken``/``target`` are the trace's actual outcome; training
        happens immediately (trace-driven approximation of
        update-at-resolve).  All tables are indexed by word address
        (pc >> 2); byte indexing would alias 4-byte-aligned
        instructions onto a quarter of each table.
        """
        stats = self.stats
        stats.lookups += 1
        word = pc >> 2
        history_table, pattern = self.history, self.pattern
        bimodal, meta = self.bimodal, self.meta
        history_index = word % len(history_table)
        history = history_table[history_index]
        pattern_index = (history ^ word) % len(pattern)
        pattern_counter = pattern[pattern_index]
        bimodal_index = word % len(bimodal)
        bimodal_counter = bimodal[bimodal_index]
        meta_index = word % len(meta)
        meta_counter = meta[meta_index]
        two_level = pattern_counter >= 2
        one_level = bimodal_counter >= 2
        prediction = two_level if meta_counter >= 2 else one_level

        mispredicted = prediction != taken
        if mispredicted:
            stats.direction_mispredicts += 1
        elif taken and self.btb.lookup(pc) != target:
            stats.btb_target_misses += 1
            mispredicted = True

        # Train the components; the meta counter learns only when they
        # disagree, toward whichever was right.
        pattern[pattern_index] = _counter_update(pattern_counter, taken)
        bimodal[bimodal_index] = _counter_update(bimodal_counter, taken)
        if two_level != one_level:
            meta[meta_index] = _counter_update(meta_counter, two_level == taken)
        history_table[history_index] = ((history << 1) | int(taken)) & self.history_mask
        if taken:
            self.btb.update(pc, target)
        return mispredicted
