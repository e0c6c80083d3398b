"""Seeded synthetic instruction-trace generator.

Turns a list of :class:`~repro.workloads.phases.Phase` descriptions
into a deterministic block-structured trace.  Each phase first lays out
a *static program image*: every word slot of the code footprint gets a
fixed instruction class drawn from the phase's mix.  The dynamic stream
then walks this image with loop-nest behaviour (dwell in one loop body,
iterate it, move on), so static properties are stable — a branch site
is always a branch, with a consistent target — which is what lets the
real branch predictor, BTB and L1I behave as they do on real programs.

Everything downstream is real: the PCs drive the actual L1I and branch
predictor, the effective addresses drive the actual L1D/L2, so cache
miss rates and branch accuracies are *emergent* from the phase's
locality parameters, not asserted.

Generation is vectorised per block with numpy.  Consumers pick the
representation: :meth:`SyntheticTrace.blocks` yields plain-list
:class:`~repro.uarch.trace.InstructionBlock` objects (the reference
per-instruction path), while :meth:`SyntheticTrace.columns` hands the
whole trace's numpy arrays, narrowed block by block, to the trace
compiler (:mod:`repro.uarch.compiled_trace`) without a per-block list
round-trip.  Both draw from one generator routine, so the streams are
identical instruction for instruction.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.uarch.compiled_trace import COLUMNS, narrow_columns
from repro.uarch.isa import NUM_CLASSES, InstructionClass
from repro.uarch.trace import MAX_DEP_DISTANCE, InstructionBlock
from repro.workloads.phases import Phase

_BLOCK = 4096
#: Far region modelling data sets that dwarf the L2 (64 MiB).
_FAR_SPAN = 64 * 1024 * 1024
_FAR_BASE = 1 << 32
_LINE = 64


class SyntheticTrace:
    """A reproducible trace over a sequence of phases.

    Parameters
    ----------
    phases:
        The workload's phase script, executed in order.
    seed:
        Generator seed; identical (phases, seed) pairs produce
        identical traces.
    data_base:
        Base address of the (near) data region.
    code_base:
        Base address of the instruction region.
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        seed: int = 0,
        data_base: int = 1 << 20,
        code_base: int = 1 << 28,
    ) -> None:
        if not phases:
            raise WorkloadError("a workload needs at least one phase")
        self.phases = list(phases)
        self.seed = seed
        self.data_base = data_base
        self.code_base = code_base
        self._total = sum(p.instructions for p in self.phases)

    @property
    def total_instructions(self) -> int:
        """Exact trace length."""
        return self._total

    def blocks(self) -> Iterator[InstructionBlock]:
        """Generate the trace, block by block."""
        for kinds, src1, src2, pcs, addrs, taken, targets in self._arrays():
            yield InstructionBlock(
                kinds=kinds.tolist(),
                src1=src1.tolist(),
                src2=src2.tolist(),
                pcs=pcs.tolist(),
                addrs=addrs.tolist(),
                taken=taken.tolist(),
                targets=targets.tolist(),
            )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The whole trace as seven numpy columns.

        Returns ``(kinds, src1, src2, pcs, addrs, taken, targets)`` over
        every block, drawn from the same seeded stream as
        :meth:`blocks`.  Each block is range-checked and cast to the
        compiled-trace dtypes (:data:`~repro.uarch.compiled_trace.COLUMNS`)
        and written into columns preallocated at the trace's length, so
        the trace is held once: no whole-trace wide copy and no
        concatenation.
        """
        out = tuple(np.empty(self._total, dtype=dtype) for _, dtype, _, _ in COLUMNS)
        start = 0
        for arrays in self._arrays():
            stop = start + len(arrays[0])
            for column, block in zip(out, narrow_columns(arrays)):
                column[start:stop] = block
            start = stop
        return out

    # ------------------------------------------------------------------
    def _arrays(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield per-block struct-of-arrays tuples for the whole trace."""
        rng = np.random.default_rng(self.seed)
        for phase in self.phases:
            yield from self._phase_arrays(phase, rng)

    def _phase_arrays(
        self, phase: Phase, rng: np.random.Generator
    ) -> Iterator[tuple[np.ndarray, ...]]:
        probabilities = np.zeros(NUM_CLASSES)
        for klass, fraction in phase.mix.items():
            probabilities[int(klass)] = fraction
        probabilities /= probabilities.sum()

        footprint = max(_LINE, phase.code_footprint_kb * 1024)
        body = min(max(16, phase.loop_body_bytes), footprint)
        body_slots = body // 4
        dwell = phase.loop_dwell_instructions
        ws_bytes = max(_LINE, phase.working_set_kb * 1024)

        # --- static program image ------------------------------------------
        footprint_slots = footprint // 4
        static_kinds = rng.choice(NUM_CLASSES, size=footprint_slots, p=probabilities)
        # Branch targets are a fixed function of the slot (consistent
        # across executions, so the BTB can hold them): a pseudo-random
        # word inside the footprint.
        slot_ids = np.arange(footprint_slots, dtype=np.int64)
        static_targets = self.code_base + ((slot_ids * 2654435761 + 977) % footprint_slots) * 4

        instr_cursor = 0
        mem_cursor = 0
        remaining = phase.instructions
        dep_p = min(1.0, 1.0 / phase.dep_mean_distance)
        mostly_taken = phase.branch_taken_prob >= 0.5

        while remaining > 0:
            n = _BLOCK if remaining >= _BLOCK else remaining
            remaining -= n

            # --- loop-nest walk of the static image ------------------------
            idx = instr_cursor + np.arange(n)
            region_slot = ((idx // dwell) * body_slots) % footprint_slots
            slots = region_slot + idx % body_slots
            np.remainder(slots, footprint_slots, out=slots)
            kinds = static_kinds[slots]
            pcs = self.code_base + slots * 4
            instr_cursor += n

            # --- register dependencies -------------------------------------
            has1 = rng.random(n) < phase.dep_density
            dist1 = rng.geometric(dep_p, size=n)
            np.clip(dist1, 1, MAX_DEP_DISTANCE, out=dist1)
            src1 = np.where(has1, dist1, 0)
            has2 = rng.random(n) < phase.dep_density * 0.45
            dist2 = rng.geometric(max(1e-3, dep_p * 0.6), size=n)
            np.clip(dist2, 1, MAX_DEP_DISTANCE, out=dist2)
            src2 = np.where(has2, dist2, 0)

            # --- branches ---------------------------------------------------
            # The loop iteration index is shared by every branch site in
            # the body: each body behaves like an inner loop with trip
            # count ``loop_period`` (the backward branch falls through
            # every loop_period-th iteration), plus per-instance noise.
            is_branch = kinds == int(InstructionClass.BRANCH)
            n_branches = int(is_branch.sum())
            taken = np.zeros(n, dtype=bool)
            targets = np.zeros(n, dtype=np.int64)
            if n_branches:
                iter_index = (idx[is_branch] % dwell) // body_slots
                pattern = (iter_index % phase.loop_period) != 0
                if not mostly_taken:
                    pattern = ~pattern
                noisy = rng.random(n_branches) < phase.branch_noise
                random_outcomes = rng.random(n_branches) < 0.5
                outcomes = np.where(noisy, random_outcomes, pattern)
                taken[is_branch] = outcomes
                targets[is_branch] = static_targets[slots[is_branch]]

            # --- memory addresses -------------------------------------------
            is_mem = (kinds == int(InstructionClass.LOAD)) | (
                kinds == int(InstructionClass.STORE)
            )
            n_mem = int(is_mem.sum())
            addrs = np.zeros(n, dtype=np.int64)
            if n_mem:
                selector = rng.random(n_mem)
                far = selector < phase.far_miss_fraction
                streaming = (~far) & (
                    selector < phase.far_miss_fraction + phase.stride_fraction
                )
                scattered = ~(far | streaming)
                mem_addrs = np.zeros(n_mem, dtype=np.int64)
                n_far = int(far.sum())
                if n_far:
                    mem_addrs[far] = _FAR_BASE + (
                        rng.integers(0, _FAR_SPAN // _LINE, size=n_far) * _LINE
                    )
                n_stream = int(streaming.sum())
                if n_stream:
                    steps = mem_cursor + phase.stride_bytes * np.arange(1, n_stream + 1)
                    mem_addrs[streaming] = self.data_base + steps % ws_bytes
                    mem_cursor = int(steps[-1]) % ws_bytes
                n_scatter = int(scattered.sum())
                if n_scatter:
                    mem_addrs[scattered] = self.data_base + rng.integers(
                        0, ws_bytes, size=n_scatter
                    )
                addrs[is_mem] = mem_addrs

            yield kinds, src1, src2, pcs, addrs, taken, targets
