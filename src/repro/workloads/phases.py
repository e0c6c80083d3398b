"""Phase behaviour models for synthetic workloads.

A workload is a sequence of :class:`Phase` objects.  Each phase holds a
stationary statistical description of the dynamic instruction stream;
phase *changes* are what exercise the Attack/Decay controller's attack
mode, and long stationary phases exercise its decay mode (paper
Figures 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.errors import WorkloadError
from repro.uarch.isa import InstructionClass

#: Baseline instruction mixes reused across the catalog.  Values are
#: fractions of the dynamic stream and must sum to 1.
INT_COMPUTE_MIX: Mapping[InstructionClass, float] = MappingProxyType(
    {
        InstructionClass.INT_ALU: 0.52,
        InstructionClass.INT_MULT: 0.02,
        InstructionClass.LOAD: 0.22,
        InstructionClass.STORE: 0.09,
        InstructionClass.BRANCH: 0.15,
    }
)

FP_COMPUTE_MIX: Mapping[InstructionClass, float] = MappingProxyType(
    {
        InstructionClass.INT_ALU: 0.22,
        InstructionClass.FP_ALU: 0.28,
        InstructionClass.FP_MULT: 0.12,
        InstructionClass.LOAD: 0.24,
        InstructionClass.STORE: 0.08,
        InstructionClass.BRANCH: 0.06,
    }
)

POINTER_CHASE_MIX: Mapping[InstructionClass, float] = MappingProxyType(
    {
        InstructionClass.INT_ALU: 0.38,
        InstructionClass.LOAD: 0.34,
        InstructionClass.STORE: 0.12,
        InstructionClass.BRANCH: 0.16,
    }
)

MEMORY_STREAM_MIX: Mapping[InstructionClass, float] = MappingProxyType(
    {
        InstructionClass.INT_ALU: 0.26,
        InstructionClass.FP_ALU: 0.18,
        InstructionClass.FP_MULT: 0.06,
        InstructionClass.LOAD: 0.32,
        InstructionClass.STORE: 0.12,
        InstructionClass.BRANCH: 0.06,
    }
)


@dataclass(frozen=True)
class Phase:
    """A stationary region of a workload's execution.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``"fp_burst"``).
    instructions:
        Dynamic length of the phase.
    mix:
        Instruction-class fractions (must sum to 1 within 1e-6).
    dep_density:
        Probability an instruction's first operand depends on an
        earlier instruction (higher → longer dependency chains →
        lower ILP).
    dep_mean_distance:
        Mean dependency distance in dynamic instructions (smaller →
        tighter chains).
    working_set_kb:
        Span of the data region touched by loads/stores; determines
        whether the stream fits L1 (64 KB), L2 (1 MB) or spills.
    stride_fraction:
        Fraction of memory accesses that stream sequentially (spatial
        locality); the rest scatter uniformly over the working set.
    stride_bytes:
        Step of the streaming accesses.
    far_miss_fraction:
        Fraction of memory accesses sent to a very large far region,
        modelling pointer chasing that misses all the way to memory.
    code_footprint_kb:
        Span of the instruction region (drives L1I behaviour).
    loop_body_bytes:
        Size of the inner loop body the PC stream cycles within; small
        bodies mean heavy branch-site reuse (trainable predictor) and
        L1I hits.
    loop_dwell_instructions:
        How long execution stays in one loop body before moving to the
        next region of the footprint (loop-nest behaviour: dwell in an
        inner loop, then advance).
    branch_taken_prob:
        Unused positions in the deterministic loop pattern resolve
        taken with this probability.
    branch_noise:
        Fraction of branches with random outcomes — the knob for the
        achievable prediction accuracy (≈ 1 - noise/2).
    loop_period:
        The deterministic branch pattern: every ``loop_period``-th
        branch at a site falls through (a loop exit).  Periods within
        the predictor's 10-bit history are learnable.
    """

    name: str
    instructions: int
    mix: Mapping[InstructionClass, float]
    dep_density: float = 0.58
    dep_mean_distance: float = 8.0
    working_set_kb: int = 32
    stride_fraction: float = 0.55
    stride_bytes: int = 8
    far_miss_fraction: float = 0.0
    code_footprint_kb: int = 12
    loop_body_bytes: int = 256
    loop_dwell_instructions: int = 2000
    branch_taken_prob: float = 0.60
    branch_noise: float = 0.04
    loop_period: int = 8

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise WorkloadError(f"{self.name}: instructions must be positive")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"{self.name}: mix sums to {total}, expected 1.0")
        if any(v < 0 for v in self.mix.values()):
            raise WorkloadError(f"{self.name}: negative mix fraction")
        for fraction_field in (
            "dep_density",
            "stride_fraction",
            "far_miss_fraction",
            "branch_taken_prob",
            "branch_noise",
        ):
            value = getattr(self, fraction_field)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{self.name}: {fraction_field} not in [0, 1]")
        if self.dep_mean_distance < 1.0:
            raise WorkloadError(f"{self.name}: dep_mean_distance must be >= 1")
        if self.working_set_kb < 1 or self.code_footprint_kb < 1:
            raise WorkloadError(f"{self.name}: footprints must be >= 1 KB")
        if self.stride_bytes < 1:
            raise WorkloadError(f"{self.name}: stride_bytes must be >= 1")
        if self.loop_period < 2:
            raise WorkloadError(f"{self.name}: loop_period must be >= 2")
        if self.loop_body_bytes < 16:
            raise WorkloadError(f"{self.name}: loop_body_bytes must be >= 16")
        if self.loop_dwell_instructions < 1:
            raise WorkloadError(f"{self.name}: loop_dwell_instructions must be >= 1")

    def scaled(self, factor: float) -> "Phase":
        """A copy with the instruction count scaled by ``factor``."""
        from dataclasses import replace

        return replace(self, instructions=max(1, round(self.instructions * factor)))


def total_instructions(phases: list[Phase]) -> int:
    """Sum of phase lengths."""
    return sum(p.instructions for p in phases)
