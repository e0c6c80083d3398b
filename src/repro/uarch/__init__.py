"""Microarchitecture substrate: the Alpha 21264-like MCD core.

Modules
-------
``isa``
    Instruction classes and their domain/latency mapping.
``trace``
    Block-structured instruction traces and the stream protocol.
``branch_predictor``
    SimpleScalar-style combining predictor (2-level + bimodal + meta)
    with a set-associative BTB.
``caches``
    Set-associative LRU caches and the L1I/L1D/L2/memory hierarchy.
``queues``
    State of the issue queues, load/store queue, reorder buffer and
    rename register files, including the queue occupancy the
    controller observes.
``functional_units``
    Per-domain issue widths.
``frontend``
    The trace cursor the reference interpreter fetches through.
``core``
    The cycle-approximate four-domain out-of-order pipeline: both run
    loops, which hold every per-cycle machine rule.
"""

from repro.uarch.core import CoreOptions, CoreResult, MCDCore
from repro.uarch.isa import InstructionClass
from repro.uarch.trace import InstructionBlock, TraceStream

__all__ = [
    "CoreOptions",
    "CoreResult",
    "InstructionBlock",
    "InstructionClass",
    "MCDCore",
    "TraceStream",
]
