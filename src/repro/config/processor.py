"""Architectural parameters of the simulated core (paper Table 4).

The paper models an Alpha 21264-like out-of-order superscalar using
SimpleScalar with the Register Update Unit split into separate reorder
buffer, issue queues and physical register files.  :class:`ProcessorConfig`
captures every row of Table 4 and a handful of substrate parameters the
paper fixes implicitly (memory latency, cache line size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigError


@dataclass(frozen=True)
class ProcessorConfig:
    """Alpha 21264-like architectural parameters (Table 4).

    Branch prediction is the SimpleScalar ``comb`` predictor: a
    two-level predictor and a bimodal predictor arbitrated by a
    combining (meta) predictor, plus a set-associative BTB.
    """

    # --- branch prediction -------------------------------------------------
    bpred_l1_entries: int = 1024
    bpred_history_bits: int = 10
    bpred_l2_entries: int = 1024
    bpred_bimodal_entries: int = 1024
    bpred_combining_entries: int = 4096
    btb_sets: int = 4096
    btb_ways: int = 2
    branch_mispredict_penalty: int = 7

    # --- pipeline widths ---------------------------------------------------
    decode_width: int = 4
    issue_width: int = 6
    retire_width: int = 11

    # --- caches ------------------------------------------------------------
    l1d_kb: int = 64
    l1d_ways: int = 2
    l1i_kb: int = 64
    l1i_ways: int = 2
    l2_kb: int = 1024
    l2_ways: int = 1
    line_bytes: int = 64
    l1_latency_cycles: int = 2
    l2_latency_cycles: int = 12
    memory_latency_ns: float = 80.0

    # --- execution resources ----------------------------------------------
    int_alus: int = 4
    int_mult_div: int = 1
    fp_alus: int = 2
    fp_mult_div_sqrt: int = 1
    load_store_ports: int = 2

    # --- windows / queues ---------------------------------------------------
    int_issue_queue_size: int = 20
    fp_issue_queue_size: int = 15
    load_store_queue_size: int = 64
    int_physical_registers: int = 72
    fp_physical_registers: int = 72
    reorder_buffer_size: int = 80

    # --- operation latencies (domain cycles) --------------------------------
    int_alu_latency: int = 1
    int_mult_latency: int = 7
    int_div_latency: int = 20
    fp_alu_latency: int = 4
    fp_mult_latency: int = 4
    fp_div_latency: int = 12
    fp_sqrt_latency: int = 24

    def __post_init__(self) -> None:
        # NaN passes every ordering test below, and inf several.
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        positive_fields = (
            "bpred_l1_entries",
            "bpred_history_bits",
            "bpred_l2_entries",
            "bpred_bimodal_entries",
            "bpred_combining_entries",
            "btb_sets",
            "btb_ways",
            "decode_width",
            "issue_width",
            "retire_width",
            "l1d_kb",
            "l1d_ways",
            "l1i_kb",
            "l1i_ways",
            "l2_kb",
            "l2_ways",
            "line_bytes",
            "l1_latency_cycles",
            "l2_latency_cycles",
            "int_alus",
            "fp_alus",
            "load_store_ports",
            "int_issue_queue_size",
            "fp_issue_queue_size",
            "load_store_queue_size",
            "int_physical_registers",
            "fp_physical_registers",
            "reorder_buffer_size",
            "int_alu_latency",
            "int_mult_latency",
            "int_div_latency",
            "fp_alu_latency",
            "fp_mult_latency",
            "fp_div_latency",
            "fp_sqrt_latency",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.branch_mispredict_penalty < 0:
            raise ConfigError("branch_mispredict_penalty must be non-negative")
        if self.memory_latency_ns <= 0:
            raise ConfigError("memory_latency_ns must be positive")
        if self.int_mult_div < 0 or self.fp_mult_div_sqrt < 0:
            raise ConfigError("multiplier/divider unit counts must be >= 0")
        for kb, ways, label in (
            (self.l1d_kb, self.l1d_ways, "L1D"),
            (self.l1i_kb, self.l1i_ways, "L1I"),
            (self.l2_kb, self.l2_ways, "L2"),
        ):
            lines = kb * 1024 // self.line_bytes
            if lines % ways:
                raise ConfigError(f"{label}: line count not divisible by ways")

    def table4_rows(self) -> list[tuple[str, str]]:
        """Render this configuration as the rows of paper Table 4."""
        return [
            ("Branch predictor: Level 1", f"{self.bpred_l1_entries} entries, history {self.bpred_history_bits}"),
            ("Branch predictor: Level 2", f"{self.bpred_l2_entries} entries"),
            ("Bimodal predictor size", str(self.bpred_bimodal_entries)),
            ("Combining predictor size", str(self.bpred_combining_entries)),
            ("BTB", f"{self.btb_sets} sets, {self.btb_ways}-way"),
            ("Branch Mispredict Penalty", str(self.branch_mispredict_penalty)),
            ("Decode Width", str(self.decode_width)),
            ("Issue Width", str(self.issue_width)),
            ("Retire Width", str(self.retire_width)),
            ("L1 Data Cache", f"{self.l1d_kb}KB, {self.l1d_ways}-way set associative"),
            ("L1 Instruction Cache", f"{self.l1i_kb}KB, {self.l1i_ways}-way set associative"),
            (
                "L2 Unified Cache",
                f"{self.l2_kb // 1024}MB, "
                + ("direct mapped" if self.l2_ways == 1 else f"{self.l2_ways}-way"),
            ),
            ("L1 cache latency", f"{self.l1_latency_cycles} cycles"),
            ("L2 cache latency", f"{self.l2_latency_cycles} cycles"),
            ("Integer ALUs", f"{self.int_alus} + {self.int_mult_div} mult/div unit"),
            ("Floating-Point ALUs", f"{self.fp_alus} + {self.fp_mult_div_sqrt} mult/div/sqrt unit"),
            ("Integer Issue Queue Size", f"{self.int_issue_queue_size} entries"),
            ("Floating-Point Issue Queue Size", f"{self.fp_issue_queue_size} entries"),
            ("Load/Store Queue Size", str(self.load_store_queue_size)),
            (
                "Physical Register File Size",
                f"{self.int_physical_registers} integer, {self.fp_physical_registers} floating-point",
            ),
            ("Reorder Buffer Size", str(self.reorder_buffer_size)),
        ]
