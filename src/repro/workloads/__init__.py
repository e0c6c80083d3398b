"""Workload substrate: synthetic stand-ins for the paper's benchmarks.

The paper evaluates 30 applications from MediaBench, Olden and Spec2000
(Table 5) as Alpha binaries under SimpleScalar.  Offline we replace
each with a deterministic, seeded *synthetic workload model* whose
instruction stream reproduces the benchmark's published character —
instruction mix, dependency structure, cache/branch behaviour and phase
structure — through the real predictor, caches and pipeline (docs/design.md
substitution #1).
"""

from repro.workloads.catalog import (
    BENCHMARKS,
    BenchmarkSpec,
    all_benchmarks,
    benchmark_names,
    get_benchmark,
    is_known_benchmark,
    register_benchmark,
)
from repro.workloads.phases import Phase
from repro.workloads.synthetic import SyntheticTrace

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "Phase",
    "SyntheticTrace",
    "all_benchmarks",
    "benchmark_names",
    "get_benchmark",
    "is_known_benchmark",
    "register_benchmark",
]
