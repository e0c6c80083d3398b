"""Registry-driven scenario API and parallel experiment orchestration.

The paper's evaluation is a cross-product of benchmarks x processor
configurations x controller settings.  This package names each axis and
executes the product:

* :mod:`~repro.experiments.registry` — the decorator registry of
  configurations;
* :mod:`~repro.experiments.builtins` — the paper's configuration
  vocabulary (``sync``, ``mcd_base``, ``attack_decay``,
  ``dynamic_<pct>``, ``global@<mhz>``), registered on import;
* :mod:`~repro.experiments.scenario` — declarative
  :class:`Scenario`/:class:`Suite` matrices;
* :mod:`~repro.experiments.orchestrator` — serial/thread/process
  execution backends with per-run error isolation and a shared atomic
  cache (threads ride the GIL-releasing native hot loop);
* :mod:`~repro.experiments.results` — the queryable :class:`ResultSet`.

Quick start::

    from repro.experiments import Orchestrator, Suite

    suite = Suite(
        benchmarks=["adpcm", "gsm"],
        configurations=["sync", "mcd_base", "attack_decay"],
    )
    results = Orchestrator(workers=4).run(suite)
    print(results.aggregate("attack_decay", reference="mcd_base"))
"""

from repro.experiments.cache import CACHE_VERSION, DEFAULT_CACHE_DIR, CacheStore
from repro.experiments.executor import (
    ExecutionContext,
    benchmark_scale,
    cache_enabled,
    default_workers,
    parse_workers,
    quick_benchmarks,
)
from repro.experiments.orchestrator import (
    BACKENDS,
    Orchestrator,
    default_backend,
    run_suite,
)
from repro.experiments.registry import (
    CONFIGURATIONS,
    Registry,
    configuration_names,
    register_configuration,
)
from repro.experiments.results import ResultSet, RunOutcome, RunRecord
from repro.experiments.scenario import Scenario, Suite

import repro.experiments.builtins  # noqa: F401  (populates the registry)

__all__ = [
    "BACKENDS",
    "CACHE_VERSION",
    "CONFIGURATIONS",
    "CacheStore",
    "DEFAULT_CACHE_DIR",
    "ExecutionContext",
    "Orchestrator",
    "Registry",
    "ResultSet",
    "RunOutcome",
    "RunRecord",
    "Scenario",
    "Suite",
    "benchmark_scale",
    "cache_enabled",
    "configuration_names",
    "default_backend",
    "default_workers",
    "parse_workers",
    "quick_benchmarks",
    "register_configuration",
    "run_suite",
]
