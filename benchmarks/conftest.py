"""Shared fixtures and helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Simulation
results are cached on disk (``results/cache``), so a bench's *timed*
body is the assembly of the artifact; the first run populates the
cache.

There is one write path for bench artifacts: :func:`save_results`
publishes the legacy per-bench JSON (``results/<name>.json``,
atomically) *and* appends a provenance-stamped run to the versioned
result database (``results/db``) that ``repro report`` / ``repro
check`` operate on.  :func:`save_bench` assembles the canonical
``{"runs": ..., "aggregate": ...}`` payload on top of it.

Environment knobs: ``REPRO_SCALE`` (workload length multiplier),
``REPRO_BENCHMARKS`` (comma-separated subset), ``REPRO_CACHE=0``
(disable the cache), ``REPRO_WORKERS`` (orchestrator process count —
set it >1 to fan first-run simulation out across cores),
``REPRO_RESULTDB=0`` (skip the result-database append),
``REPRO_RESULTDB_DIR`` / ``REPRO_RESULTS_DIR`` (redirect the database
/ the legacy artifacts).
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import pytest

from repro.experiments import Orchestrator
from repro.ioutil import atomic_write
from repro.resultdb import ResultDB

logger = logging.getLogger(__name__)

_DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

#: Representative subset used by the sensitivity sweeps (Figures 5-7):
#: compute-bound, FP-phased, memory-bound and branchy applications.
SWEEP_BENCHMARKS = [
    "adpcm",
    "gsm",
    "epic",
    "mpeg2",
    "mcf",
    "health",
    "gcc",
    "swim",
]


def results_dir() -> Path:
    """Where legacy per-bench artifacts go (``REPRO_RESULTS_DIR`` aware)."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    return Path(env) if env else _DEFAULT_RESULTS_DIR


#: Back-compat module constant; prefer :func:`results_dir` in new code.
RESULTS_DIR = _DEFAULT_RESULTS_DIR


def resultdb_enabled() -> bool:
    """Whether benches append to the result DB (``REPRO_RESULTDB`` != 0)."""
    return os.environ.get("REPRO_RESULTDB", "1") != "0"


@pytest.fixture(scope="session")
def orchestrator() -> Orchestrator:
    """A scenario orchestrator sharing the session cache (REPRO_WORKERS)."""
    return Orchestrator()


def save_results(name: str, payload: dict, backend: str | None = None) -> Path:
    """Persist a bench's artifact — the single write path.

    Publishes ``<results>/<name>.json`` atomically and appends a
    provenance-stamped run to the result database.  A database failure
    is logged, never fatal: the bench's artifact must survive even if
    the trajectory append cannot.
    """
    directory = results_dir()
    path = directory / f"{name}.json"
    with atomic_write(path, "w") as handle:
        handle.write(json.dumps(payload, indent=1, default=str))
    if resultdb_enabled():
        try:
            ResultDB().record_payload(name, payload, backend=backend)
        except Exception as exc:  # noqa: BLE001 - recording must not kill a bench
            logger.warning("result db append for %s failed (%s)", name, exc)
    return path


def save_bench(
    name: str,
    runs: list | None = None,
    aggregate: dict | None = None,
    backend: str | None = None,
) -> dict:
    """Assemble the canonical bench payload and persist it.

    The ``{"runs": [...], "aggregate": {...}}`` layout every perf bench
    used to hand-build; the aggregate's numeric scalars become the
    run's trajectory metrics.  Returns the payload.
    """
    payload: dict = {}
    if runs is not None:
        payload["runs"] = runs
    if aggregate is not None:
        payload["aggregate"] = aggregate
    save_results(name, payload, backend=backend)
    return payload


def pct(x: float) -> str:
    """Format a fraction as a paper-style percentage."""
    return f"{x * 100:.1f}%"
