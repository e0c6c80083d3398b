"""Tests of the sweep benchmark itself.

Run from the repository root::

    python3 -m pytest -q sweepbench/tests

The smoke tests run every workload end to end at a tiny scale, so they
check the benchmark's plumbing and output contract, not its timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from ledger import STAGES, Ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "sweepbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload_prints_every_metric(workload, trace):
    proc = _run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", str(TINY),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines[:-1]
        ), f"{metric['name']} not printed with its unit"
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    for key in ("nproc", "loadavg_start", "loadavg_end", "backend", "batch",
                "native_loaded", "compiler", "scale", "seed"):
        assert key in stamp
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
        if workload == "offline_dynamic":
            assert result["metrics"]["hotpath.rollover_calls"]["value"] > 0
            assert result["metrics"]["experiments.sims_per_cell"]["value"] > 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "sweepbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "closed_loop", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _traced_sweep(ledger: Ledger):
    from repro.experiments.orchestrator import Orchestrator
    from repro.experiments.scenario import Suite
    from repro.uarch.native import load_hotpath

    suite = Suite(["gsm", "mcf"], ["mcd_base", "attack_decay", "dynamic_1"], scale=TINY)
    ledger.install(load_hotpath())
    try:
        start = time.perf_counter()
        results = Orchestrator(workers=1, backend="serial", use_cache=False, scale=TINY).run(suite)
        wall = time.perf_counter() - start
    finally:
        ledger.uninstall()
    return results, wall


def test_stage_self_times_sum_to_no_more_than_traced_wall():
    from repro.uarch.core import MCDCore

    original = MCDCore.warm_up
    ledger = Ledger()
    results, wall = _traced_sweep(ledger)
    assert MCDCore.warm_up is original  # uninstall restored the layer
    assert not results.errors
    self_s = ledger.self_times()
    stage_sum = sum(self_s.get(stage, 0.0) for stage in STAGES)
    metrics = ledger.layer_metrics(wall, workers=1, cells=len(results))
    assert 0.0 < stage_sum <= wall
    assert stage_sum + metrics["experiments.orchestration_s"] <= wall + 1e-6
    assert all(span["cell"] for span in ledger.spans)
    assert metrics["experiments.profile_s"] > 0
    assert metrics["core.warm_up_calls"] == ledger.counts["core.construct_calls"]


def test_spec_vector_that_cannot_batch_counts_a_fallback():
    from repro.sim import engine
    from repro.sim.engine import SimulationSpec
    from repro.uarch.native import load_hotpath

    hotpath = load_hotpath()
    if hotpath is None or getattr(hotpath, "run_batch", None) is None:
        pytest.skip("the native batch entry is unavailable")
    ledger = Ledger()
    ledger.install(hotpath)
    try:
        batchable = [SimulationSpec("gsm", scale=TINY, seed=s) for s in (1, 2)]
        engine.run_specs_batch(batchable)
        assert ledger.counts["engine.batch_fallbacks"] == 0
        unbatchable = [SimulationSpec("gsm", scale=TINY, seed=s, path="python") for s in (1, 2)]
        engine.run_specs_batch(unbatchable)
    finally:
        ledger.uninstall()
    assert ledger.counts["engine.batch_fallbacks"] == 1
    assert ledger.counts["hotpath.runs"] == 2
    assert ledger.counts["hotpath.calls"] == 1
