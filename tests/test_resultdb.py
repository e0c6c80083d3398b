"""The versioned result database: store, query, gate, report, CLI.

Mirrors the robustness contract of the PR 3 CacheStore/TraceStore
corruption tests: a damaged entry in the trajectory is a logged,
recoverable skip — never a crash — and concurrent appenders cannot
lose each other's runs.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.errors import ResultDBError
from repro.resultdb import (
    DB_SCHEMA_VERSION,
    ResultDB,
    StoredRun,
    check_bench,
    check_metric,
    extract_metrics,
    gated_metrics,
    host_fingerprint,
    provenance,
)
from repro.resultdb import query
from repro.resultdb.gate import BOOTSTRAP_BASELINES, GatedMetric
from repro.resultdb.report import comparison_rows, overview_rows, render
from repro.version import __version__


@pytest.fixture()
def db(tmp_path):
    return ResultDB(tmp_path / "db")


def record_speedup(db, value, bench="bench_control_loop", metric="native_vs_generator",
                   scale=1.0, **kwargs):
    """Append one single-metric run (the gate tests' workhorse)."""
    return db.record(bench, {metric: value}, scale=scale, **kwargs)


# ----------------------------------------------------------------- provenance
class TestProvenance:
    def test_host_fingerprint_fields(self):
        fp = host_fingerprint()
        assert set(fp) == {"hostname", "os", "machine", "python", "cpu_count", "host_id"}
        assert len(fp["host_id"]) == 12

    def test_host_id_is_stable(self):
        assert host_fingerprint()["host_id"] == host_fingerprint()["host_id"]

    def test_provenance_carries_version_and_compiler(self):
        stamp = provenance()
        assert stamp["version"] == __version__
        assert isinstance(stamp["native_enabled"], bool)
        # A compiler exists in CI and dev containers; when present the
        # stamp must carry the resolved path and a banner line.
        if stamp["compiler"] is not None:
            assert stamp["compiler"]["path"]
            assert "banner" in stamp["compiler"]


# ---------------------------------------------------------------------- store
class TestStore:
    def test_round_trip_with_full_provenance(self, db):
        run = db.record(
            "bench_control_loop",
            {"native_vs_generator": 9.5, "native": True, "note": "x"},
            payload={"aggregate": {"native_vs_generator": 9.5, "scale": 0.2, "native": True}},
            backend="thread",
        )
        loaded = db.runs()
        assert len(loaded) == 1
        got = loaded[0]
        assert got == run
        assert got.schema == DB_SCHEMA_VERSION
        assert got.version == __version__
        assert got.host_id == host_fingerprint()["host_id"]
        assert got.backend == "thread"
        # scale/native lift out of the payload aggregate automatically.
        assert got.scale == 0.2
        assert got.native is True
        # Non-numeric metric entries are dropped, not stored.
        assert got.metrics == {"native_vs_generator": 9.5}

    def test_record_without_numeric_metrics_is_an_error(self, db):
        with pytest.raises(ResultDBError, match="no numeric metrics"):
            db.record("bench_x", {"note": "nothing numeric"})

    def test_append_only_files_sort_chronologically(self, db):
        for value in (1.0, 2.0, 3.0):
            record_speedup(db, value)
        names = sorted(p.name for p in db.runs_dir.glob("*.json"))
        by_file = [json.loads((db.runs_dir / n).read_text())["metrics"] for n in names]
        assert [m["native_vs_generator"] for m in by_file] == [1.0, 2.0, 3.0]
        assert [r.metric("native_vs_generator") for r in db.runs()] == [1.0, 2.0, 3.0]

    def test_ingest_artifact_file(self, db, tmp_path):
        artifact = tmp_path / "bench_engine_hotpath.json"
        artifact.write_text(json.dumps(
            {"runs": [], "aggregate": {"speedup": 19.1, "scale": 1.0, "native": True}}
        ))
        run = db.ingest(artifact)
        assert run.bench == "bench_engine_hotpath"
        assert run.metrics["speedup"] == 19.1
        assert run.scale == 1.0

    def test_ingest_rejects_garbage(self, db, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ResultDBError, match="not valid JSON"):
            db.ingest(bad)
        missing = tmp_path / "missing.json"
        with pytest.raises(ResultDBError, match="cannot read"):
            db.ingest(missing)
        wrong = tmp_path / "wrong.json"
        wrong.write_text("[1, 2]")
        with pytest.raises(ResultDBError, match="expected an object"):
            db.ingest(wrong)

    def test_extract_metrics_prefers_aggregate(self):
        payload = {"aggregate": {"rps": 54.0, "native": True}, "top": 1.0}
        assert extract_metrics(payload) == {"rps": 54.0}
        assert extract_metrics({"rps": 54.0, "note": "x"}) == {"rps": 54.0}


class TestStoreRobustness:
    """Damaged trajectory entries are logged skips, never crashes."""

    def seed(self, db, values=(5.0, 6.0)):
        for value in values:
            record_speedup(db, value)

    def test_truncated_entry_is_skipped_and_logged(self, db, caplog):
        self.seed(db)
        victim = sorted(db.runs_dir.glob("*.json"))[0]
        victim.write_text(victim.read_text()[: 40])
        with caplog.at_level("WARNING"):
            runs = db.runs()
        assert [r.metric("native_vs_generator") for r in runs] == [6.0]
        assert any("skipping" in rec.message for rec in caplog.records)

    def test_binary_garbage_entry_is_skipped(self, db, caplog):
        self.seed(db)
        (db.runs_dir / "zzz-garbage.json").write_bytes(b"\xff\xfe\x00garbage\x80")
        with caplog.at_level("WARNING"):
            runs = db.runs()
        assert len(runs) == 2

    def test_wrong_shape_entry_is_skipped(self, db, caplog):
        self.seed(db, values=(5.0,))
        (db.runs_dir / "zzz-shape.json").write_text('["a", "list"]')
        (db.runs_dir / "zzz-empty.json").write_text("{}")
        with caplog.at_level("WARNING"):
            assert len(db.runs()) == 1

    def test_newer_schema_entry_is_skipped(self, db, caplog):
        self.seed(db, values=(5.0,))
        record = db.runs()[0].to_dict()
        record["schema"] = DB_SCHEMA_VERSION + 1
        (db.runs_dir / "zzz-future.json").write_text(json.dumps(record))
        with caplog.at_level("WARNING"):
            assert len(db.runs()) == 1
        assert any("newer than supported" in rec.message for rec in caplog.records)

    def test_missing_db_directory_reads_empty(self, tmp_path):
        assert ResultDB(tmp_path / "nowhere").runs() == []

    def test_concurrent_appends_lose_no_runs(self, db):
        def append(worker):
            for i in range(8):
                db.record("bench_concurrent", {"value": worker * 100.0 + i})

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(append, range(6)))
        runs = db.runs()
        assert len(runs) == 48
        assert len({r.run_id for r in runs}) == 48
        assert sorted(r.metric("value") for r in runs) == sorted(
            float(w * 100 + i) for w in range(6) for i in range(8)
        )


# ---------------------------------------------------------------------- query
class TestQuery:
    def seed(self, db):
        record_speedup(db, 9.0, backend=None)
        record_speedup(db, 10.0, backend="thread")
        db.record("bench_sweep_throughput", {"thread_vs_process": 1.6}, scale=0.05)

    def test_filters(self, db):
        self.seed(db)
        runs = db.runs()
        assert len(query.filter_runs(runs, bench="bench_control_loop")) == 2
        assert len(query.filter_runs(runs, backend="thread")) == 1
        assert len(query.filter_runs(runs, metric="thread_vs_process")) == 1
        assert len(query.filter_runs(runs, version=__version__)) == 3
        assert query.filter_runs(runs, version="0.0.0") == []
        assert len(query.filter_runs(runs, scale=0.05)) == 1
        assert query.benches(runs) == ["bench_control_loop", "bench_sweep_throughput"]

    def test_trajectory_and_latest(self, db):
        self.seed(db)
        runs = db.runs()
        series = query.trajectory(runs, "bench_control_loop", "native_vs_generator")
        assert [value for _, value in series] == [9.0, 10.0]
        assert query.latest_run(runs, "bench_control_loop").metric("native_vs_generator") == 10.0
        assert query.latest_run(runs, "bench_nope") is None
        per_host = query.latest_per_host(runs, "bench_control_loop")
        assert list(per_host.values())[0].metric("native_vs_generator") == 10.0

    def test_best_value_prefers_own_host(self, db):
        record_speedup(db, 5.0)
        runs = db.runs()
        fast_host = dict(runs[0].host, host_id="fasthost0000")
        other = StoredRun(**{**runs[0].to_dict(), "run_id": "x" * 20, "host": fast_host})
        db.append(other)
        runs = db.runs()
        mine = runs[0].host_id
        value, source = query.best_value(runs, "bench_control_loop",
                                         "native_vs_generator", host_id=mine)
        assert (value, source) == (5.0, f"history:{mine}")
        value, source = query.best_value(runs, "bench_control_loop",
                                         "native_vs_generator", host_id="unseenhost00")
        assert source == "history:any-host"
        assert query.best_value(runs, "bench_nope", "native_vs_generator") is None


# ----------------------------------------------------------------------- gate
class TestGate:
    def test_bootstrap_covers_the_ci_floors(self):
        floors = {(g.bench, g.metric): g.floor for g in BOOTSTRAP_BASELINES}
        assert floors == {
            ("bench_control_loop", "native_vs_generator"): 4.0,
            ("bench_sweep_throughput", "thread_vs_process"): 1.5,
            ("bench_sweep_throughput", "process_vs_serial"): 1.0,
        }
        assert gated_metrics("bench_control_loop") == ["native_vs_generator"]
        assert gated_metrics("bench_sweep_throughput") == [
            "thread_vs_process",
            "process_vs_serial",
        ]
        assert gated_metrics("bench_figure2_lsq") == []
        # The process-vs-serial floor only means something on multicore
        # hosts; the run records its core count for the gate to check.
        requirements = {
            (g.bench, g.metric): g.requires
            for g in BOOTSTRAP_BASELINES
            if g.requires is not None
        }
        assert requirements == {
            ("bench_sweep_throughput", "process_vs_serial"): ("cores", 2),
        }

    def test_bootstrap_floor_precondition(self, db):
        # A single-core run skips the conditional floor (a pool can
        # only approach serial from below there) instead of failing it.
        db.record(
            "bench_sweep_throughput",
            {"thread_vs_process": 1.6, "process_vs_serial": 0.5, "cores": 1},
        )
        results = {r.metric: r for r in check_bench(db.runs(), "bench_sweep_throughput")}
        assert results["process_vs_serial"].passed
        assert results["process_vs_serial"].source == "unchecked"
        assert results["thread_vs_process"].passed
        # The same numbers measured on four cores bind the floor.
        db.record(
            "bench_sweep_throughput",
            {"thread_vs_process": 1.6, "process_vs_serial": 0.5, "cores": 4},
        )
        results = {r.metric: r for r in check_bench(db.runs(), "bench_sweep_throughput")}
        assert not results["process_vs_serial"].passed
        assert "bootstrap floor" in results["process_vs_serial"].message

    def test_empty_history_gates_on_bootstrap(self, db):
        record_speedup(db, 4.4)
        (result,) = check_bench(db.runs(), "bench_control_loop")
        assert result.passed and result.source == "bootstrap"
        record_speedup(db, 3.9)
        results = check_bench(db.runs(), "bench_control_loop", tolerance=0.5)
        assert not results[0].passed
        assert "bootstrap floor" in results[0].message

    def test_history_regression_fails_within_tolerance_passes(self, db):
        record_speedup(db, 10.0)
        record_speedup(db, 9.0)  # within 15% of 10.0
        (result,) = check_bench(db.runs(), "bench_control_loop")
        assert result.passed and result.source.startswith("history:")
        record_speedup(db, 8.0)  # 20% below best
        (result,) = check_bench(db.runs(), "bench_control_loop")
        assert not result.passed
        assert "regressed" in result.message

    def test_different_scale_is_a_separate_trajectory(self, db):
        record_speedup(db, 19.0, scale=1.0)
        record_speedup(db, 4.5, scale=0.05)  # not gated by the 19.0 history
        (result,) = check_bench(db.runs(), "bench_control_loop")
        assert result.passed and result.source == "bootstrap"

    def test_unregistered_bench_gates_all_metrics_vs_history(self, db):
        db.record("bench_custom", {"rps": 100.0, "latency": 1.0})
        db.record("bench_custom", {"rps": 50.0, "latency": 1.0})
        results = {r.metric: r.passed for r in check_bench(db.runs(), "bench_custom")}
        assert results == {"rps": False, "latency": True}

    def test_missing_metric_fails_loudly(self, db):
        record_speedup(db, 9.0)
        (result,) = check_bench(db.runs(), "bench_control_loop", metrics=["nope"])
        assert not result.passed
        assert "no metric 'nope'" in result.message

    def test_no_runs_is_an_error(self, db):
        with pytest.raises(ResultDBError, match="no recorded runs"):
            check_bench(db.runs(), "bench_control_loop")

    def test_lower_is_better_direction(self, db):
        db.record("bench_lat", {"latency_ms": 10.0})
        db.record("bench_lat", {"latency_ms": 25.0})
        gated = GatedMetric("bench_lat", "latency_ms", 50.0, direction="lower")
        runs = db.runs()
        candidate = query.latest_run(runs, "bench_lat")
        import repro.resultdb.gate as gate_mod

        original = gate_mod.BOOTSTRAP_BASELINES
        gate_mod.BOOTSTRAP_BASELINES = (*original, gated)
        try:
            result = check_metric(runs, candidate, "latency_ms", tolerance=0.15)
        finally:
            gate_mod.BOOTSTRAP_BASELINES = original
        # 25 ms against a best of 10 ms: regressed for a lower-is-better metric.
        assert not result.passed


# --------------------------------------------------------------------- report
class TestReport:
    def seed(self, db):
        record_speedup(db, 9.5, backend="thread", scale=0.2)
        record_speedup(db, 10.5, backend="thread", scale=0.2)
        db.record("bench_sweep_throughput", {"thread_vs_process": 1.6}, scale=0.05)

    def test_overview(self, db):
        self.seed(db)
        headers, rows = overview_rows(db.runs())
        assert headers[0] == "Bench"
        assert [row[0] for row in rows] == ["bench_control_loop", "bench_sweep_throughput"]
        assert rows[0][1] == "2"  # two runs
        assert "native_vs_generator" in rows[0][-1]

    def test_comparison_and_renderers(self, db):
        self.seed(db)
        headers, rows = comparison_rows(db.runs(), "bench_control_loop")
        assert headers[-1] == "native_vs_generator"
        assert [row[-1] for row in rows] == ["9.5", "10.5"]
        text = render(headers, rows, "text", title="T")
        assert text.startswith("T\n") and "thread" in text
        csv_out = render(headers, rows, "csv")
        assert csv_out.splitlines()[0].startswith("Recorded (UTC),")
        html_out = render(headers, rows, "html", title="<T&>")
        assert "&lt;T&amp;&gt;" in html_out and "<td>9.5</td>" in html_out

    def test_explicit_metric_columns_and_errors(self, db):
        self.seed(db)
        headers, rows = comparison_rows(
            db.runs(), "bench_control_loop", metrics=["native_vs_generator", "nope"]
        )
        assert rows[0][-1] == "-"
        with pytest.raises(ResultDBError, match="no recorded runs"):
            comparison_rows(db.runs(), "bench_nope")
        with pytest.raises(ResultDBError, match="unknown report format"):
            render(headers, rows, "pdf")


# ------------------------------------------------------------------------ cli
class TestCLI:
    def ingest(self, tmp_path, value=9.5, bench="bench_control_loop",
               metric="native_vs_generator", scale=1.0):
        artifact = tmp_path / f"{bench}.json"
        artifact.write_text(json.dumps(
            {"aggregate": {metric: value, "scale": scale, "native": True}}
        ))
        return artifact

    def test_record_report_check_round_trip(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        artifact = self.ingest(tmp_path)
        assert main(["record", str(artifact), "--db", db_dir, "--backend", "thread"]) == 0
        out = capsys.readouterr().out
        assert "recorded bench_control_loop run" in out

        assert main(["report", "--db", db_dir]) == 0
        assert "bench_control_loop" in capsys.readouterr().out
        assert main(["report", "--db", db_dir, "--bench", "bench_control_loop",
                     "--format", "csv"]) == 0
        assert "native_vs_generator" in capsys.readouterr().out

        assert main(["check", "--db", db_dir]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_on_synthetic_regression(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        good = self.ingest(tmp_path, value=9.5)
        assert main(["record", str(good), "--db", db_dir]) == 0
        regressed = self.ingest(tmp_path, value=0.95)
        assert main(["record", str(regressed), "--db", db_dir]) == 0
        capsys.readouterr()
        assert main(["check", "--db", db_dir]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "regressed" in captured.out

    def test_record_nothing_errors(self, capsys):
        assert main(["record"]) == 2
        assert "nothing to record" in capsys.readouterr().err

    def test_record_bad_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["record", str(bad), "--db", str(tmp_path / "db")]) == 2
        assert "record: error:" in capsys.readouterr().err

    def test_report_empty_db_errors(self, tmp_path, capsys):
        assert main(["report", "--db", str(tmp_path / "db")]) == 2
        assert "no readable runs" in capsys.readouterr().err

    def test_report_unknown_bench_errors(self, tmp_path, capsys):
        artifact = self.ingest(tmp_path)
        db_dir = str(tmp_path / "db")
        assert main(["record", str(artifact), "--db", db_dir]) == 0
        assert main(["report", "--db", db_dir, "--bench", "nope"]) == 2
        assert "report: error:" in capsys.readouterr().err

    def test_check_empty_db_errors(self, tmp_path, capsys):
        assert main(["check", "--db", str(tmp_path / "db")]) == 2
        assert "check: error:" in capsys.readouterr().err

    def test_check_unregistered_bench_needs_history(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        artifact = self.ingest(tmp_path, bench="bench_custom", metric="rps", value=5.0)
        assert main(["record", str(artifact), "--db", db_dir]) == 0
        capsys.readouterr()
        # Nothing with a registered floor in the DB -> usage error.
        assert main(["check", "--db", db_dir]) == 2
        # Explicit bench: gated against history alone (first run passes).
        assert main(["check", "--db", db_dir, "--bench", "bench_custom"]) == 0

    def test_record_run_unknown_harness(self, monkeypatch, tmp_path, capsys):
        # Point the CLI at a directory without the benchmarks harness.
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "PERF_BENCHES", {"hotpath": "not_a_real_bench_module"}
        )
        assert main(["record", "--run", "hotpath", "--db", str(tmp_path)]) == 2
        assert "record: error:" in capsys.readouterr().err


class TestHarnessWritePath:
    """benchmarks/conftest.py routes every artifact through the store."""

    def load_harness(self):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", root)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_save_bench_writes_artifact_and_db_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_RESULTDB_DIR", str(tmp_path / "db"))
        harness = self.load_harness()
        payload = harness.save_bench(
            "bench_demo",
            runs=[{"benchmark": "adpcm"}],
            aggregate={"speedup": 4.2, "scale": 0.1, "native": False},
            backend="serial",
        )
        assert payload == {
            "runs": [{"benchmark": "adpcm"}],
            "aggregate": {"speedup": 4.2, "scale": 0.1, "native": False},
        }
        artifact = json.loads((tmp_path / "results" / "bench_demo.json").read_text())
        assert artifact == payload
        runs = ResultDB(tmp_path / "db").runs()
        assert len(runs) == 1
        # Every numeric aggregate scalar becomes a trajectory metric.
        assert runs[0].metrics == {"speedup": 4.2, "scale": 0.1}
        assert runs[0].backend == "serial"
        assert runs[0].native is False
        assert runs[0].scale == 0.1

    def test_resultdb_opt_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_RESULTDB_DIR", str(tmp_path / "db"))
        monkeypatch.setenv("REPRO_RESULTDB", "0")
        harness = self.load_harness()
        harness.save_results("bench_demo", {"aggregate": {"x": 1.0}})
        assert (tmp_path / "results" / "bench_demo.json").exists()
        assert ResultDB(tmp_path / "db").runs() == []

    def test_db_failure_never_kills_the_bench(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_RESULTDB_DIR", str(tmp_path / "db"))
        harness = self.load_harness()
        # No numeric metrics -> ResultDBError inside the append; the
        # artifact must still land and the failure must only be logged.
        with caplog.at_level("WARNING"):
            harness.save_results("bench_demo", {"note": "nothing numeric"})
        assert (tmp_path / "results" / "bench_demo.json").exists()
        assert any("result db append" in rec.message for rec in caplog.records)
