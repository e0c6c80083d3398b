"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_catalog_parses(self):
        args = build_parser().parse_args(["catalog"])
        assert args.command == "catalog"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "adpcm"])
        assert args.benchmark == "adpcm"
        assert args.algorithm == "attack-decay"
        assert not args.sync

    def test_compare_requires_benchmarks(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare"])

    def test_no_command_prints_usage(self, capsys):
        # A bare ``python -m repro`` is a help request, not an error:
        # usage goes to stdout and the exit status is 2.
        assert main([]) == 2
        assert "usage: repro" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestExecution:
    def test_catalog_lists_thirty(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out
        assert "voronoi" in out

    def test_hardware_prints_table3(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "476" in out
        assert "2016" in out or "2,016" in out

    def test_run_tiny(self, capsys):
        assert main(["run", "adpcm", "--scale", "0.05", "--algorithm", "none"]) == 0
        out = capsys.readouterr().out
        assert "CPI:" in out
        assert "final domain frequencies" in out

    def test_run_unknown_benchmark_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["run", "nonesuch"])

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out  # catalog
        assert "phase_thrash" in out  # derived
        assert "Derived" in out

    def test_list_scenarios_family_filter(self, capsys):
        assert main(["list-scenarios", "--family", "Derived"]) == 0
        out = capsys.readouterr().out
        assert "phase_thrash" in out
        assert "MediaBench" not in out

    def test_run_derived_scenario(self, capsys):
        assert main(["run", "adv_sawtooth", "--scale", "0.02",
                     "--algorithm", "none"]) == 0
        assert "CPI:" in capsys.readouterr().out

    def test_run_phases_prints_attribution(self, capsys):
        assert main(["run", "epic", "--scale", "0.05", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "Per-phase attribution" in out
        assert "fp_burst_1" in out
        assert "dominant phase (energy):" in out


class TestSweepErrorPaths:
    """User errors in sweep exit with a message, never a traceback."""

    def test_unknown_configuration(self, capsys):
        rc = main(["sweep", "--benchmarks", "adpcm",
                   "--configurations", "not_a_config"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep: error:" in err
        assert "not_a_config" in err

    def test_unknown_benchmark(self, capsys):
        rc = main(["sweep", "--benchmarks", "not_a_bench",
                   "--configurations", "sync"])
        assert rc == 2
        assert "not_a_bench" in capsys.readouterr().err

    def test_malformed_repro_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "fast")
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync"])
        assert rc == 2
        assert "REPRO_SCALE" in capsys.readouterr().err

    def test_negative_repro_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync"])
        assert rc == 2
        assert "REPRO_SCALE" in capsys.readouterr().err

    def test_malformed_repro_workers(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync"])
        assert rc == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_malformed_repro_benchmarks(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "adpcm,bogus")
        rc = main(["sweep", "--configurations", "sync"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_repro_backend(self, capsys, monkeypatch):
        # The bad value must be rejected when the orchestrator is
        # built, before any cell runs — not deep inside run().
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync"])
        assert rc == 2
        assert "REPRO_BACKEND" in capsys.readouterr().err

    def test_malformed_repro_batch(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "heaps")
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync"])
        assert rc == 2
        assert "REPRO_BATCH" in capsys.readouterr().err

    def test_malformed_repro_start_method(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync"])
        assert rc == 2
        assert "REPRO_START_METHOD" in capsys.readouterr().err


    def test_repeated_matrix_entries_rejected_before_any_cell(self, capsys, monkeypatch):
        from repro.experiments.executor import ExecutionContext

        cells = []
        monkeypatch.setattr(ExecutionContext, "run_batch", cells.append)
        rc = main(["sweep", "--benchmarks", "adpcm,adpcm", "--seeds", "1,1",
                   "--configurations", "sync", "--no-cache"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep: error:")
        assert err.count("\n") == 1
        assert "repeats benchmark 'adpcm'" in err
        assert cells == []

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_rejected_before_any_cell(self, capsys, monkeypatch, scale):
        from repro.experiments.executor import ExecutionContext

        cells = []
        monkeypatch.setattr(ExecutionContext, "run_batch", cells.append)
        rc = main(["sweep", "--benchmarks", "adpcm", "--configurations", "sync",
                   "--scale", scale, "--no-cache"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep: error:")
        assert "scale" in err
        assert cells == []


class TestCompare:
    """compare runs through one orchestrator and fails the way sweep does."""

    def test_unknown_benchmark(self, capsys):
        assert main(["compare", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("compare: error:")
        assert "nonesuch" in err

    def test_negative_scale(self, capsys):
        assert main(["compare", "adpcm", "--scale", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("compare: error:")
        assert "-1" in err

    def test_prints_the_three_algorithms(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["compare", "adpcm", "gsm", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Comparison vs baseline MCD (adpcm, gsm)" in out
        for label in ("Attack/Decay", "Dynamic-1%", "Dynamic-5%"):
            assert label in out


class TestTraceCommands:
    """export-trace / import-trace, including the failure paths."""

    def test_export_then_import_round_trip(self, tmp_path, capsys):
        path = tmp_path / "adpcm.etf"
        assert main(["export-trace", "adpcm", str(path), "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "checksum:" in out
        assert path.exists()
        assert main(["import-trace", str(path), "--run",
                     "--algorithm", "none"]) == 0
        out = capsys.readouterr().out
        assert "imported" in out
        assert "adpcm@etf" in out
        assert "CPI:" in out

    def test_import_round_trip_reproduces_summary(self, tmp_path):
        """export -> import -> run equals the original run exactly."""
        from repro.metrics.summary import summarize
        from repro.sim.engine import SimulationSpec, run_spec
        from repro.uarch.etf import read_etf
        from repro.workloads.catalog import register_benchmark

        path = tmp_path / "gsm.etf"
        assert main(["export-trace", "gsm", str(path), "--scale", "0.05"]) == 0
        import dataclasses

        imported = dataclasses.replace(read_etf(path), name="gsm@roundtrip")
        register_benchmark(imported, replace=True)
        original = summarize(
            run_spec(SimulationSpec(benchmark="gsm", scale=0.05, seed=3))
        )
        replayed = summarize(
            run_spec(SimulationSpec(benchmark="gsm@roundtrip", seed=3))
        )
        assert replayed == original

    def test_export_unknown_benchmark(self, tmp_path):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["export-trace", "nonesuch", str(tmp_path / "x.etf")])

    def test_import_missing_file(self, tmp_path, capsys):
        rc = main(["import-trace", str(tmp_path / "absent.etf")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_import_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.etf"
        path.write_bytes(b"this is not an ETF archive")
        rc = main(["import-trace", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_import_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "trunc.etf"
        assert main(["export-trace", "adpcm", str(path), "--scale", "0.05"]) == 0
        capsys.readouterr()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        rc = main(["import-trace", str(path)])
        assert rc == 2
        assert "unreadable" in capsys.readouterr().err

    def test_import_checksum_mismatch(self, tmp_path, capsys):
        """A well-formed archive whose columns were tampered with."""
        import numpy as np

        path = tmp_path / "tampered.etf"
        assert main(["export-trace", "adpcm", str(path), "--scale", "0.05"]) == 0
        capsys.readouterr()
        with np.load(path) as data:
            members = {k: data[k] for k in data.files}
        members["addrs"] = members["addrs"].copy()
        members["addrs"][0] += 64
        with open(path, "wb") as handle:  # np.savez(path) would add .npz
            np.savez(handle, **members)
        rc = main(["import-trace", str(path)])
        assert rc == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_import_bad_phase_marks(self, tmp_path, capsys):
        """Marks that do not partition the trace are a read-time error."""
        import json

        import numpy as np

        path = tmp_path / "marks.etf"
        assert main(["export-trace", "adpcm", str(path), "--scale", "0.05"]) == 0
        capsys.readouterr()
        with np.load(path) as data:
            members = {k: data[k] for k in data.files}
        header = json.loads(bytes(members["header"]).decode())
        header["phases"] = [["a", 10], ["b", 5]]  # non-ascending, short
        members["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        rc = main(["import-trace", str(path), "--run", "--phases"])
        assert rc == 2
        assert "phase marks" in capsys.readouterr().err

    def test_import_bad_version(self, tmp_path, capsys):
        import json

        import numpy as np

        path = tmp_path / "future.etf"
        assert main(["export-trace", "adpcm", str(path), "--scale", "0.05"]) == 0
        capsys.readouterr()
        with np.load(path) as data:
            members = {k: data[k] for k in data.files}
        header = json.loads(bytes(members["header"]).decode())
        header["version"] = 99
        members["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:  # np.savez(path) would add .npz
            np.savez(handle, **members)
        rc = main(["import-trace", str(path)])
        assert rc == 2
        assert "unsupported ETF version" in capsys.readouterr().err
