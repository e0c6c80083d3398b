"""The campaign subsystem: spec, journal, and kill-and-resume.

The contract under test is the one the docs promise: a campaign
interrupted at *any* point — simulated in-process, or a real SIGINT to
a subprocess mid-matrix — resumes from its journal, executes exactly
the cells that were missing, and publishes a ``results.json``
byte-identical to an uninterrupted run of the same file.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
)
from repro.cli import main
from repro.errors import CampaignError, ExperimentError
from repro.experiments.results import RunOutcome
from repro.experiments.scenario import Scenario

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

SMALL_CAMPAIGN = """
[campaign]
name = "small"

[matrix]
benchmarks = ["adpcm", "gsm"]
configurations = ["sync", "mcd_base"]
seeds = [1]
scale = 0.02

[execution]
backend = "serial"
use_cache = false
"""


def write_campaign(tmp_path: Path, text: str = SMALL_CAMPAIGN) -> Path:
    path = tmp_path / "campaign.toml"
    path.write_text(text)
    return path


def _journal_lines(path: Path) -> list[dict]:
    """A journal's records without their timestamps, which differ run to run."""
    lines = []
    for raw in path.read_text().splitlines():
        data = json.loads(raw)
        data.pop("utc", None)
        lines.append(data)
    return lines


class TestCampaignSpec:
    def test_load_parses_fields_and_defaults(self, tmp_path):
        spec = CampaignSpec.load(write_campaign(tmp_path))
        assert spec.name == "small"
        assert spec.benchmarks == ("adpcm", "gsm")
        assert spec.configurations == ("sync", "mcd_base")
        assert spec.seeds == (1,)
        assert spec.scale == 0.02
        assert spec.backend == "serial"
        assert spec.use_cache is False
        assert spec.campaign_dir == tmp_path / "small.campaign"
        assert spec.journal_path == tmp_path / "small.campaign" / "journal.jsonl"
        assert len(spec) == 4
        assert len(spec.suite().expand()) == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            CampaignSpec.load(tmp_path / "nope.toml")

    def test_invalid_toml_raises(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[campaign\nname=")
        with pytest.raises(CampaignError, match="not valid TOML"):
            CampaignSpec.load(path)

    def test_unknown_section_raises(self, tmp_path):
        path = write_campaign(tmp_path, SMALL_CAMPAIGN + "\n[matrxi]\nx = 1\n")
        with pytest.raises(CampaignError, match="matrxi"):
            CampaignSpec.load(path)

    def test_unknown_key_raises(self, tmp_path):
        for text, key in (
            (SMALL_CAMPAIGN.replace("benchmarks =", "bencmarks ="), "bencmarks"),
            # Process workers always fork: there is no start method to pick.
            (SMALL_CAMPAIGN + 'start_method = "spawn"\n', "start_method"),
        ):
            with pytest.raises(CampaignError, match=key):
                CampaignSpec.load(write_campaign(tmp_path, text))

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (("name = \"small\"", "name = 3"), "name"),
            (("benchmarks = [\"adpcm\", \"gsm\"]", "benchmarks = []"),
             "benchmarks"),
            (("seeds = [1]", "seeds = [true]"), "seeds"),
            (("scale = 0.02", "scale = -1"), "scale"),
        ],
    )
    def test_wrong_typed_values_raise(self, tmp_path, mutation, message):
        old, new = mutation
        with pytest.raises(CampaignError, match=message):
            CampaignSpec.load(
                write_campaign(tmp_path, SMALL_CAMPAIGN.replace(old, new))
            )

    def test_relative_paths_resolve_against_file(self, tmp_path):
        text = SMALL_CAMPAIGN + "\ncache_dir = \"sub/cache\"\n"
        spec = CampaignSpec.load(write_campaign(tmp_path, text))
        assert spec.cache_dir == tmp_path / "sub" / "cache"

    def test_output_dir_override(self, tmp_path):
        spec = CampaignSpec.load(
            write_campaign(tmp_path), output_dir=tmp_path / "elsewhere"
        )
        assert spec.campaign_dir == tmp_path / "elsewhere"

    def test_spec_hash_ignores_execution_knobs(self, tmp_path):
        base = CampaignSpec.load(write_campaign(tmp_path))
        threaded = CampaignSpec.load(
            write_campaign(
                tmp_path, SMALL_CAMPAIGN.replace('"serial"', '"thread"')
            )
        )
        assert base.spec_hash == threaded.spec_hash

    def test_spec_hash_tracks_matrix_changes(self, tmp_path):
        base = CampaignSpec.load(write_campaign(tmp_path))
        changed = CampaignSpec.load(
            write_campaign(tmp_path, SMALL_CAMPAIGN.replace("[1]", "[1, 2]"))
        )
        assert base.spec_hash != changed.spec_hash

    def test_spec_hash_tracks_env_scale_when_unset(self, tmp_path, monkeypatch):
        text = SMALL_CAMPAIGN.replace("scale = 0.02\n", "")
        path = write_campaign(tmp_path, text)
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        first = CampaignSpec.load(path).spec_hash
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert CampaignSpec.load(path).spec_hash != first


def _outcome(benchmark="adpcm", configuration="sync", ok=True) -> RunOutcome:
    scenario = Scenario(benchmark, configuration, scale=0.02)
    if ok:
        from repro.experiments.executor import ExecutionContext

        return ExecutionContext(scale=0.02, seed=1, use_cache=False).run_isolated(
            scenario
        )
    return RunOutcome(scenario=scenario, error="injected failure")


class TestJournal:
    def test_round_trip_restores_outcomes(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.begin("small", "hash", 4)
        good, bad = _outcome(ok=True), _outcome("gsm", ok=False)
        journal.record(0, good)
        journal.record(3, bad)
        state = journal.load()
        assert state.header["campaign"] == "small"
        assert set(state.completed) == {0}
        assert set(state.quarantined) == {3}
        assert state.completed[0].to_dict() == good.to_dict()
        assert state.quarantined[3].error == "injected failure"

    def test_later_entries_supersede(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.begin("small", "hash", 4)
        journal.record(1, _outcome(ok=False))
        journal.record(1, _outcome(ok=True))
        state = journal.load()
        assert set(state.completed) == {1}
        assert not state.quarantined

    def test_truncated_trailing_line_is_pending(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.begin("small", "hash", 4)
        journal.record(0, _outcome())
        with open(journal.path, "a") as handle:
            handle.write('{"cell": 1, "ok": true, "outco')  # crash mid-append
        state = journal.load()
        assert set(state.completed) == {0}

    def test_corrupt_interior_line_is_skipped(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.begin("small", "hash", 4)
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
        journal.record(2, _outcome())
        state = journal.load()
        assert set(state.completed) == {2}

    def test_spec_hash_mismatch_refuses(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.begin("small", "old-hash", 4)
        with pytest.raises(CampaignError, match="different campaign"):
            journal.validate(journal.load(), "new-hash", 4)

    def test_total_mismatch_refuses(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.begin("small", "hash", 4)
        with pytest.raises(CampaignError, match="4 cells"):
            journal.validate(journal.load(), "hash", 6)

    def test_newer_schema_refuses(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"journal": 99, "campaign": "x"}\n')
        with pytest.raises(CampaignError, match="schema 99"):
            CampaignJournal(path).load()


class TestCampaignRunner:
    def test_full_run_publishes_results(self, tmp_path):
        spec = CampaignSpec.load(write_campaign(tmp_path))
        report = CampaignRunner(spec).run()
        assert report.ok
        assert report.executed == 4 and report.restored == 0
        assert spec.journal_path.is_file()
        published = json.loads(spec.results_path.read_text())
        assert len(published["outcomes"]) == 4

    def test_rerun_without_resume_refuses(self, tmp_path):
        spec = CampaignSpec.load(write_campaign(tmp_path))
        runner = CampaignRunner(spec)
        runner.run()
        with pytest.raises(CampaignError, match="resume"):
            runner.run()

    def test_force_restarts_from_scratch(self, tmp_path):
        spec = CampaignSpec.load(write_campaign(tmp_path))
        runner = CampaignRunner(spec)
        runner.run()
        report = runner.run(force=True)
        assert report.executed == 4 and report.restored == 0

    def test_resume_restores_everything(self, tmp_path):
        spec = CampaignSpec.load(write_campaign(tmp_path))
        runner = CampaignRunner(spec)
        first = runner.run()
        again = runner.run(resume=True)
        assert again.executed == 0 and again.restored == 4
        assert again.results.to_dict() == first.results.to_dict()

    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        """Interrupted before the third cell is journalled; resume finishes the rest."""
        reference_spec = CampaignSpec.load(
            write_campaign(tmp_path), output_dir=tmp_path / "reference"
        )
        CampaignRunner(reference_spec).run()

        spec = CampaignSpec.load(write_campaign(tmp_path))
        runner = CampaignRunner(spec)
        record = runner.journal.record
        recorded = []

        def interrupt_on_third(index, outcome):
            recorded.append(index)
            if len(recorded) == 3:
                raise KeyboardInterrupt
            record(index, outcome)

        runner.journal.record = interrupt_on_third
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        assert len(runner.state().completed) == 2  # journalled before the interrupt

        report = CampaignRunner(spec).run(resume=True)
        assert report.ok
        assert report.restored == 2
        assert report.executed == 2  # exactly the missing cells
        # Byte-identical results; journal identical modulo timestamps.
        assert (
            spec.results_path.read_bytes()
            == reference_spec.results_path.read_bytes()
        )
        assert _journal_lines(spec.journal_path) == _journal_lines(
            reference_spec.journal_path
        )

    def test_duplicate_axis_entries_rejected_before_any_cell(self, tmp_path, capsys):
        text = SMALL_CAMPAIGN.replace(
            'benchmarks = ["adpcm", "gsm"]', 'benchmarks = ["adpcm", "gsm", "adpcm"]'
        ).replace('backend = "serial"', 'backend = "thread"\nworkers = "2"\nbatch = 1')
        path = write_campaign(tmp_path, text)
        spec = CampaignSpec.load(path)
        with pytest.raises(ExperimentError, match="repeats benchmark 'adpcm'"):
            CampaignRunner(spec).run()
        assert not spec.journal_path.exists()
        assert main(["campaign", "run", str(path)]) == 2
        assert "repeats benchmark 'adpcm'" in capsys.readouterr().err

    def test_quarantined_cells_are_requeued_on_resume(self, tmp_path):
        from repro.experiments import CONFIGURATIONS, register_configuration

        marker = tmp_path / "poison.marker"
        marker.touch()

        @register_configuration("flaky_cfg")
        def flaky(ctx, benchmark, scale, seed):
            """Test entry that fails while the marker file exists."""
            if marker.exists():
                raise RuntimeError("injected campaign failure")
            factory = CONFIGURATIONS.get("sync")
            return factory(ctx, benchmark, scale=scale, seed=seed)

        text = SMALL_CAMPAIGN.replace('"mcd_base"', '"flaky_cfg"')
        try:
            spec = CampaignSpec.load(write_campaign(tmp_path, text))
            runner = CampaignRunner(spec)
            report = runner.run()
            assert not report.ok
            assert report.quarantined == 2
            state = runner.state()
            assert len(state.quarantined) == 2

            marker.unlink()  # heal the flake
            healed = runner.run(resume=True)
            assert healed.ok
            assert healed.restored == 2  # the healthy sync cells
            assert healed.executed == 2  # the re-queued quarantined pair

            reference_spec = CampaignSpec.load(
                write_campaign(tmp_path, text),
                output_dir=tmp_path / "reference",
            )
            CampaignRunner(reference_spec).run()
            assert (
                spec.results_path.read_bytes()
                == reference_spec.results_path.read_bytes()
            )
        finally:
            CONFIGURATIONS.unregister("flaky_cfg")


DRIVER = """
import os, sys, time
from repro.experiments import CONFIGURATIONS, register_configuration


@register_configuration("sleepy")
def sleepy(ctx, benchmark, scale, seed):
    \"\"\"Sync run, slowed so the parent can interrupt mid-matrix.\"\"\"
    time.sleep(float(os.environ.get("SLEEPY_DELAY", "0")))
    return CONFIGURATIONS.get("sync")(ctx, benchmark, scale=scale, seed=seed)


from repro.cli import main

sys.exit(main(sys.argv[1:]))
"""

SLEEPY_CAMPAIGN = """
[campaign]
name = "sigint"

[matrix]
benchmarks = ["adpcm", "gsm", "phase_thrash"]
configurations = ["sleepy"]
seeds = [1, 2]
scale = 0.02

[execution]
backend = "process"
workers = "2"
use_cache = false
"""


@pytest.mark.skipif(os.name != "posix", reason="signals are POSIX-only")
class TestRealSigint:
    """A real SIGINT mid-matrix: exit 130, exact resume."""

    def _run_driver(self, tmp_path, *cli, env=None, **popen_kwargs):
        driver = tmp_path / "driver.py"
        driver.write_text(DRIVER)
        full_env = {
            **os.environ,
            "PYTHONPATH": str(SRC_DIR),
            "SLEEPY_DELAY": "0",
            **(env or {}),
        }
        return subprocess.Popen(
            [sys.executable, str(driver), *cli],
            env=full_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            **popen_kwargs,
        )

    def test_sigint_exits_130_and_resume_is_byte_identical(self, tmp_path):
        campaign = tmp_path / "sigint.toml"
        campaign.write_text(SLEEPY_CAMPAIGN)
        journal = tmp_path / "sigint.campaign" / "journal.jsonl"

        proc = self._run_driver(
            tmp_path, "campaign", "run", str(campaign),
            env={"SLEEPY_DELAY": "0.3"},
        )
        # Wait for the first journalled cell, then interrupt mid-matrix.
        deadline = time.time() + 60
        while time.time() < deadline:
            if journal.is_file() and len(journal.read_text().splitlines()) >= 2:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("campaign never journalled its first cell")
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)

        assert proc.returncode == 130, (stdout, stderr)
        assert "Traceback" not in stderr, stderr
        assert "interrupted" in stderr
        assert "resume" in stderr  # the hint names the continuation

        state = CampaignJournal(journal).load()
        completed = set(state.completed)
        assert completed, "no cells were checkpointed before the interrupt"
        assert len(completed) < 6, "interrupt landed after the whole matrix"

        resume = self._run_driver(
            tmp_path, "campaign", "resume", str(campaign), "--verbose"
        )
        stdout, stderr = resume.communicate(timeout=120)
        assert resume.returncode == 0, (stdout, stderr)
        assert f"{len(completed)} restored" in stdout
        # --verbose prints one line per cell the resume completes.
        remaining = 6 - len(completed)
        assert [
            line.split()[1] for line in stderr.splitlines() if line.startswith("INFO [")
        ] == [f"[{done}/{remaining}]" for done in range(1, remaining + 1)]

        reference = self._run_driver(
            tmp_path, "campaign", "run", str(campaign),
            "--output", str(tmp_path / "reference"),
        )
        stdout, stderr = reference.communicate(timeout=120)
        assert reference.returncode == 0, (stdout, stderr)
        assert (
            (tmp_path / "sigint.campaign" / "results.json").read_bytes()
            == (tmp_path / "reference" / "results.json").read_bytes()
        )


class TestCampaignCLI:
    def test_dry_run_prints_plan_without_running(self, tmp_path, capsys):
        path = write_campaign(tmp_path)
        assert main(["campaign", "run", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "adpcm:sync#s1" in out
        assert "nothing was run" in out
        assert not (tmp_path / "small.campaign").exists()

    def test_run_status_resume_round_trip(self, tmp_path, capsys):
        path = write_campaign(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        assert "4/4 cells ok" in capsys.readouterr().out
        assert main(["campaign", "status", str(path)]) == 0
        assert "4/4 cells done" in capsys.readouterr().out
        assert main(["campaign", "status", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "id": "campaign:small", "label": "small", "state": "finished",
            "total": 4, "done": 4, "failed": 0, "events": 4, "elapsed_s": None,
        }
        assert main(["campaign", "resume", str(path)]) == 0
        assert "4 restored" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["run", "resume"])
    def test_progress_is_not_an_option(self, tmp_path, capsys, action):
        # ``--verbose`` prints one line per completed cell.
        with pytest.raises(SystemExit) as exited:
            main(["campaign", action, str(write_campaign(tmp_path)), "--progress"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --progress" in capsys.readouterr().err

    def test_status_before_start(self, tmp_path, capsys):
        path = write_campaign(tmp_path)
        assert main(["campaign", "status", str(path)]) == 1
        assert "not started" in capsys.readouterr().out
        assert main(["campaign", "status", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["state"], payload["done"], payload["events"]) == ("pending", 0, 0)

    def test_rerun_without_resume_is_usage_error(self, tmp_path, capsys):
        path = write_campaign(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "campaign: error:" in err
        assert "resume" in err

    def test_force_restarts(self, tmp_path, capsys):
        path = write_campaign(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(path), "--force"]) == 0
        assert "4 executed" in capsys.readouterr().out

    def test_bad_toml_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[campaign]\nname = \"x\"\nbogus_key = 1\n")
        assert main(["campaign", "run", str(path)]) == 2
        assert "campaign: error:" in capsys.readouterr().err

    def test_unknown_benchmark_is_usage_error(self, tmp_path, capsys):
        text = SMALL_CAMPAIGN.replace('"adpcm"', '"nonesuch"')
        path = write_campaign(tmp_path, text)
        assert main(["campaign", "run", str(path)]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_bad_repro_backend_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        text = SMALL_CAMPAIGN.replace('backend = "serial"\n', "")
        path = write_campaign(tmp_path, text)
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        assert main(["campaign", "run", str(path), "--dry-run"]) == 2
        assert "REPRO_BACKEND" in capsys.readouterr().err

    def test_quarantined_failures_exit_one(self, tmp_path, capsys):
        from repro.experiments import CONFIGURATIONS, register_configuration

        @register_configuration("cli_explode")
        def exploding(ctx, benchmark, scale, seed):
            """Test entry that always fails."""
            raise RuntimeError("injected CLI failure")

        text = SMALL_CAMPAIGN.replace('"mcd_base"', '"cli_explode"')
        try:
            path = write_campaign(tmp_path, text)
            assert main(["campaign", "run", str(path)]) == 1
            out = capsys.readouterr().out
            assert "2 quarantined" in out
            assert "injected CLI failure" in out
        finally:
            CONFIGURATIONS.unregister("cli_explode")
