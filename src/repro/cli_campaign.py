"""The ``repro campaign`` verb: handlers and parser registration.

Split out of :mod:`repro.cli` (a pure move plus the execution-override
options) so the top-level module stays a routing table.  Behaviour and
exit codes are unchanged: 0 success, 1 incomplete/quarantined, 2
usage/configuration errors, 130 interrupted after checkpointing.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys


def _campaign_dry_run(runner) -> int:
    """Print the expanded cell plan without running anything."""
    from repro.experiments import Orchestrator
    from repro.reporting.tables import format_table

    spec = runner.spec
    plans = runner.plan()
    # Constructing the orchestrator validates every execution knob
    # (backend, workers, batch, REPRO_* defaults) before the user
    # commits a night to the campaign.
    Orchestrator(**spec.orchestrator_kwargs())
    rows = [
        (str(p.index), p.scenario.run_id, p.status) for p in plans
    ]
    print(
        format_table(
            ["Cell", "Scenario", "Status"],
            rows,
            title=f"Campaign '{spec.name}' plan ({len(plans)} cells, dry run)",
        )
    )
    pending = sum(1 for p in plans if p.status != "done")
    print(f"\ncampaign file: {spec.source}")
    print(f"output dir:    {spec.campaign_dir}")
    print(f"journal:       {spec.journal_path}")
    print(f"spec hash:     {spec.spec_hash}")
    print(
        f"execution:     backend={spec.backend or 'auto'} "
        f"workers={spec.workers or 1} batch={spec.batch or 'auto'}"
    )
    print(f"\n{pending} cell(s) would execute; nothing was run.")
    return 0


def _campaign_status_payload(runner) -> dict:
    """The campaign's progress as a JSON-native dict.

    The keys are ``id``, ``label``, ``state``, ``total``, ``done``,
    ``failed``, ``events`` and ``elapsed_s``.  ``state`` uses the
    journal's vocabulary: ``pending`` (no journal), ``partial``
    (interrupted with cells remaining), ``failed`` (complete but with
    quarantined cells) or ``finished``; ``events`` counts journal
    entries and ``elapsed_s`` is null — a journal records outcomes,
    not wall-clock.
    """
    spec = runner.spec
    total = len(runner.matrix())
    if not runner.journal.exists():
        done = failed = entries = 0
        state = "pending"
    else:
        plans = runner.plan()
        done = sum(1 for p in plans if p.status == "done")
        failed = sum(1 for p in plans if p.status == "quarantined")
        entries = runner.state().entries
        if done == total:
            state = "finished"
        elif done + failed == total:
            state = "failed"
        else:
            state = "partial"
    return {
        "id": f"campaign:{spec.name}",
        "label": spec.name,
        "state": state,
        "total": total,
        "done": done,
        "failed": failed,
        "events": entries,
        "elapsed_s": None,
    }


def _campaign_status(runner, as_json: bool = False) -> int:
    """Summarise journalled progress; 0 only when fully complete and ok."""
    from repro.reporting.tables import format_table

    spec = runner.spec
    if as_json:
        payload = _campaign_status_payload(runner)
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0 if payload["state"] == "finished" else 1
    if not runner.journal.exists():
        print(
            f"campaign '{spec.name}': not started "
            f"(no journal at {spec.journal_path})"
        )
        return 1
    plans = runner.plan()
    done = sum(1 for p in plans if p.status == "done")
    quarantined = [p for p in plans if p.status == "quarantined"]
    pending = len(plans) - done - len(quarantined)
    print(
        f"campaign '{spec.name}': {done}/{len(plans)} cells done, "
        f"{len(quarantined)} quarantined, {pending} pending"
    )
    print(f"journal: {spec.journal_path}")
    if quarantined:
        state = runner.state()
        rows = []
        for plan in quarantined:
            error = state.quarantined[plan.index].error or ""
            rows.append(
                (str(plan.index), plan.scenario.run_id,
                 error.strip().splitlines()[-1][:60] if error else "")
            )
        print()
        print(
            format_table(
                ["Cell", "Scenario", "Error"],
                rows,
                title="Quarantined cells (re-queued by 'campaign resume')",
            )
        )
    if pending or quarantined:
        print(f"\ncontinue with: repro campaign resume {spec.source}")
        return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaigns import CampaignRunner, CampaignSpec

    if getattr(args, "verbose", False):
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)s %(message)s"
        )
    spec = CampaignSpec.load(args.file, output_dir=args.output)
    if args.action in ("run", "resume"):
        # Execution knobs are resume-safe overrides: the spec hash
        # deliberately excludes them, and validation happens in the
        # orchestrator constructor (unknown values exit 2 through the
        # CLI's error boundary).
        spec = spec.with_execution(
            backend=args.backend, workers=args.workers, batch=args.batch
        )
    runner = CampaignRunner(spec)
    if args.action == "status":
        return _campaign_status(runner, as_json=args.json)
    if args.action == "run" and args.dry_run:
        return _campaign_dry_run(runner)
    try:
        report = runner.run(
            resume=args.action == "resume",
            force=getattr(args, "force", False),
        )
    except KeyboardInterrupt:
        # Completed cells are already durably journalled and the
        # orchestrator has stopped its workers; exit 130.
        print(
            f"\ncampaign: interrupted — progress checkpointed in "
            f"{spec.journal_path}; continue with "
            f"'repro campaign resume {args.file}'",
            file=sys.stderr,
        )
        return 130
    print(report.summary_line())
    for outcome in report.results.errors:
        print(f"\nQUARANTINED {outcome.scenario.run_id}:\n{outcome.error}")
    if report.results_path is not None:
        print(f"results: {report.results_path}")
    return 0 if report.ok else 1


def register_campaign_parser(sub) -> None:
    """Attach the ``campaign`` subcommand to the top-level subparsers."""
    camp_p = sub.add_parser(
        "campaign",
        help="run a declarative TOML campaign with checkpointed progress",
    )
    camp_sub = camp_p.add_subparsers(dest="action", required=True)

    def add_campaign_arguments(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("file", help="campaign TOML file")
        parser_.add_argument(
            "--output",
            default=None,
            help="campaign directory (default: the file's [campaign] output)",
        )

    def add_execution_overrides(parser_: argparse.ArgumentParser) -> None:
        """--backend/--workers/--batch, resume-safe by spec-hash design."""
        parser_.add_argument(
            "--backend",
            default=None,
            help="override the file's backend (auto|thread|process|serial); "
            "safe on resume — execution knobs are outside the spec hash",
        )
        parser_.add_argument(
            "--workers",
            default=None,
            help="override the file's worker count (integer or 'auto')",
        )
        parser_.add_argument(
            "--batch",
            default=None,
            help="override the file's batch-cell size (integer or 'auto')",
        )
        parser_.add_argument(
            "--verbose",
            action="store_true",
            help="progress logging: one line per completed cell",
        )

    camp_run = camp_sub.add_parser(
        "run", help="execute the campaign from scratch"
    )
    add_campaign_arguments(camp_run)
    camp_run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded cell plan and exit without running",
    )
    camp_run.add_argument(
        "--force",
        action="store_true",
        help="discard any journalled progress and restart from scratch",
    )
    add_execution_overrides(camp_run)
    camp_run.set_defaults(func=_cmd_campaign)

    camp_status = camp_sub.add_parser(
        "status", help="summarise journalled progress without running"
    )
    add_campaign_arguments(camp_status)
    camp_status.add_argument(
        "--json",
        action="store_true",
        help="emit the progress as a JSON object instead of text",
    )
    camp_status.set_defaults(func=_cmd_campaign)

    camp_resume = camp_sub.add_parser(
        "resume",
        help="continue an interrupted campaign from its journal",
    )
    add_campaign_arguments(camp_resume)
    add_execution_overrides(camp_resume)
    camp_resume.set_defaults(func=_cmd_campaign)
