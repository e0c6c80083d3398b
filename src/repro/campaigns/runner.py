"""Checkpointed execution of a campaign: run, status, resume.

:class:`CampaignRunner` drives one :class:`~repro.campaigns.spec
.CampaignSpec` through the :class:`~repro.experiments.orchestrator
.Orchestrator` with the checkpoint journal as its ``on_outcome``
callback: every outcome the orchestrator announces is durably
journalled before it announces the next, so however the process
dies — Ctrl-C, a crash, a power cut — the journal names exactly which
cells completed.  ``resume`` restores those cells' outcomes from the
journal, re-queues quarantined failures, and executes only what is
missing; because simulations are deterministic and results
content-addressed, the final
:class:`~repro.experiments.results.ResultSet` is byte-identical to an
uninterrupted run of the same campaign file.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

from repro.campaigns.journal import CampaignJournal, JournalState
from repro.campaigns.spec import CampaignSpec
from repro.errors import CampaignError
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.results import ResultSet, RunOutcome
from repro.experiments.scenario import Scenario
from repro.ioutil import atomic_write

logger = logging.getLogger(__name__)

#: Cell states as reported by :meth:`CampaignRunner.plan`.
PENDING, DONE, QUARANTINED = "pending", "done", "quarantined"


@dataclass(frozen=True)
class CellPlan:
    """One matrix cell's identity and checkpoint status."""

    index: int
    scenario: Scenario
    status: str  # PENDING | DONE | QUARANTINED


@dataclass
class CampaignReport:
    """What one ``run``/``resume`` invocation did, Icarus-style."""

    name: str
    total: int
    succeeded: int
    quarantined: int
    restored: int  # cells restored from the journal, not re-run
    executed: int  # cells actually executed this invocation
    elapsed_s: float
    results: ResultSet
    results_path: object = None  # Path once published, else None

    @property
    def ok(self) -> bool:
        """Whether every cell of the matrix succeeded."""
        return self.succeeded == self.total

    def summary_line(self) -> str:
        """The one-line completion summary."""
        parts = [
            f"campaign '{self.name}': {self.succeeded}/{self.total} cells ok",
        ]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        parts.append(
            f"{self.executed} executed, {self.restored} restored from "
            f"checkpoint in {self.elapsed_s:.1f}s"
        )
        return " — ".join(parts)


class CampaignRunner:
    """Executes one campaign spec with journalled checkpoints."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.journal = CampaignJournal(spec.journal_path)

    # --- inspection ---------------------------------------------------------
    def matrix(self) -> list[Scenario]:
        """The expanded cell matrix (validates axes against registries)."""
        return self.spec.suite().expand()

    def state(self) -> JournalState:
        """The journal's view of progress (empty for a fresh campaign)."""
        return self.journal.load()

    def plan(self, state: JournalState | None = None) -> list[CellPlan]:
        """Every cell with its checkpoint status, in matrix order."""
        matrix = self.matrix()
        if state is None:
            state = self.state()
        self.journal.validate(state, self.spec.spec_hash, len(matrix))
        plans = []
        for index, scenario in enumerate(matrix):
            if index in state.completed:
                status = DONE
            elif index in state.quarantined:
                status = QUARANTINED
            else:
                status = PENDING
            plans.append(CellPlan(index=index, scenario=scenario, status=status))
        return plans

    # --- execution ----------------------------------------------------------
    def run(self, resume: bool = False, force: bool = False) -> CampaignReport:
        """Execute the campaign (or what remains of it).

        ``resume`` continues from the journal: completed cells are
        restored, quarantined failures re-queued, pending cells
        executed.  Without ``resume`` a journal with prior progress is
        an error — an overnight campaign must never be half-restarted
        by accident — unless ``force`` discards it.

        The checkpoint is the orchestrator's ``on_outcome`` callback.
        Its ``cell`` is the outcome's position in the submitted
        (pending-only) matrix, so the checkpoint journals
        ``pending[cell]`` exactly (a matrix repeats no scenario:
        ``Suite.expand`` rejects repeated axis entries).

        A :class:`KeyboardInterrupt` propagates to the caller *after*
        the backends cancel and the journal holds every completed cell;
        re-invoking with ``resume`` picks up where it stopped.
        """
        started = time.perf_counter()
        matrix = self.matrix()
        total = len(matrix)
        state = self.state()
        if state.entries and not resume:
            if not force:
                raise CampaignError(
                    f"campaign '{self.spec.name}' already has journalled "
                    f"progress ({len(state.completed)} of {total} cells done) "
                    f"in {self.journal.path}; 'campaign resume' continues it, "
                    "'campaign run --force' restarts from scratch"
                )
            self.journal.delete()
            state = JournalState()
        self.journal.validate(state, self.spec.spec_hash, total)
        self.journal.begin(self.spec.name, self.spec.spec_hash, total)

        pending = [i for i in range(total) if i not in state.completed]
        restored = total - len(pending)
        outcomes: dict[int, RunOutcome] = dict(state.completed)
        executed = 0

        if pending:
            def checkpoint(cell: int, outcome: RunOutcome) -> None:
                nonlocal executed
                index = pending[cell]
                self.journal.record(index, outcome)
                outcomes[index] = outcome
                executed += 1

            orchestrator = Orchestrator(
                on_outcome=checkpoint, **self.spec.orchestrator_kwargs()
            )
            orchestrator.run([matrix[i] for i in pending])

        ordered = ResultSet([outcomes[i] for i in sorted(outcomes)])
        succeeded = sum(1 for o in ordered if o.ok)
        report = CampaignReport(
            name=self.spec.name,
            total=total,
            succeeded=succeeded,
            quarantined=len(ordered) - succeeded,
            restored=restored,
            executed=executed,
            elapsed_s=time.perf_counter() - started,
            results=ordered,
        )
        report.results_path = self._publish(ordered)
        if self.spec.resultdb:
            self._record_resultdb(report)
        logger.info("%s", report.summary_line())
        return report

    # --- outputs ------------------------------------------------------------
    def _publish(self, results: ResultSet):
        """Atomically publish the final ResultSet JSON.

        Deterministic serialisation (sorted keys, fixed indent), so a
        resumed campaign's file is byte-identical to an uninterrupted
        run's — the property the kill-and-resume tests pin.
        """
        path = self.spec.results_path
        with atomic_write(path, "w") as handle:
            handle.write(json.dumps(results.to_dict(), indent=1, sort_keys=True))
        return path

    def _record_resultdb(self, report: CampaignReport) -> None:
        """Append the campaign summary to the result database.

        Best-effort by design: the campaign's results are already on
        disk, and a read-only or misconfigured database must not turn
        a finished overnight run into a failure.
        """
        try:
            from repro.resultdb import ResultDB

            ResultDB(self.spec.resultdb_dir).record(
                bench=f"campaign_{self.spec.name}",
                metrics={
                    "cells": report.total,
                    "succeeded": report.succeeded,
                    "quarantined": report.quarantined,
                    "elapsed_s": round(report.elapsed_s, 3),
                },
                backend=self.spec.backend,
                scale=self.spec.effective_scale,
                payload={"spec_hash": self.spec.spec_hash},
            )
        except Exception as exc:  # noqa: BLE001 - recording is best-effort
            logger.warning(
                "campaign %s: result-db record failed (%s)", self.spec.name, exc
            )
