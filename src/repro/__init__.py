"""repro — a reproduction of Semeraro et al., MICRO 2002.

*Dynamic Frequency and Voltage Control for a Multiple Clock Domain
Microarchitecture*: a four-domain GALS out-of-order processor whose
per-domain frequencies/voltages are steered on-line by the Attack/Decay
controller using issue-queue utilization.

Quick start — declare a scenario matrix and orchestrate it::

    from repro import Orchestrator, Suite

    suite = Suite(
        benchmarks=["adpcm", "gsm", "epic"],
        configurations=["sync", "mcd_base", "attack_decay", "dynamic_5"],
    )
    results = Orchestrator(workers=4).run(suite)

    record = results.get("gsm", "attack_decay")
    print(record.summary.cpi, record.summary.epi)
    print(results.aggregate("attack_decay", reference="mcd_base"))

Configurations are named registry entries (``repro.CONFIGURATIONS``;
``python -m repro list-configurations`` lists them) and new ones are one
decorator away::

    from repro import SimulationSpec, register_configuration

    @register_configuration("my_config")
    def my_config(ctx, benchmark, scale, seed):
        "MCD processor with a custom twist."
        return SimulationSpec(benchmark=benchmark, scale=scale, seed=seed)

Single runs stay one call: build a
:class:`~repro.sim.engine.SimulationSpec` and :func:`run_spec` it.  See
``docs/experiments.md`` for the full scenario API, ``examples/`` for
complete scenarios and ``benchmarks/`` for the harness regenerating
every table and figure of the paper.
"""

from repro.campaigns import CampaignJournal, CampaignRunner, CampaignSpec
from repro.config import (
    AttackDecayParams,
    Domain,
    MCDConfig,
    PAPER_OPERATING_POINT,
    ProcessorConfig,
)
from repro.control import (
    AttackDecayController,
    FixedFrequencyController,
    GlobalDVFSController,
    OfflineController,
    OfflineProfiler,
    build_offline_schedule,
    estimate_attack_decay_hardware,
)
from repro.experiments import (
    CONFIGURATIONS,
    ExecutionContext,
    Orchestrator,
    ResultSet,
    RunOutcome,
    Scenario,
    Suite,
    configuration_names,
    register_configuration,
    run_suite,
)
from repro.metrics import Comparison, RunSummary, aggregate, compare, summarize
from repro.sim import SimulationSpec, run_spec
from repro.uarch import CoreOptions, CoreResult, MCDCore
from repro.workloads import BENCHMARKS, Phase, SyntheticTrace, get_benchmark

from repro.version import __version__

__all__ = [
    "AttackDecayController",
    "AttackDecayParams",
    "BENCHMARKS",
    "CONFIGURATIONS",
    "CampaignJournal",
    "CampaignRunner",
    "CampaignSpec",
    "Comparison",
    "CoreOptions",
    "CoreResult",
    "Domain",
    "ExecutionContext",
    "FixedFrequencyController",
    "GlobalDVFSController",
    "MCDConfig",
    "MCDCore",
    "OfflineController",
    "OfflineProfiler",
    "Orchestrator",
    "PAPER_OPERATING_POINT",
    "Phase",
    "ProcessorConfig",
    "ResultSet",
    "RunOutcome",
    "RunSummary",
    "Scenario",
    "SimulationSpec",
    "Suite",
    "SyntheticTrace",
    "aggregate",
    "build_offline_schedule",
    "compare",
    "configuration_names",
    "estimate_attack_decay_hardware",
    "get_benchmark",
    "register_configuration",
    "run_spec",
    "run_suite",
    "summarize",
    "__version__",
]
