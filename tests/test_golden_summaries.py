"""Golden-value regression pins: exact RunSummary numbers.

Six representative catalog benchmarks (one per behavioural family:
DSP, the Figure 2/3 case study, bimodal compile, pointer-chase,
streaming FP, dependency-bound sort) x both clocking modes, pinned to
the *exact* floats the simulator produced when these goldens were
recorded.  A second table pins closed-loop Attack/Decay runs — three
benchmarks x both ``literal_listing`` variants at a second seed — on
the configuration where the native loop runs the controller inside C,
locking the Listing-1 migration to exact numbers.  A third table pins
the off-line Dynamic-1 % and Dynamic-5 % configurations end to end.
Any change to the generator, the trace compiler, either core
interpreter, the energy accounting or a controller that moves a result
— even in the last ulp — fails here, turning silent drift into an
explicit decision: either fix the regression or re-record the goldens
in the same commit that justifies the change.

The simulator is deterministic by contract (seeded numpy PCG64 streams,
FP contraction disabled in the native build, accumulation order pinned
across paths), so exact equality is the right assertion, not an
approximation.
"""

from __future__ import annotations

import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.control.attack_decay import AttackDecayController
from repro.experiments import ExecutionContext, Scenario
from repro.metrics.summary import RunSummary, summarize
from repro.sim.engine import SimulationSpec, run_spec

SCALE = 0.05
SEED = 1

#: (benchmark, clocking mode) -> the exact recorded summary.
#: "sync" is the fully synchronous baseline (no controller); "mcd" is
#: the MCD processor under the Attack/Decay controller at the scaled
#: operating point - the repository's two headline configurations.
GOLDEN: dict[tuple[str, str], RunSummary] = {
    ("adpcm", "sync"): RunSummary(
        instructions=4000,
        wall_time_ns=1469.0,
        energy=2545.4847999999965,
        cpi=0.36725,
        epi=0.6363711999999991,
        power=1.7328010891763082,
        edp=3739317.171199995,
    ),
    ("adpcm", "mcd"): RunSummary(
        instructions=4000,
        wall_time_ns=1490.851950289555,
        energy=2555.0464999796204,
        cpi=0.37271298757238874,
        epi=0.6387616249949051,
        power=1.7138163849759707,
        edp=3809196.0575751183,
    ),
    ("epic", "sync"): RunSummary(
        instructions=8000,
        wall_time_ns=3917.0,
        energy=5718.837199999925,
        cpi=0.489625,
        epi=0.7148546499999907,
        power=1.4600043911156306,
        edp=22400685.312399708,
    ),
    ("epic", "mcd"): RunSummary(
        instructions=8000,
        wall_time_ns=4060.743447584904,
        energy=5636.979272007078,
        cpi=0.507592930948113,
        epi=0.7046224090008848,
        power=1.3881643459548345,
        edp=22890326.642974664,
    ),
    ("gcc", "sync"): RunSummary(
        instructions=6000,
        wall_time_ns=5839.0,
        energy=5752.144499999954,
        cpi=0.9731666666666666,
        epi=0.9586907499999924,
        power=0.9851249357766662,
        edp=33586771.73549973,
    ),
    ("gcc", "mcd"): RunSummary(
        instructions=6000,
        wall_time_ns=5888.587358034442,
        energy=5734.274321866538,
        cpi=0.9814312263390738,
        epi=0.9557123869777564,
        power=0.9737945577121552,
        edp=33766775.279244825,
    ),
    ("mcf", "sync"): RunSummary(
        instructions=5000,
        wall_time_ns=12976.0,
        energy=8123.17029999974,
        cpi=2.5952,
        epi=1.624634059999948,
        power=0.6260149737977605,
        edp=105406257.81279662,
    ),
    ("mcf", "mcd"): RunSummary(
        instructions=5000,
        wall_time_ns=13074.839507126399,
        energy=8138.7221242587875,
        cpi=2.61496790142528,
        epi=1.6277444248517574,
        power=0.6224720479224853,
        edp=106412485.56778248,
    ),
    ("swim", "sync"): RunSummary(
        instructions=5000,
        wall_time_ns=1861.0,
        energy=3493.5838999999833,
        cpi=0.3722,
        epi=0.6987167799999967,
        power=1.8772616335303511,
        edp=6501559.637899969,
    ),
    ("swim", "mcd"): RunSummary(
        instructions=5000,
        wall_time_ns=1864.1585680017442,
        energy=3480.0124896143734,
        cpi=0.37283171360034884,
        epi=0.6960024979228747,
        power=1.8668006838842677,
        edp=6487295.099267716,
    ),
    ("bisort", "sync"): RunSummary(
        instructions=4000,
        wall_time_ns=8549.0,
        energy=5979.902500000007,
        cpi=2.13725,
        epi=1.494975625000002,
        power=0.6994856123523228,
        edp=51122186.47250006,
    ),
    ("bisort", "mcd"): RunSummary(
        instructions=4000,
        wall_time_ns=8682.422218325304,
        energy=5930.038178302735,
        cpi=2.170605554581326,
        epi=1.4825095445756837,
        power=0.6829935275189303,
        edp=51487095.23481298,
    ),
}


#: (benchmark, literal_listing) -> exact closed-loop summary at seed 3.
#: These pin the Attack/Decay *controller itself* — both Listing-1
#: comparison variants — on runs where the native loop executes the
#: controller inside C (no interval recording), so the C migration of
#: Listing 1 is locked to exact numbers on every path.
GOLDEN_CLOSED_LOOP: dict[tuple[str, bool], RunSummary] = {
    ("adpcm", False): RunSummary(
        instructions=4000,
        wall_time_ns=1486.6324725636607,
        energy=2552.213521429926,
        cpi=0.3716581181409152,
        epi=0.6380533803574815,
        power=1.7167750392460466,
        edp=3794203.4978737785,
    ),
    ("adpcm", True): RunSummary(
        instructions=4000,
        wall_time_ns=1495.5363192937343,
        energy=2538.154496597878,
        cpi=0.3738840798234336,
        epi=0.6345386241494695,
        power=1.6971533648855275,
        edp=3795902.2336408314,
    ),
    ("gcc", False): RunSummary(
        instructions=6000,
        wall_time_ns=5889.401105321532,
        energy=5739.104586297339,
        cpi=0.981566850886922,
        epi=0.9565174310495564,
        power=0.9744801693183389,
        edp=33799888.89409542,
    ),
    ("gcc", True): RunSummary(
        instructions=6000,
        wall_time_ns=5946.26078267097,
        energy=5648.861780599396,
        cpi=0.991043463778495,
        epi=0.9414769634332327,
        power=0.9499855433622629,
        edp=33589605.2727071,
    ),
    ("mcf", False): RunSummary(
        instructions=5000,
        wall_time_ns=13039.466305094486,
        energy=8176.527145992073,
        cpi=2.607893261018897,
        epi=1.6353054291984146,
        power=0.6270599543477884,
        edp=106617550.21285401,
    ),
    ("mcf", True): RunSummary(
        instructions=5000,
        wall_time_ns=13184.422166955512,
        energy=7967.202232644357,
        cpi=2.6368844333911023,
        epi=1.5934404465288714,
        power=0.6042890717359446,
        edp=105042957.7246937,
    ),
}


#: (benchmark, configuration) -> exact off-line Dynamic summary at seed 1.
#: These pin the whole off-line path: the profiling run, the schedule
#: built from its profile, the measured-degradation search against the
#: ``mcd_base`` baseline, and the schedule replay.
GOLDEN_DYNAMIC: dict[tuple[str, str], RunSummary] = {
    ("gsm", "dynamic_1"): RunSummary(
        instructions=5000,
        wall_time_ns=1647.216391096073,
        energy=3080.2205897060535,
        cpi=0.3294432782192146,
        epi=0.6160441179412107,
        power=1.8699550383034047,
        edp=5073789.843555423,
    ),
    ("gsm", "dynamic_5"): RunSummary(
        instructions=5000,
        wall_time_ns=1739.002577283293,
        energy=2763.0149547489737,
        cpi=0.3478005154566586,
        epi=0.5526029909497947,
        power=1.5888504081836468,
        edp=4804890.127380746,
    ),
    ("mcf", "dynamic_1"): RunSummary(
        instructions=5000,
        wall_time_ns=13045.503390371463,
        energy=7253.389498861643,
        cpi=2.6091006780742925,
        epi=1.4506778997723286,
        power=0.5560068693259607,
        edp=94624117.29908434,
    ),
    ("mcf", "dynamic_5"): RunSummary(
        instructions=5000,
        wall_time_ns=13510.632184928021,
        energy=6647.541511672699,
        cpi=2.7021264369856044,
        epi=1.3295083023345398,
        power=0.49202298017471446,
        edp=89812488.29825024,
    ),
    ("swim", "dynamic_1"): RunSummary(
        instructions=5000,
        wall_time_ns=1870.2480564862758,
        energy=3429.082112989995,
        cpi=0.37404961129725517,
        epi=0.685816422597999,
        power=1.8334905367753063,
        edp=6413234.15735139,
    ),
    ("swim", "dynamic_5"): RunSummary(
        instructions=5000,
        wall_time_ns=1936.196355755422,
        energy=3172.9038113559386,
        cpi=0.3872392711510844,
        epi=0.6345807622711878,
        power=1.6387303911219302,
        edp=6143364.796709857,
    ),
}


def _spec(benchmark: str, mode: str) -> SimulationSpec:
    return SimulationSpec(
        benchmark=benchmark,
        mcd=(mode == "mcd"),
        controller=(
            AttackDecayController(SCALED_OPERATING_POINT) if mode == "mcd" else None
        ),
        scale=SCALE,
        seed=SEED,
    )


@pytest.mark.parametrize("bench_name,mode", sorted(GOLDEN))
def test_summary_matches_golden(bench_name: str, mode: str):
    actual = summarize(run_spec(_spec(bench_name, mode)))
    expected = GOLDEN[(bench_name, mode)]
    assert actual == expected, (
        f"{bench_name}/{mode} drifted:\n  expected {expected}\n  actual   {actual}\n"
        "If this change is intentional, re-record the goldens "
        "(see this file's docstring) in the same commit."
    )


def _closed_loop_spec(benchmark: str, literal: bool) -> SimulationSpec:
    return SimulationSpec(
        benchmark=benchmark,
        mcd=True,
        controller=AttackDecayController(
            SCALED_OPERATING_POINT, literal_listing=literal
        ),
        scale=SCALE,
        seed=3,
    )


@pytest.mark.parametrize("bench_name,literal", sorted(GOLDEN_CLOSED_LOOP))
def test_closed_loop_summary_matches_golden(bench_name: str, literal: bool):
    actual = summarize(run_spec(_closed_loop_spec(bench_name, literal)))
    expected = GOLDEN_CLOSED_LOOP[(bench_name, literal)]
    assert actual == expected, (
        f"{bench_name}/literal_listing={literal} drifted:\n"
        f"  expected {expected}\n  actual   {actual}\n"
        "If this change is intentional, re-record the goldens "
        "(see this file's docstring) in the same commit."
    )


def test_closed_loop_goldens_cover_both_listing_variants():
    benchmarks = {b for b, _ in GOLDEN_CLOSED_LOOP}
    assert len(benchmarks) >= 3
    for benchmark in benchmarks:
        assert (benchmark, False) in GOLDEN_CLOSED_LOOP
        assert (benchmark, True) in GOLDEN_CLOSED_LOOP


def test_closed_loop_goldens_hold_on_python_path_spotcheck():
    """The closed-loop pins hold with the controller back in Python."""
    for benchmark, literal in (("adpcm", True), ("mcf", False)):
        spec = _closed_loop_spec(benchmark, literal)
        spec.path = "python"
        assert summarize(run_spec(spec)) == GOLDEN_CLOSED_LOOP[(benchmark, literal)]


def test_goldens_cover_both_modes_evenly():
    benchmarks = {b for b, _ in GOLDEN}
    assert len(benchmarks) == 6
    for benchmark in benchmarks:
        assert (benchmark, "sync") in GOLDEN
        assert (benchmark, "mcd") in GOLDEN


def test_generator_path_matches_goldens_spotcheck():
    """The pinned numbers hold on the reference interpreter too."""
    for benchmark, mode in (("adpcm", "mcd"), ("epic", "sync")):
        spec = _spec(benchmark, mode)
        spec.path = "python"
        assert summarize(run_spec(spec)) == GOLDEN[(benchmark, mode)]


@pytest.mark.parametrize("bench_name,configuration", sorted(GOLDEN_DYNAMIC))
def test_dynamic_summary_matches_golden(bench_name: str, configuration: str):
    ctx = ExecutionContext(scale=SCALE, seed=SEED, use_cache=False)
    actual = ctx.run(Scenario(bench_name, configuration)).summary
    expected = GOLDEN_DYNAMIC[(bench_name, configuration)]
    assert actual == expected, (
        f"{bench_name}/{configuration} drifted:\n"
        f"  expected {expected}\n  actual   {actual}\n"
        "If this change is intentional, re-record the goldens "
        "(see this file's docstring) in the same commit."
    )
