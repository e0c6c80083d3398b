"""The off-line Dynamic profiler and schedule replay inside the native loop.

A stock :class:`~repro.control.offline.OfflineProfiler` runs inside the
C loop as a log of each interval's raw observables, which the fold
turns into the profile; a stock
:class:`~repro.control.offline.OfflineController` replays its
pre-quantised schedule there.  Neither makes a per-interval Python
call.  These differential tests run each on the reference interpreter
(generator trace) and on the native loop (compiled trace) and require
the same ``RunSummary``, every profile list, ``_position`` and the
regulators' statistics and settings, with no ``on_interval`` call on
the native path.  Anything the native loop must not take — a subclass,
an instance hook, a schedule whose steps list different domains or
list them in another order, interval recording — keeps the callback
and must still match.
"""

import dataclasses
import random

import pytest

from repro.config.mcd import CONTROLLED_DOMAINS, Domain, MCDConfig
from repro.config.processor import ProcessorConfig
from repro.control.offline import (
    OfflineController,
    OfflineProfiler,
    build_offline_schedule,
)
from repro.metrics.summary import summarize
from repro.sim.engine import SimulationSpec, run_spec, run_specs_batch, scaled_mcd_config
from repro.uarch import native
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import get_benchmark
from test_workload_algebra import _random_composition

pytestmark = pytest.mark.skipif(native.load_hotpath() is None, reason="no native loop")

SCALE = 0.05

#: Catalog benchmarks spanning int, fp, memory-bound and branchy runs.
CATALOG = ("adpcm", "epic", "gsm", "mcf", "swim", "health", "art", "gcc")


def _catalog(name):
    """A catalog benchmark at ``SCALE``: (trace builder, interval length)."""
    bench = get_benchmark(name)
    return (lambda: bench.build_trace(scale=SCALE)), bench.interval_instructions


def _composed(case):
    """Seeded composed workload ``case``, already small at scale 1.0."""
    spec = _random_composition(random.Random(9100 + case))
    return spec.build_trace, spec.interval_instructions


@pytest.fixture
def on_interval_calls(monkeypatch):
    """Counts ``on_interval`` calls of both stock off-line classes."""
    calls = {"n": 0}
    for cls in (OfflineProfiler, OfflineController):
        original = cls.on_interval

        def counting(self, snapshot, _original=original):
            calls["n"] += 1
            return _original(self, snapshot)

        monkeypatch.setattr(cls, "on_interval", counting)
    return calls


def _run(trace, interval, controller, mcd=True, seed=1, record=False):
    """Warm and run one core: its summary and the regulators' end state."""
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=controller,
        options=CoreOptions(
            mcd=mcd, seed=seed, interval_instructions=interval,
            record_interval_trace=record,
        ),
    )
    core.warm_up(trace, limit=trace.total_instructions)
    result = core.run()
    regulators = [
        (dataclasses.asdict(r.stats), r.current_mhz, r.target_mhz)
        for r in core.regulators
    ]
    return summarize(result), regulators


def _profile_state(profiler):
    """Every profile list, dict order included."""
    profile = profiler.profile
    return (
        [list(step.items()) for step in profile.busy_fraction],
        [list(step.items()) for step in profile.queue_utilization],
        list(profile.ipc),
    )


def _position(controller):
    return controller._position


def _both_paths(workload, make_controller, state, calls, **kwargs):
    """``[(outcome, state, on_interval calls)]``: reference, then native."""
    build, interval = workload
    outcomes = []
    for trace in (build(), compile_trace(build())):
        controller = make_controller()
        calls["n"] = 0
        outcome = _run(trace, interval, controller, **kwargs)
        outcomes.append((outcome, state(controller), calls["n"]))
    return outcomes


def _check_native(workload, make_controller, state, calls, **kwargs):
    """The native run matches the reference and never calls on_interval."""
    (reference, ref_state, ref_calls), (fast, fast_state, fast_calls) = _both_paths(
        workload, make_controller, state, calls, **kwargs
    )
    assert ref_calls > 0, "no control interval was exercised"
    assert fast_calls == 0, "the native run crossed into Python"
    assert fast == reference
    assert fast_state == ref_state
    return ref_state


def _check_callback(workload, make_controller, state, calls):
    """The native run keeps the callback and matches the reference."""
    (reference, ref_state, _), (fast, fast_state, fast_calls) = _both_paths(
        workload, make_controller, state, calls
    )
    assert fast_calls > 0, "the native run skipped the controller's hooks"
    assert (fast, fast_state) == (reference, ref_state)


def _schedule_for(workload, target_pct=5.0, aggressiveness=1.0, **kwargs):
    """The Dynamic schedule built from ``workload``'s reference profile."""
    build, interval = workload
    profiler = OfflineProfiler()
    _run(build(), interval, profiler, **kwargs)
    return build_offline_schedule(
        profiler.profile, MCDConfig(), target_pct, aggressiveness=aggressiveness
    )


# ------------------------------------------------------------ differential
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_profile_matches_reference(name, on_interval_calls):
    state = _check_native(_catalog(name), OfflineProfiler, _profile_state, on_interval_calls)
    assert len(state[2]) > 0


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_replay_matches_reference(name, on_interval_calls):
    workload = _catalog(name)
    schedule = _schedule_for(workload)
    position = _check_native(
        workload, lambda: OfflineController(schedule), _position, on_interval_calls
    )
    assert position == len(schedule)


@pytest.mark.parametrize("case", range(8))
def test_composed_profile_and_replay_match_reference(case, on_interval_calls):
    """Composed workloads, MCD and synchronous, several seeds and targets."""
    workload = _composed(case)
    kwargs = {"mcd": case % 4 != 3, "seed": 1 + case % 3}
    _check_native(workload, OfflineProfiler, _profile_state, on_interval_calls, **kwargs)
    schedule = _schedule_for(
        workload, target_pct=1.0 + case, aggressiveness=0.5 + case / 4, **kwargs
    )
    _check_native(
        workload, lambda: OfflineController(schedule), _position, on_interval_calls,
        **kwargs,
    )


def test_short_schedule_holds_its_last_row(on_interval_calls):
    schedule = [
        {Domain.FRONT_END: 900.0, Domain.INTEGER: 300.0, Domain.LOAD_STORE: 700.0},
        {Domain.FRONT_END: 1000.0, Domain.INTEGER: 612.3, Domain.LOAD_STORE: 250.0},
        {Domain.FRONT_END: 800.0, Domain.INTEGER: 999.9, Domain.LOAD_STORE: 431.0},
    ]
    position = _check_native(
        _catalog("gsm"), lambda: OfflineController(schedule), _position, on_interval_calls
    )
    assert position > len(schedule)


def test_long_schedule_stops_where_the_run_does(on_interval_calls):
    workload = _catalog("mcf")
    schedule = _schedule_for(workload)
    schedule += [{d: 250.0 + 7.0 * i for d in CONTROLLED_DOMAINS} for i in range(50)]
    position = _check_native(
        workload, lambda: OfflineController(schedule), _position, on_interval_calls
    )
    assert position < len(schedule)


def test_empty_step_schedule_changes_nothing(on_interval_calls):
    workload = _catalog("swim")
    _check_native(workload, lambda: OfflineController([{}]), _position, on_interval_calls)
    build, interval = workload
    trace = compile_trace(build())
    assert (
        _run(trace, interval, OfflineController([{}]))[0]
        == _run(trace, interval, None)[0]
    )


def test_batch_matches_per_run():
    schedule = _schedule_for(_catalog("epic"))

    def run(batch):
        profiler, replay = OfflineProfiler(), OfflineController(schedule)
        specs = [
            SimulationSpec(benchmark="epic", controller=profiler, scale=SCALE),
            SimulationSpec(benchmark="epic", controller=replay, scale=SCALE, seed=2),
            SimulationSpec(benchmark="gsm", scale=SCALE),
        ]
        results = run_specs_batch(specs) if batch else [run_spec(s) for s in specs]
        return [summarize(r) for r in results], _profile_state(profiler), replay._position

    batched = run(batch=True)
    assert batched == run(batch=False)
    assert batched[2] > 0


# --------------------------------------------------------- callback paths
def test_profiler_subclass_keeps_the_callback(on_interval_calls):
    class Custom(OfflineProfiler):
        pass

    assert Custom().native_spec() is None
    _check_callback(_catalog("gsm"), Custom, _profile_state, on_interval_calls)


def test_profiler_instance_hook_keeps_the_callback(on_interval_calls):
    def hooked():
        profiler = OfflineProfiler()
        profiler.on_interval = lambda snapshot: OfflineProfiler.on_interval(
            profiler, snapshot
        )
        assert profiler.native_spec() is None
        return profiler

    _check_callback(_catalog("gsm"), hooked, _profile_state, on_interval_calls)


def test_controller_subclass_keeps_the_callback(on_interval_calls):
    class Custom(OfflineController):
        pass

    workload = _catalog("gsm")
    schedule = _schedule_for(workload)
    assert Custom(schedule).native_spec() is None
    _check_callback(workload, lambda: Custom(schedule), _position, on_interval_calls)


def test_controller_instance_hook_keeps_the_callback(on_interval_calls):
    workload = _catalog("gsm")
    schedule = _schedule_for(workload)

    def hooked():
        controller = OfflineController(schedule)
        controller.begin = lambda config, initial: OfflineController.begin(
            controller, config, initial
        )
        assert controller.native_spec() is None
        return controller

    _check_callback(workload, hooked, _position, on_interval_calls)


@pytest.mark.parametrize(
    "schedule",
    [
        [
            {Domain.INTEGER: 400.0},
            {Domain.INTEGER: 600.0, Domain.FLOATING_POINT: 300.0},
            {},
        ],
        [
            {Domain.INTEGER: 400.0, Domain.LOAD_STORE: 900.0},
            {Domain.LOAD_STORE: 300.0, Domain.INTEGER: 700.0},
        ],
    ],
    ids=["different_domains", "different_order"],
)
def test_mixed_domain_lists_keep_the_callback(schedule, on_interval_calls):
    assert OfflineController(schedule).native_spec() is None
    _check_callback(
        _catalog("gsm"), lambda: OfflineController(schedule), _position, on_interval_calls
    )


def test_interval_recording_keeps_the_callback(on_interval_calls):
    build, interval = _catalog("adpcm")
    profilers = [OfflineProfiler(), OfflineProfiler()]
    outcomes = [
        _run(trace, interval, profiler, record=True)
        for trace, profiler in zip((build(), compile_trace(build())), profilers)
    ]
    assert outcomes[0] == outcomes[1]
    assert _profile_state(profilers[0]) == _profile_state(profilers[1])
    assert on_interval_calls["n"] == 2 * len(profilers[1].profile) > 0


# --------------------------------------------------------------- the spec
def test_stock_native_specs():
    assert OfflineProfiler().native_spec() == {"mode": "profile"}
    schedule = [
        {Domain.LOAD_STORE: 500.0, Domain.INTEGER: 400.0},
        {Domain.LOAD_STORE: 550.0, Domain.INTEGER: 450.0},
    ]
    assert OfflineController(schedule).native_spec() == {
        "mode": "replay",
        "domains": [3, 1],
        "rows": [[500.0, 400.0], [550.0, 450.0]],
    }


def test_unrewound_controller_has_no_native_spec():
    controller = OfflineController([{Domain.INTEGER: 400.0}])
    controller._position = 2
    assert controller.native_spec() is None


def test_mode_constants_match_the_extension():
    hotpath = native.load_hotpath()
    assert (
        hotpath.CTRL_ATTACK_DECAY,
        hotpath.CTRL_PROFILE,
        hotpath.CTRL_REPLAY,
        hotpath.LOG_FIELDS,
    ) == (
        native.CTRL_ATTACK_DECAY,
        native.CTRL_PROFILE,
        native.CTRL_REPLAY,
        native.LOG_FIELDS,
    )
