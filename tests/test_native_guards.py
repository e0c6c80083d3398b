"""Malformed input must raise, never crash or hang.

Each case runs in a child process: a regression that corrupts memory
or never returns then fails one test (non-zero exit, or the timeout)
instead of taking pytest down with it.  The children are forked from
this process, which has already imported the simulator and loaded the
extension, so a case costs a fork rather than an interpreter start.
The marshal cases need the native loop and skip without it.
"""

import faulthandler
import os
import signal
import subprocess
import sys
import tempfile
import time
import traceback

import pytest

from repro.uarch import native

needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)

#: Seconds a child may run before it is killed and its case fails.
CHILD_TIMEOUT_S = 120


def _exec_as_main(code: str) -> int:
    """Run ``code`` as ``python -c`` would; its exit status."""
    try:
        exec(compile(code, "<string>", "exec"), {"__name__": "__main__"})
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    except BaseException:  # noqa: BLE001 - reported like an uncaught error
        traceback.print_exc()
        return 1
    return 0


def _run_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c code *argv`` in a forked child, output captured."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                sys.stdout = open(1, "w", closefd=False)
                sys.stderr = open(2, "w", closefd=False)
                faulthandler.enable(sys.stderr)
                sys.argv = ["-c", *argv]
                status = _exec_as_main(code)
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            done, wait_status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail(f"the child did not finish in {CHILD_TIMEOUT_S} s")
            time.sleep(0.002)
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(
            ["-c", *argv],
            os.waitstatus_to_exitcode(wait_status),
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


# A closed-loop core over a short compiled trace; argv[1] names the
# _hotpath entry point, argv[2] is a statement that damages ``args`` and
# argv[3] names the controller the C loop runs: Attack/Decay, the
# off-line profiler or the off-line schedule replay.
MARSHAL_CHILD = """
import sys
from array import array

import numpy as np

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.mcd import Domain
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.control.offline import OfflineController, OfflineProfiler
from repro.sim.engine import scaled_mcd_config
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import CoreOptions, MCDCore
from repro.uarch.isa import InstructionClass as K
from repro.uarch.native import load_hotpath
from repro.uarch.trace import MAX_DEP_DISTANCE, InstructionBlock, ListTrace

block = InstructionBlock()
for i in range(64):
    kind = (K.INT_ALU, K.LOAD, K.FP_ALU, K.BRANCH)[i % 4]
    block.append(kind, src1=1 if i else 0, pc=4 * i, addr=64 * i, taken=i % 8 == 3, target=8)
processor = ProcessorConfig()
trace = compile_trace(ListTrace([block]))
controllers = {
    "attack_decay": lambda: AttackDecayController(SCALED_OPERATING_POINT),
    "profile": OfflineProfiler,
    "replay": lambda: OfflineController(
        [{Domain.INTEGER: 500.0, Domain.LOAD_STORE: 750.0}] * 3
    ),
}
core = MCDCore(
    processor,
    scaled_mcd_config(),
    trace,
    controller=controllers[sys.argv[3]](),
    options=CoreOptions(interval_instructions=8),
)
args, _ = core.native_marshal()
args["limit"] = trace.n
exec(sys.argv[2])
entry = getattr(load_hotpath(), sys.argv[1])
try:
    entry([args] if sys.argv[1] == "run_batch" else args)
except (TypeError, ValueError) as exc:
    print(type(exc).__name__, exc)
    sys.exit(0)
sys.exit("the malformed argument was accepted")
"""

#: case id -> (entry point, statement damaging ``args``)
MARSHAL_CASES = {
    "jbufs_empty": ("run_compiled", "args['jbufs'] = []"),
    "jbufs_tuple": ("run_compiled", "args['jbufs'] = tuple(args['jbufs'])"),
    "jbufs_not_lists": ("run_compiled", "args['jbufs'] = [(), [], [], []]"),
    "jbufs_not_floats": ("run_compiled", "args['jbufs'] = [['x'], [], [], []]"),
    "idle_e_short": ("run_compiled", "args['idle_e'] = args['idle_e'][:1]"),
    "lat_cycles_short": ("run_compiled", "args['lat_cycles'] = args['lat_cycles'][:1]"),
    "cache_stats_short": ("run_compiled", "args['cache_stats'] = np.zeros(2, np.int64)"),
    "ad_freq_short": ("run_compiled", "args['ad_freq'] = args['ad_freq'][:2]"),
    "rob_cap_zero": ("run_compiled", "args['rob_cap'] = 0"),
    "batch_jbufs_empty": ("run_batch", "args['jbufs'] = []"),
    "l2_tags_short": ("run_compiled", "args['l2_tags'] = array('q', [0])"),
    "btb_targets_short": ("run_compiled", "args['btb_targets'] = array('q', [0])"),
    "state_itemsize": ("run_compiled", "args['l1i_tags'] = array('i', args['l1i_tags'])"),
    "count_above_ways": ("run_compiled", "args['l1d_counts'][5] = args['l1d_ways'] + 1"),
    "negative_count": ("warm_up", "args['btb_counts'][0] = -1"),
    "history_out_of_range": ("warm_up", "args['hist'][3] = -1"),
    "empty_table": ("warm_up", "args['meta'] = array('q')"),
    "bad_geometry": ("warm_up", "args['l1i_ways'] = 0"),
    "negative_address": ("run_compiled", "args['addrs'] = -args['addrs'] - 1"),
    "domain_table_entry": ("run_compiled", "args['domain_table'] = array('q', [4] * 7)"),
    "dest_table_short": ("run_batch", "args['dest_table'] = array('q', [0])"),
}

#: Column damage every entry point must reject; each runs on all three.
COLUMN_DAMAGE = {
    "kinds_200": "args['kinds'] = np.full(trace.n, 200, np.uint8)",
    "src1_above_max_dep": "args['src1'] = np.full(trace.n, MAX_DEP_DISTANCE + 1, np.uint16)",
    "kinds_int64": "args['kinds'] = args['kinds'].astype(np.int64)",
    "src2_short": "args['src2'] = args['src2'][:-1]",
}
for _case, _damage in COLUMN_DAMAGE.items():
    for _entry in ("run_compiled", "run_batch", "warm_up"):
        MARSHAL_CASES[f"{_case}-{_entry}"] = (_entry, _damage)

#: Damage to the MCD jitter streams, one (capsule, sigma, clip, block)
#: tuple per domain; both run entry points must reject each.  _STREAM
#: replaces field {i} of domain 1's tuple with {value}.
_STREAM = "args['jitter'][1] = (*args['jitter'][1][:{i}], {value}, *args['jitter'][1][{i} + 1:])"
JITTER_DAMAGE = {
    "jitter_not_a_capsule": _STREAM.format(i=0, value="object()"),
    "jitter_capsule_of_another_name": "import datetime; "
    + _STREAM.format(i=0, value="datetime.datetime_CAPI"),
    "jitter_block_zero": _STREAM.format(i=3, value=0),
    "jitter_sigma_negative": _STREAM.format(i=1, value=-0.1),
    "jitter_sigma_nan": _STREAM.format(i=1, value="float('nan')"),
    "jitter_clip_negative": _STREAM.format(i=2, value=-0.3),
    "jitter_clip_inf": _STREAM.format(i=2, value="float('inf')"),
    "jitter_entry_missing": "args['jitter'] = args['jitter'][:3]",
    "jitter_none_in_mcd_mode": "args['jitter'] = None",
    "jitter_entry_not_a_tuple": "args['jitter'][2] = list(args['jitter'][2])",
}
for _case, _damage in JITTER_DAMAGE.items():
    for _entry in ("run_compiled", "run_batch"):
        MARSHAL_CASES[f"{_case}-{_entry}"] = (_entry, _damage)


#: Damage to the off-line controllers' buffers, (controller, statement):
#: the profiler's log (float64, one row of LOG_FIELDS per interval a run
#: can have) and the replay's schedule (float64 rows of four MHz, finite
#: and positive where the 0/1 mask sets a domain).  Both run entry
#: points must reject each before compute starts.
OFFLINE_DAMAGE = {
    "off_log_one_short": ("profile", "args['off_log'] = args['off_log'][:-1]"),
    "off_log_one_row": ("profile", "args['off_log'] = args['off_log'][:12]"),
    "off_log_float32": ("profile", "args['off_log'] = args['off_log'].astype(np.float32)"),
    "off_log_int64": ("profile", "args['off_log'] = args['off_log'].astype(np.int64)"),
    "off_sched_int64": ("replay", "args['off_sched'] = args['off_sched'].astype(np.int64)"),
    "off_sched_ragged": ("replay", "args['off_sched'] = args['off_sched'][:-1]"),
    "off_sched_empty": ("replay", "args['off_sched'] = args['off_sched'][:0]"),
    "off_sched_nan": ("replay", "args['off_sched'][5] = float('nan')"),
    "off_sched_zero": ("replay", "args['off_sched'][7] = 0.0"),
    "off_mask_two": ("replay", "args['off_mask'][0] = 2"),
    "off_mask_short": ("replay", "args['off_mask'] = args['off_mask'][:3]"),
    "interval_len_zero": ("profile", "args['interval_len'] = 0"),
    "native_ctrl_unknown": ("replay", "args['native_ctrl'] = 4"),
}


@needs_native
@pytest.mark.parametrize(
    "entry, damage", MARSHAL_CASES.values(), ids=list(MARSHAL_CASES)
)
def test_malformed_argument_dict_raises(entry, damage):
    proc = _run_child(MARSHAL_CHILD, entry, damage, "attack_decay")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(("TypeError", "ValueError")), proc.stdout


@needs_native
@pytest.mark.parametrize("entry", ["run_compiled", "run_batch"])
@pytest.mark.parametrize(
    "controller, damage", OFFLINE_DAMAGE.values(), ids=list(OFFLINE_DAMAGE)
)
def test_malformed_offline_buffer_raises(entry, controller, damage):
    proc = _run_child(MARSHAL_CHILD, entry, damage, controller)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(("TypeError", "ValueError")), proc.stdout


@needs_native
@pytest.mark.parametrize("controller", ["profile", "replay"])
def test_offline_buffers_as_marshalled_run(controller):
    """The undamaged dict runs, every interval inside the log."""
    code = MARSHAL_CHILD.replace(
        "exec(sys.argv[2])",
        "assert args['native_ctrl'] and not args['call_rollover']\n"
        "res = load_hotpath().run_compiled(args)\n"
        "assert res['intervals'] == trace.n // 8 and not res['error'], res\n"
        "sys.exit(0)",
    )
    proc = _run_child(code, "run_compiled", "", controller)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# A gsm run on a processor without integer multiply units; argv[1]
# picks the trace form (and so the interpreter).
NO_UNIT_CHILD = """
import sys

from repro.config.processor import ProcessorConfig
from repro.errors import SimulationError
from repro.sim.engine import scaled_mcd_config
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import MCDCore
from repro.workloads.catalog import get_benchmark

processor = ProcessorConfig(int_mult_div=0)
trace = get_benchmark("gsm").build_trace(scale=0.02)
if sys.argv[1] == "native":
    trace = compile_trace(trace)
core = MCDCore(processor, scaled_mcd_config(), trace)
try:
    core.run()
except SimulationError as exc:
    print(exc)
    sys.exit(0)
sys.exit("the run finished")
"""


@pytest.mark.parametrize(
    "path",
    ["python", pytest.param("native", marks=needs_native)],
)
def test_no_unit_for_an_instruction_class_raises(path):
    """ProcessorConfig(int_mult_div=0) is valid, but an INT_MULT can never issue."""
    proc = _run_child(NO_UNIT_CHILD, path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "INT_MULT" in proc.stdout and "integer" in proc.stdout
