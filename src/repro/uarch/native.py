"""Build/load glue for the native hot-path extension.

The core loop exists twice: the pure-Python reference interpreter
over a generator trace, and its C translation in ``_hotpath.c`` over a
compiled trace.  This module owns the second: it compiles the C source
into a shared object on first use (plain ``cc -O2 -fPIC -shared``, no
build system, no new dependencies) and loads it as a CPython extension
module.  The C loop draws clock jitter with numpy's own normal
sampler, so the build compiles against numpy's headers and links
``numpy/random/lib/libnpyrandom.a``, numpy's documented C API for its
distributions.

Floating-point identity is part of the contract, so the build disables
FP contraction (``-ffp-contract=off``): a fused multiply-add rounds
once where CPython rounds twice, and the equivalence property tests
would catch the drift.

The artifact stamp covers everything the ``.so`` is built from: the C
source, the interpreter ABI, the resolved compiler (path plus
``--version`` output), the full compile command, numpy's version and
the SHA-1 of the numpy library it embeds, so switching ``CC``, editing
a flag, or upgrading the toolchain or numpy rebuilds instead of
silently reusing a stale ``.so``.

Loading is thread-safe: the first caller (from any thread — the
orchestrator's thread backend probes this module concurrently)
compiles and loads under a lock, everyone else reuses the cached
module object.  The extension itself releases the GIL for its compute
stage, so concurrent runs over it genuinely overlap.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_NATIVE=0`` simply mean :func:`load_hotpath` returns ``None``
and the engine runs the reference interpreter instead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shutil
import subprocess
import sysconfig
import threading
from pathlib import Path

from repro.control.base import interval_observables

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).resolve().parent / "_hotpath.c"
_BUILD_DIR = Path(__file__).resolve().parents[3] / "build" / "hotpath"

_cached: object | None = None
_attempted = False
_load_lock = threading.Lock()


def native_enabled() -> bool:
    """Whether the native path may be used (``REPRO_NATIVE`` != 0)."""
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def _resolve_compiler() -> str | None:
    """The C compiler to build with (``CC``, else cc/gcc/clang), or None."""
    return (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )


def _compiler_identity(compiler: str) -> bytes:
    """Codegen identity of ``compiler``: resolved path + ``--version``.

    ``cc`` is usually a symlink and ``CC`` an arbitrary name, so the
    resolved path alone is not enough — a toolchain upgrade keeps the
    path but changes codegen.  The ``--version`` banner captures that;
    if the compiler cannot report one, the path still distinguishes
    different toolchains.
    """
    resolved = shutil.which(compiler) or compiler
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        banner = proc.stdout + proc.stderr
    except (OSError, subprocess.TimeoutExpired):
        banner = ""
    return f"{resolved}\n{banner}".encode()


#: Memoised :func:`compiler_info` result — probing the compiler runs a
#: subprocess, and provenance stamping may happen once per recorded run.
_compiler_info_cache: dict | None = None
_compiler_info_probed = False


def compiler_info() -> dict | None:
    """The resolved compiler identity, for provenance records.

    The same ingredients :func:`_build_stamp` folds into the native
    artifact hash — the resolved compiler path and the first line of
    its ``--version`` banner — exposed as a plain dict so result
    records (:mod:`repro.resultdb.provenance`) can stamp runs without
    re-deriving them.  Returns ``None`` when no C compiler is found;
    the probe is memoised for the life of the process.
    """
    global _compiler_info_cache, _compiler_info_probed
    if _compiler_info_probed:
        return _compiler_info_cache
    compiler = _resolve_compiler()
    if compiler is not None:
        identity = _compiler_identity(compiler).decode(errors="replace")
        resolved, _, banner = identity.partition("\n")
        banner_lines = [line for line in banner.splitlines() if line.strip()]
        _compiler_info_cache = {
            "path": resolved,
            "banner": banner_lines[0].strip() if banner_lines else "",
        }
    _compiler_info_probed = True
    return _compiler_info_cache


#: Code generation flags of every build.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _npyrandom_library() -> Path:
    """numpy's static distributions library, which the extension embeds."""
    import numpy as np

    return Path(np.__file__).resolve().parent / "random" / "lib" / "libnpyrandom.a"


def _compile_command(compiler: str, output: str) -> list[str]:
    """The command that builds ``_hotpath.c`` into ``output``."""
    import numpy as np

    return [
        compiler,
        *_FLAGS,
        f"-I{sysconfig.get_paths()['include']}",
        f"-I{np.get_include()}",
        str(_SOURCE),
        "-o",
        output,
        str(_npyrandom_library()),
        "-lm",
    ]


def _build_stamp(compiler: str) -> str:
    """Content hash naming the built artifact.

    Covers the C source, the interpreter ABI, the compiler identity,
    the full compile command, numpy's version and the SHA-1 of
    ``libnpyrandom.a``, so changing any of them builds (and loads) a
    fresh ``.so`` instead of reusing one built from something else.
    A numpy without the library fails here, and the loader falls back
    as it does for any failed build.
    """
    import numpy as np

    parts = (
        _SOURCE.read_bytes(),
        sysconfig.get_python_version().encode(),
        _compiler_identity(compiler),
        "\0".join(_compile_command(compiler, "<output>")).encode(),
        np.__version__.encode(),
        hashlib.sha1(_npyrandom_library().read_bytes()).hexdigest().encode(),
    )
    return hashlib.sha1(b"\n".join(parts)).hexdigest()[:16]


def _compile(so_path: Path, compiler: str) -> bool:
    """Compile ``_hotpath.c`` into ``so_path``; False when impossible."""
    so_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = so_path.with_suffix(f".{os.getpid()}.tmp.so")
    cmd = _compile_command(compiler, str(tmp))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        logger.warning("hotpath: compile failed to run (%s)", exc)
        return False
    if proc.returncode != 0:
        logger.warning(
            "hotpath: compile failed; using the reference interpreter\n%s",
            proc.stderr,
        )
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    os.replace(tmp, so_path)
    return True


#: ``native_ctrl`` modes of the C loop's interval rollover: nothing,
#: Attack/Decay (paper Listing 1), the off-line profiler's log, and the
#: off-line schedule replay.  ``_hotpath.c`` defines the same values.
CTRL_NONE, CTRL_ATTACK_DECAY, CTRL_PROFILE, CTRL_REPLAY = 0, 1, 2, 3

#: Doubles per interval in a profile log: the duration, the integer,
#: floating-point and load/store queue occupancies, then the busy
#: cycles and the frequency of each core domain in ``CORE_DOMAINS``
#: order.
LOG_FIELDS = 12


def native_controller_args(
    controller, mcd_config, frequency_scale, n: int, interval_len: int
) -> dict | None:
    """Marshal a stock controller for the C hot loop.

    Returns the argument-dict fragment ``run_compiled`` consumes to run
    the controller natively (zero per-interval Python crossings), or
    None when the controller must stay on the Python callback path
    (custom controller, no ``native_spec``, unsound state).  Three
    ``native_spec`` modes exist:

    * ``attack_decay`` — Listing 1 and the regulator's request
      quantisation run on flat registers;
    * ``profile`` — the C loop logs each interval's raw observables
      (:data:`LOG_FIELDS` doubles) into ``off_log``, sized for a run of
      ``n`` instructions;
    * ``replay`` — the schedule, pre-quantised with
      ``frequency_scale.quantize`` as ``snap_to`` would quantise it, is
      one row of four MHz per step (``off_sched``) plus the mask of the
      domains it sets (``off_mask``).

    The output buffers are folded back by :func:`fold_native_controller`.
    """
    spec_fn = getattr(controller, "native_spec", None)
    if spec_fn is None:
        return None
    spec = spec_fn()
    if spec is None:
        return None
    import numpy as np

    mode = spec["mode"]
    if mode == "profile":
        # A run rolls over at most n // interval_len times; the C loop
        # checks the log holds one row more.
        rows = n // interval_len + 1
        return {"native_ctrl": CTRL_PROFILE, "off_log": np.zeros(rows * LOG_FIELDS)}
    if mode == "replay":
        domains = spec["domains"]
        # A schedule repeats few distinct MHz: quantise each once.
        quantize = functools.cache(frequency_scale.quantize)
        sched = np.zeros((len(spec["rows"]), 4))
        sched[:, domains] = [[quantize(mhz) for mhz in row] for row in spec["rows"]]
        mask = np.zeros(4, dtype=np.int64)
        mask[domains] = 1
        return {
            "native_ctrl": CTRL_REPLAY,
            "off_sched": sched.reshape(-1),
            "off_mask": mask,
        }
    table = np.ascontiguousarray(frequency_scale.frequencies_mhz, dtype=np.float64)
    return {
        "native_ctrl": CTRL_ATTACK_DECAY,
        # Listing-1 operating point (fractions, not percent).
        "ad_dev": float(spec["deviation_threshold"]),
        "ad_reaction": float(spec["reaction_change"]),
        "ad_decay": float(spec["decay"]),
        "ad_perf_deg": float(spec["perf_deg_threshold"]),
        "ad_alpha": float(spec["smoothing_alpha"]),
        "ad_endstop": int(spec["endstop_intervals"]),
        "ad_literal": int(spec["literal_listing"]),
        # Controller registers (in/out).
        "ad_ctrl": np.array(spec["controlled"], dtype=np.int64),
        "ad_freq": np.array(spec["frequency_mhz"], dtype=np.float64),
        "ad_prev_util": np.zeros(4),
        "ad_upper": np.zeros(4, dtype=np.int64),
        "ad_lower": np.zeros(4, dtype=np.int64),
        "ad_attacks_up": np.zeros(4, dtype=np.int64),
        "ad_attacks_down": np.zeros(4, dtype=np.int64),
        "ad_decays": np.zeros(4, dtype=np.int64),
        "ad_holds": np.zeros(4, dtype=np.int64),
        "ad_ipc": np.array([spec["prev_ipc"], spec["smoothed_ipc"]]),
        # Regulator request quantisation (the 320-point scale) + stats.
        "freq_table": table,
        "freq_points": len(table),
        "freq_step": float(mcd_config.frequency_step_mhz),
        "cfg_min_mhz": float(mcd_config.min_frequency_mhz),
        "cfg_max_mhz": float(mcd_config.max_frequency_mhz),
        "reg_requests": np.zeros(4, dtype=np.int64),
        "reg_dirchg": np.zeros(4, dtype=np.int64),
    }


def fold_native_controller(controller, regulators, args: dict, intervals: int) -> None:
    """Fold the C loop's controller/regulator registers back out.

    ``args`` is the run's argument dict and ``intervals`` its interval
    count (the C result's ``intervals``).  Leaves the controller
    (Attack/Decay ``states`` with their diagnostics counters, the
    profiler's ``profile``, the replay's ``_position``) and the
    regulators' request statistics exactly as the reference
    interpreter would, so post-run inspection cannot tell which path
    ran.
    """
    mode = args["native_ctrl"]
    if mode == CTRL_PROFILE:
        log = args["off_log"][: intervals * LOG_FIELDS].reshape(-1, LOG_FIELDS)
        for row in log.tolist():
            qutil, ipc, busy_fraction = interval_observables(
                args["interval_len"], row[0], row[1:4], row[4:8], row[8:12]
            )
            controller.record(busy_fraction, qutil, ipc)
        return
    if mode == CTRL_REPLAY:
        controller._position += intervals
        return
    ad_ipc = args["ad_ipc"]
    controller.absorb_native_state(
        prev_ipc=float(ad_ipc[0]),
        smoothed_ipc=float(ad_ipc[1]),
        frequency_mhz=args["ad_freq"],
        prev_queue_utilization=args["ad_prev_util"],
        upper_endstop=args["ad_upper"],
        lower_endstop=args["ad_lower"],
        attacks_up=args["ad_attacks_up"],
        attacks_down=args["ad_attacks_down"],
        decays=args["ad_decays"],
        holds=args["ad_holds"],
    )
    requests = args["reg_requests"]
    dirchg = args["reg_dirchg"]
    for i, regulator in enumerate(regulators):
        regulator.stats.requests += int(requests[i])
        regulator.stats.direction_changes += int(dirchg[i])


def load_hotpath():
    """The ``_hotpath`` extension module, or None when unavailable.

    The first call may compile the extension; the result (including
    failure) is cached for the life of the process.  Safe to call from
    any thread — the first loader holds a lock, later callers (and
    later threads) hit the cached module without taking it.
    """
    global _cached, _attempted
    if _attempted:
        return _cached
    with _load_lock:
        if _attempted:
            return _cached
        if not native_enabled():
            _attempted = True
            return None
        try:
            compiler = _resolve_compiler()
            if compiler is None:
                logger.info(
                    "hotpath: no C compiler found; using the reference "
                    "interpreter"
                )
            else:
                so_path = _BUILD_DIR / f"_hotpath-{_build_stamp(compiler)}.so"
                if so_path.exists() or _compile(so_path, compiler):
                    loader = importlib.machinery.ExtensionFileLoader(
                        "_hotpath", str(so_path)
                    )
                    spec = importlib.util.spec_from_loader("_hotpath", loader)
                    module = importlib.util.module_from_spec(spec)
                    loader.exec_module(module)
                    _cached = module
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            logger.warning(
                "hotpath: load failed (%s); using the reference interpreter",
                exc,
            )
            _cached = None
        _attempted = True
    return _cached
