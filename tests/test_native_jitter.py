"""Clock jitter drawn inside the C loop.

The C loop draws every MCD jitter block itself, from each clock's own
numpy bit generator, and must match ``GaussianJitter._draw`` bit for
bit and word for word: the same ``CoreResult`` and the same generator
states after a run as the reference interpreter, on every catalog
benchmark, on jitter shapes the catalog never uses, and on words that
sit exactly on an edge of numpy's ziggurat fast path.  Tests that run
the C loop need it and skip without it.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.clocks.jitter import GaussianJitter
from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.sim.engine import scaled_mcd_config
from repro.uarch import native
from repro.uarch.compiled_trace import compile_trace
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import BENCHMARKS, get_benchmark

SCALE = 0.05

needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)


@pytest.mark.skipif(
    not native.native_enabled() or native._resolve_compiler() is None,
    reason="no native loop",
)
def test_extension_loads_where_a_compiler_exists():
    """A failed build or init self-check must not pass as a skipped suite."""
    assert native.load_hotpath() is not None


def _core(trace, bench, controller):
    return MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=AttackDecayController(SCALED_OPERATING_POINT) if controller else None,
        options=CoreOptions(mcd=True, seed=2, interval_instructions=bench.interval_instructions),
    )


def _run_both(name, controller=False, jitters=None):
    """(CoreResult, generator states) of the reference and the C loop.

    ``jitters`` builds a fresh list of four jitter models per run, put
    into the clocks before the run; None keeps the core's own.
    """
    bench = get_benchmark(name)
    trace = bench.build_trace(scale=SCALE)
    outcomes = []
    for form in (trace, compile_trace(trace)):
        core = _core(form, bench, controller)
        if jitters is not None:
            for clock, jitter in zip(core.clocks, jitters()):
                clock._jitter = jitter
        result = asdict(core.run())
        states = [clock.jitter._rng.bit_generator.state for clock in core.clocks]
        outcomes.append((result, states))
    return outcomes


@needs_native
class TestStateParity:
    @pytest.mark.parametrize("controller", [False, True], ids=["no_controller", "attack_decay"])
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_catalog(self, name, controller):
        (reference, ref_states), (fast, fast_states) = _run_both(name, controller)
        assert fast == reference
        assert fast_states == ref_states


#: Jitter shapes the catalog never uses: a draw per block, a block that
#: divides nothing, and no clipping.
SHAPES = {
    "block_1": {"block": 1},
    "block_7": {"block": 7},
    "no_clip": {"clip_sigmas": 0.0},
}


@needs_native
@pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))
@pytest.mark.parametrize("name", ["gsm", "mcf"])
def test_jitter_shapes(name, shape):
    def jitters():
        return [GaussianJitter(0.110, seed=40 + i, **shape) for i in range(4)]

    (reference, ref_states), (fast, fast_states) = _run_both(name, jitters=jitters)
    assert fast == reference
    assert fast_states == ref_states


# ------------------------------------------------- the fast path's edges
# numpy's draw reads one PCG64 word: layer idx = bits 0-7, the sign is
# bit 8 and rabs bits 9-60.  It returns from its fast path while
# rabs < ki[idx] and otherwise runs the wedge or the tail.  A PCG64
# state whose next word is any chosen word puts such a word first in a
# clock's stream.

_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's LCG multiplier
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_INC = 1  # any odd increment


def _state_before(word: int) -> int:
    """A PCG64 state (increment _INC) whose next output is ``word``."""
    high = 0x0123456789ABCDEF
    rot = high >> 58  # the XSL-RR output rotates right by the top 6 bits
    low = (((word << rot) | (word >> (64 - rot))) & _MASK64) ^ high
    return ((((high << 64) | low) - _INC) * pow(_MULT, -1, 1 << 128)) & _MASK128


def _generator_at(word: int) -> np.random.PCG64:
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": _state_before(word), "inc": _INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def _leaves_fast_path(word: int) -> bool:
    """Whether numpy's draw reads more than the word itself."""
    bit_generator = _generator_at(word)
    np.random.Generator(bit_generator).standard_normal()
    one_word = (_state_before(word) * _MULT + _INC) & _MASK128
    return bit_generator.state["state"]["state"] != one_word


def _ki(layer: int) -> int:
    """The smallest rabs that leaves the fast path in ``layer``."""
    lo, hi = 0, 1 << 52
    while lo < hi:
        mid = (lo + hi) // 2
        if _leaves_fast_path((mid << 9) | layer):
            hi = mid
        else:
            lo = mid + 1
    return lo


#: (layer, side): layer 0 leaves into the tail, the others into a
#: wedge; numpy's ki[1] is 0, so layer 1 has no fast side.
EDGES = [(0, "fast"), (0, "slow"), (1, "slow"), (2, "fast"), (2, "slow"),
         (127, "fast"), (127, "slow"), (255, "fast"), (255, "slow")]


@needs_native
@pytest.mark.parametrize("layer, side", EDGES, ids=[f"{lay}-{s}" for lay, s in EDGES])
def test_fast_path_edge(layer, side):
    """Every clock's first word sits on a layer's edge, negative sign."""
    ki = _ki(layer)
    rabs = ki - 1 if side == "fast" else ki
    assert 0 <= rabs < 1 << 52
    word = (rabs << 9) | (1 << 8) | layer
    assert _leaves_fast_path(word) == (side == "slow")

    def jitters():
        streams = [GaussianJitter(0.110, block=1, clip_sigmas=0.0) for _ in range(4)]
        for jitter in streams:
            jitter._rng = np.random.Generator(_generator_at(word))
        return streams

    (reference, ref_states), (fast, fast_states) = _run_both("gsm", jitters=jitters)
    assert fast == reference
    assert fast_states == ref_states
