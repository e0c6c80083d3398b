"""Per-cycle clock jitter models.

The paper models independent jitter per domain per cycle, normally
distributed with zero mean and a 110 ps standard deviation (100 ps from
the external PLL plus 10 ps internal).  Jitter samples are drawn from a
seeded stream so simulations are reproducible; samples are generated in
blocks with numpy for speed and handed out one at a time.

Both interpreters consume the same stream.  The reference interpreter
calls :meth:`GaussianJitter.sample`; the C loop (``_hotpath.c``) draws
the same blocks itself, from the same numpy bit generator, bit for bit
as :meth:`GaussianJitter._draw` does (see :meth:`native_stream`).
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np


class JitterModel(Protocol):
    """A source of per-cycle jitter samples (nanoseconds)."""

    def sample(self) -> float:
        """Return the jitter for the next clock cycle, in ns."""
        ...


class NoJitter:
    """Jitter-free clock (used by the fully synchronous baseline)."""

    def sample(self) -> float:
        """Always zero."""
        return 0.0


class GaussianJitter:
    """Zero-mean normal jitter, N(0, sigma), drawn from a seeded stream.

    Parameters
    ----------
    sigma_ns:
        Standard deviation in nanoseconds (paper: 0.110).
    seed:
        Seed for the underlying generator; independent clocks should
        use distinct seeds.
    block:
        Number of samples drawn per refill.  Larger blocks amortise
        numpy call overhead in the simulator's hot loop.
    clip_sigmas:
        Samples are clipped to ±``clip_sigmas``·sigma so a pathological
        tail draw can never make time run backwards for realistic
        periods (a 3-sigma clip at 110 ps is ±330 ps, well under the
        1 ns minimum period).  0 disables clipping.
    """

    def __init__(
        self,
        sigma_ns: float,
        seed: int = 0,
        block: int = 16384,
        clip_sigmas: float = 3.0,
    ) -> None:
        for name, value in (("sigma_ns", sigma_ns), ("clip_sigmas", clip_sigmas)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if block < 1:
            raise ValueError("block must be >= 1")
        self.sigma_ns = sigma_ns
        self._rng = np.random.default_rng(seed)
        self._block = block
        self._clip = clip_sigmas * sigma_ns
        self._buffer: list[float] = []

    def _draw(self) -> np.ndarray:
        """The stream's next block of clipped float64 samples.

        The contract both interpreters keep: a block is ``block``
        samples of ``0.0 + sigma * z``, z from numpy's
        ``random_standard_normal`` on this generator (that is
        ``rng.normal``), clipped to ±clip when clip > 0, and handed
        out from the tail.  The C loop draws the same words and
        returns the same bits (``draw_jitter`` in ``_hotpath.c``).
        """
        raw = self._rng.normal(0.0, self.sigma_ns, self._block)
        if self._clip > 0:
            np.clip(raw, -self._clip, self._clip, out=raw)
        return raw

    def native_stream(self) -> tuple:
        """``(capsule, sigma, clip, block)``: this stream for the C loop.

        The capsule wraps this generator's numpy ``bitgen_t``; the C
        loop draws :meth:`_draw`'s blocks from it without numpy's
        lock, which is sound because the stream belongs to one clock
        of one core and no core runs concurrently with itself.
        """
        return (self._rng.bit_generator.capsule, self.sigma_ns, self._clip, self._block)

    def _refill(self) -> None:
        # list.pop() from the tail is O(1); order within a block is iid
        # so consuming in reverse is statistically identical.
        self._buffer = self._draw().tolist()

    def sample(self) -> float:
        """Return the next jitter sample in ns."""
        if not self._buffer:
            self._refill()
        return self._buffer.pop()
