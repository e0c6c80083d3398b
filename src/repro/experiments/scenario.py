"""Declarative scenarios and cross-product suites.

A :class:`Scenario` is plain data — benchmark, configuration name,
seed, scale, parameter overrides — so it can be hashed into a cache
key, sent to a worker process, and stored alongside its result.  A
:class:`Suite` expands the cross-product
``benchmarks x configurations x seeds x overrides`` into the run matrix
the :class:`~repro.experiments.orchestrator.Orchestrator` executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import ExperimentError
from repro.experiments.registry import CONFIGURATIONS
from repro.workloads.catalog import is_known_benchmark


def _freeze_overrides(
    overrides: Mapping[str, object] | Sequence[tuple[str, object]] | None,
) -> tuple[tuple[str, object], ...]:
    """Normalise an overrides mapping to a sorted, hashable tuple."""
    if not overrides:
        return ()
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class Scenario:
    """One fully named run of the matrix.

    Parameters
    ----------
    benchmark:
        Catalog name (see :mod:`repro.workloads.catalog`).
    configuration:
        Registry name, possibly parameterised (``"dynamic_5"``,
        ``"global@725.000"``, ``"attack_decay[1.750_06.0_0.175_2.5]"``).
    seed:
        Clock phase/jitter seed; None inherits the executor's default.
    scale:
        Workload length scale; None inherits the executor's default.
    overrides:
        Extra keyword parameters for the configuration factory (e.g.
        ``{"decay_pct": 0.5}`` for ``attack_decay``).  Part of the
        cache identity.
    """

    benchmark: str
    configuration: str
    seed: int | None = None
    scale: float | None = None
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", _freeze_overrides(self.overrides))

    @property
    def run_id(self) -> str:
        """A readable unique label, e.g. ``gsm:attack_decay{decay_pct=0.5}``."""
        label = f"{self.benchmark}:{self.configuration}"
        if self.overrides:
            inner = ",".join(f"{k}={v}" for k, v in self.overrides)
            label += "{" + inner + "}"
        if self.seed is not None:
            label += f"#s{self.seed}"
        return label

    def override_mapping(self) -> dict[str, object]:
        """The overrides as a plain dict (factory kwargs)."""
        return dict(self.overrides)

    def to_dict(self) -> dict:
        """Plain-dict form for JSON round-trips."""
        return {
            "benchmark": self.benchmark,
            "configuration": self.configuration,
            "seed": self.seed,
            "scale": self.scale,
            "overrides": [list(pair) for pair in self.overrides],
        }

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        return Scenario(
            benchmark=data["benchmark"],
            configuration=data["configuration"],
            seed=data.get("seed"),
            scale=data.get("scale"),
            overrides=tuple((k, v) for k, v in data.get("overrides", [])),
        )


@dataclass
class Suite:
    """A declarative run matrix: the cross-product of its axes.

    Parameters
    ----------
    benchmarks:
        Catalog names to cover.
    configurations:
        Registry configuration names.
    seeds:
        Clock seeds (one run per seed).
    overrides:
        Parameter-override sets; each produces its own copy of the
        matrix (``[{}]`` for none).
    scale:
        Workload length scale applied to every scenario (None inherits
        the executor's default).
    name:
        Label used in logs and artifacts.
    """

    benchmarks: Sequence[str]
    configurations: Sequence[str]
    seeds: Sequence[int] = (1,)
    overrides: Sequence[Mapping[str, object]] = field(default_factory=lambda: [{}])
    scale: float | None = None
    name: str = "suite"

    def expand(self) -> list[Scenario]:
        """The full run matrix, validated against catalog, registry and scale.

        Order is deterministic: overrides, then seeds, then benchmarks,
        then configurations, varying fastest on the right.
        """
        if not self.benchmarks:
            raise ExperimentError(f"suite {self.name!r} has no benchmarks")
        if not self.configurations:
            raise ExperimentError(f"suite {self.name!r} has no configurations")
        if not self.seeds:
            raise ExperimentError(f"suite {self.name!r} has no seeds")
        if self.scale is not None and not (
            isinstance(self.scale, (int, float)) and 0 < self.scale < math.inf
        ):
            raise ExperimentError(
                f"suite {self.name!r} scale must be a positive finite number, "
                f"got {self.scale!r}"
            )
        unknown = [b for b in self.benchmarks if not is_known_benchmark(b)]
        if unknown:
            raise ExperimentError(f"unknown benchmarks in suite: {unknown}")
        for configuration in self.configurations:
            CONFIGURATIONS.resolve(configuration)  # raises if unknown
        matrix = []
        for override_set in self.overrides:
            for seed in self.seeds:
                for benchmark in self.benchmarks:
                    for configuration in self.configurations:
                        matrix.append(
                            Scenario(
                                benchmark=benchmark,
                                configuration=configuration,
                                seed=seed,
                                scale=self.scale,
                                overrides=_freeze_overrides(override_set),
                            )
                        )
        return matrix

    def __len__(self) -> int:
        return (
            len(self.benchmarks)
            * len(self.configurations)
            * len(self.seeds)
            * len(self.overrides)
        )

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.expand())
