"""The declarative campaign file: TOML in, ``Suite`` + kwargs out.

A campaign file names everything an unattended, interruptible sweep
needs — the scenario matrix, the execution backend, and the output
policy — so ``repro campaign run nightly.toml`` is the whole command
line.  The format is deliberately small::

    [campaign]
    name = "nightly"                  # required; labels journal + logs
    output = "nightly.campaign"       # campaign dir (default "<name>.campaign"
                                      # beside this file)

    [matrix]                          # exactly the Suite axes
    benchmarks = ["adpcm", "gsm", "phase_thrash"]
    configurations = ["sync", "mcd_base", "attack_decay"]
    seeds = [1, 2]                    # default [1]
    scale = 0.05                      # default: REPRO_SCALE (1.0)

    [[matrix.overrides]]              # optional; each set copies the matrix
    decay_pct = 0.5

    [execution]                       # all optional; Orchestrator kwargs
    backend = "process"               # auto|thread|process|serial
    workers = "auto"                  # integer or "auto"
    batch = "auto"                    # integer or "auto"
    use_cache = true
    cache_dir = "results/cache"       # relative to this file

    [output]                          # all optional
    results = "results.json"          # ResultSet JSON, relative to output dir
    resultdb = false                  # record the campaign summary run
    resultdb_dir = "results/db"       # relative to this file

Unknown sections and keys are rejected loudly — a typo like
``bencmarks`` must not silently run an empty matrix overnight.
Relative paths resolve against the campaign file's directory, so a
campaign is reproducible from any working directory.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence


from repro.errors import CampaignError
from repro.experiments.executor import benchmark_scale
from repro.experiments.scenario import Suite

#: section -> allowed keys; anything else is a loud error.
_SCHEMA = {
    "campaign": {"name", "output"},
    "matrix": {"benchmarks", "configurations", "seeds", "scale", "overrides"},
    "execution": {
        "backend",
        "workers",
        "batch",
        "use_cache",
        "cache_dir",
    },
    "output": {"results", "resultdb", "resultdb_dir"},
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CampaignError(message)


def _string_list(value: object, where: str) -> list[str]:
    _require(
        isinstance(value, list)
        and bool(value)
        and all(isinstance(item, str) and item for item in value),
        f"{where} must be a non-empty list of strings",
    )
    return list(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CampaignSpec:
    """One parsed campaign file (see the module docstring for the format)."""

    name: str
    source: Path
    campaign_dir: Path
    benchmarks: tuple[str, ...]
    configurations: tuple[str, ...]
    seeds: tuple[int, ...] = (1,)
    scale: float | None = None
    overrides: tuple[Mapping[str, object], ...] = field(
        default_factory=lambda: ({},)
    )
    backend: str | None = None
    workers: int | str | None = None
    batch: int | str | None = None
    use_cache: bool | None = None
    cache_dir: Path | None = None
    results_name: str = "results.json"
    resultdb: bool = False
    resultdb_dir: Path | None = None

    # --- construction -------------------------------------------------------
    @classmethod
    def load(
        cls, path: Path | str, output_dir: Path | str | None = None
    ) -> "CampaignSpec":
        """Parse and validate one campaign file.

        ``output_dir`` (the CLI's ``--output``) overrides the file's
        campaign directory.  Raises :class:`~repro.errors.CampaignError`
        for unreadable files, malformed TOML, unknown sections/keys,
        and wrong-typed values; matrix *content* (unknown benchmarks or
        configurations) is validated later by ``Suite.expand``.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise CampaignError(f"cannot read campaign file {path}: {exc}") from None
        try:
            data = tomllib.loads(text)
        except ValueError as exc:  # tomllib.TOMLDecodeError is a ValueError
            raise CampaignError(f"{path} is not valid TOML: {exc}") from None
        return cls.from_dict(data, source=path, output_dir=output_dir)

    @classmethod
    def from_dict(
        cls,
        data: dict,
        source: Path | str,
        output_dir: Path | str | None = None,
    ) -> "CampaignSpec":
        """Build a spec from already-parsed TOML data."""
        source = Path(source)
        _require(isinstance(data, dict), "campaign file must be a TOML table")
        unknown_sections = set(data) - set(_SCHEMA)
        _require(
            not unknown_sections,
            f"unknown campaign section(s) {sorted(unknown_sections)}; "
            f"expected {sorted(_SCHEMA)}",
        )
        for section, allowed in _SCHEMA.items():
            table = data.get(section, {})
            _require(
                isinstance(table, dict),
                f"[{section}] must be a table",
            )
            unknown = set(table) - allowed
            _require(
                not unknown,
                f"unknown key(s) {sorted(unknown)} in [{section}]; "
                f"expected a subset of {sorted(allowed)}",
            )
        campaign = data.get("campaign", {})
        matrix = data.get("matrix", {})
        execution = data.get("execution", {})
        output = data.get("output", {})

        name = campaign.get("name")
        _require(
            isinstance(name, str) and bool(name),
            "[campaign] needs a non-empty string 'name'",
        )
        benchmarks = _string_list(matrix.get("benchmarks"), "[matrix] benchmarks")
        configurations = _string_list(
            matrix.get("configurations"), "[matrix] configurations"
        )
        seeds = matrix.get("seeds", [1])
        _require(
            isinstance(seeds, list)
            and bool(seeds)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds),
            "[matrix] seeds must be a non-empty list of integers",
        )
        scale = matrix.get("scale")
        if scale is not None:
            _require(
                isinstance(scale, (int, float))
                and not isinstance(scale, bool)
                and scale > 0,
                "[matrix] scale must be a positive number",
            )
            scale = float(scale)
        overrides = matrix.get("overrides", [{}])
        _require(
            isinstance(overrides, list)
            and bool(overrides)
            and all(isinstance(o, dict) for o in overrides),
            "[matrix] overrides must be an array of tables",
        )

        backend = execution.get("backend")
        _require(
            backend is None or isinstance(backend, str),
            "[execution] backend must be a string",
        )
        workers = execution.get("workers")
        batch = execution.get("batch")
        use_cache = execution.get("use_cache")
        _require(
            use_cache is None or isinstance(use_cache, bool),
            "[execution] use_cache must be a boolean",
        )
        resultdb = output.get("resultdb", False)
        _require(
            isinstance(resultdb, bool), "[output] resultdb must be a boolean"
        )
        results_name = output.get("results", "results.json")
        _require(
            isinstance(results_name, str) and bool(results_name),
            "[output] results must be a non-empty file name",
        )

        base = source.resolve().parent

        def resolve(raw: object, where: str) -> Path | None:
            if raw is None:
                return None
            _require(
                isinstance(raw, str) and bool(raw),
                f"{where} must be a non-empty path string",
            )
            candidate = Path(raw)  # type: ignore[arg-type]
            return candidate if candidate.is_absolute() else base / candidate

        if output_dir is not None:
            campaign_dir = Path(output_dir)
        else:
            campaign_dir = (
                resolve(campaign.get("output"), "[campaign] output")
                or base / f"{name}.campaign"
            )
        return cls(
            name=name,
            source=source,
            campaign_dir=campaign_dir,
            benchmarks=tuple(benchmarks),
            configurations=tuple(configurations),
            seeds=tuple(seeds),
            scale=scale,
            overrides=tuple(dict(o) for o in overrides),
            backend=backend,
            workers=workers,
            batch=batch,
            use_cache=use_cache,
            cache_dir=resolve(execution.get("cache_dir"), "[execution] cache_dir"),
            results_name=results_name,
            resultdb=resultdb,
            resultdb_dir=resolve(output.get("resultdb_dir"), "[output] resultdb_dir"),
        )

    # --- derived forms ------------------------------------------------------
    def suite(self) -> Suite:
        """The campaign's matrix as a first-class :class:`Suite`."""
        return Suite(
            benchmarks=list(self.benchmarks),
            configurations=list(self.configurations),
            seeds=list(self.seeds),
            overrides=[dict(o) for o in self.overrides],
            scale=self.scale,
            name=self.name,
        )

    def with_execution(
        self,
        backend: str | None = None,
        workers: int | str | None = None,
        batch: int | str | None = None,
    ) -> "CampaignSpec":
        """A copy with execution knobs overridden (None keeps the file's).

        Safe on a resumed campaign by construction: :attr:`spec_hash`
        deliberately excludes backend/workers/batch, so an override
        never invalidates a journal.  Values are *not* validated here —
        the orchestrator constructor rejects unknown backends and
        malformed counts, which the CLI maps to exit 2.
        """
        updates = {}
        if backend is not None:
            updates["backend"] = backend
        if workers is not None:
            updates["workers"] = workers
        if batch is not None:
            updates["batch"] = batch
        return replace(self, **updates) if updates else self

    def orchestrator_kwargs(self) -> dict:
        """Constructor kwargs for the campaign's :class:`Orchestrator`."""
        return {
            "workers": self.workers,
            "backend": self.backend,
            "batch": self.batch,
            "cache_dir": self.cache_dir,
            "use_cache": self.use_cache,
            "scale": self.scale,
        }

    @property
    def effective_scale(self) -> float:
        """The scale every cell will actually run at."""
        return self.scale if self.scale is not None else benchmark_scale()

    @property
    def spec_hash(self) -> str:
        """Content identity of *what the campaign computes*.

        Everything that changes cell results joins the hash — matrix
        axes, overrides, and the effective scale (resolved through
        ``REPRO_SCALE`` when the file leaves it unset, so a resume
        under a different environment scale is rejected instead of
        silently mixing result sets).  Execution knobs (backend,
        workers, batch) deliberately do not: every backend is
        byte-identical, so a campaign may resume on different hardware.
        """
        identity = json.dumps(
            {
                "name": self.name,
                "benchmarks": list(self.benchmarks),
                "configurations": list(self.configurations),
                "seeds": list(self.seeds),
                "scale": self.effective_scale,
                "overrides": [
                    sorted((str(k), v) for k, v in o.items())
                    for o in self.overrides
                ],
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha1(identity.encode()).hexdigest()[:20]

    @property
    def journal_path(self) -> Path:
        """Where this campaign's checkpoint journal lives."""
        return self.campaign_dir / "journal.jsonl"

    @property
    def results_path(self) -> Path:
        """Where the final ResultSet JSON is published."""
        return self.campaign_dir / self.results_name

    def __len__(self) -> int:
        return (
            len(self.benchmarks)
            * len(self.configurations)
            * len(self.seeds)
            * len(self.overrides)
        )


def expand_matrix(spec: CampaignSpec) -> Sequence:
    """The campaign's scenario matrix, validated against the registries."""
    return spec.suite().expand()
