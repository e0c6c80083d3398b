"""Append-only, versioned store of benchmark runs.

The repository's performance trajectory lives here: every benchmark
invocation appends one immutable record — the metric payload plus full
provenance (spec hash, repro version, host fingerprint, compiler
banner, backend, scale, UTC timestamp) — and nothing ever rewrites or
deletes one.  ``repro report`` renders the trajectory and ``repro
check`` gates CI against it, so the invariants are exactly the result
cache's, but for *history* instead of *identity*:

* **one file per run** under ``<db>/runs/``, named so lexicographic
  order is chronological order;
* **atomic publication** via :func:`repro.ioutil.atomic_write` —
  concurrent appenders (pool workers, parallel CI jobs on a shared
  volume) each publish their own file, so no append can lose another;
* **recoverable reads** — a truncated, garbage or wrong-schema entry
  is logged and skipped, never fatal; one corrupt record must not take
  down the trajectory that contains it.

The default location is ``results/db`` in the repository
(``REPRO_RESULTDB_DIR`` overrides it; ``REPRO_RESULTDB=0`` stops the
benchmark harness from auto-recording).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import uuid
from dataclasses import asdict, dataclass, field
from datetime import UTC, datetime
from pathlib import Path

from repro.errors import ResultDBError
from repro.ioutil import atomic_write, sweep_stale_tmp
from repro.resultdb.provenance import provenance as default_provenance

logger = logging.getLogger(__name__)

#: Bump when the record layout changes incompatibly.  Readers skip
#: records from *newer* schemas (they cannot interpret them) but keep
#: accepting older ones they understand.
DB_SCHEMA_VERSION = 1

#: Default database location, beside the result cache.
DEFAULT_DB_DIR = Path(__file__).resolve().parents[3] / "results" / "db"


def default_db_dir() -> Path:
    """The database directory: ``REPRO_RESULTDB_DIR`` or ``results/db``."""
    env = os.environ.get("REPRO_RESULTDB_DIR")
    return Path(env) if env else DEFAULT_DB_DIR


def utc_now() -> str:
    """The current UTC time in the store's ISO-8601 layout.

    Microsecond resolution: record timestamps are the trajectory's
    sort key, so two appends in quick succession must still order
    (the random run id only breaks genuinely simultaneous ties).
    """
    return datetime.now(UTC).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


@dataclass(frozen=True)
class StoredRun:
    """One immutable benchmark run in the result database.

    ``metrics`` holds the flat numeric summary the query/gate layers
    operate on (e.g. ``native_vs_python``, ``compiled_ips``);
    ``payload`` keeps the benchmark's full artifact (per-benchmark
    rows, knobs) for forensics.  Everything else is provenance.
    """

    run_id: str
    bench: str
    recorded_utc: str
    spec_hash: str
    version: str
    host: dict
    metrics: dict
    schema: int = DB_SCHEMA_VERSION
    compiler: dict | None = None
    native: bool | None = None
    backend: str | None = None
    scale: float | None = None
    payload: dict = field(default_factory=dict)

    #: Fields a record file must carry to be loadable.
    REQUIRED = ("run_id", "bench", "recorded_utc", "spec_hash", "version", "host", "metrics")

    @property
    def host_id(self) -> str:
        """The stable host identity this run was measured on."""
        return str(self.host.get("host_id", "unknown"))

    def metric(self, name: str) -> float | None:
        """The numeric value of ``name``, or None when absent/non-numeric."""
        value = self.metrics.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    def to_dict(self) -> dict:
        """The JSON-serialisable record layout written to disk."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> StoredRun:
        """Rebuild a run from its record dict.

        Raises :class:`~repro.errors.ResultDBError` on anything that is
        not a complete, compatible record — the store turns that into a
        logged skip.
        """
        if not isinstance(data, dict):
            raise ResultDBError(f"record is {type(data).__name__}, expected a dict")
        missing = [key for key in cls.REQUIRED if key not in data]
        if missing:
            raise ResultDBError(f"record is missing fields {missing}")
        schema = data.get("schema", 0)
        if not isinstance(schema, int) or schema > DB_SCHEMA_VERSION:
            raise ResultDBError(
                f"record schema {schema!r} is newer than supported "
                f"({DB_SCHEMA_VERSION}); upgrade repro to read it"
            )
        if not isinstance(data["metrics"], dict) or not isinstance(data["host"], dict):
            raise ResultDBError("record metrics/host have the wrong shape")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def _numeric_items(mapping: dict) -> dict:
    """The plain-number entries of ``mapping`` (bools excluded)."""
    return {
        key: float(value)
        for key, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def extract_metrics(payload: dict) -> dict:
    """Pull the flat numeric metrics out of a bench artifact payload.

    The harness convention is ``{"runs": [...], "aggregate": {...}}``;
    the aggregate's numeric scalars are the trajectory metrics.  A
    payload without an aggregate contributes its own top-level numeric
    scalars instead, so ad-hoc metric files ingest too.

    >>> extract_metrics({"aggregate": {"speedup": 3.5, "native": True}})
    {'speedup': 3.5}
    >>> extract_metrics({"rps": 54.0, "note": "ad hoc"})
    {'rps': 54.0}
    """
    aggregate = payload.get("aggregate")
    if isinstance(aggregate, dict):
        return _numeric_items(aggregate)
    return _numeric_items(payload)


class ResultDB:
    """The append-only run store (see module docstring for invariants)."""

    def __init__(self, directory: Path | str | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_db_dir()
        # Crashed appenders leave ``*.tmp`` siblings beside the run
        # records; reap the stale ones (age-gated, so a live appender
        # on another process is untouched).
        sweep_stale_tmp(self.runs_dir)

    @property
    def runs_dir(self) -> Path:
        """Where the one-file-per-run records live."""
        return self.directory / "runs"

    # --- writing -----------------------------------------------------------
    def spec_hash(self, bench: str, metrics: dict, backend: str | None, scale) -> str:
        """Content hash of *what was measured* (not the measured values).

        Two runs with equal spec hashes are comparable points on one
        trajectory: same bench, same metric set, same backend and
        workload scale.
        """
        identity = json.dumps(
            {
                "schema": DB_SCHEMA_VERSION,
                "bench": bench,
                "metrics": sorted(metrics),
                "backend": backend,
                "scale": scale,
            },
            sort_keys=True,
        )
        return hashlib.sha1(identity.encode()).hexdigest()[:20]

    def record(
        self,
        bench: str,
        metrics: dict,
        payload: dict | None = None,
        backend: str | None = None,
        scale: float | None = None,
        native: bool | None = None,
        stamp: dict | None = None,
        recorded_utc: str | None = None,
    ) -> StoredRun:
        """Append one run and return the stored record.

        ``stamp`` defaults to this process's
        :func:`~repro.resultdb.provenance.provenance`; pass one
        explicitly when ingesting results measured elsewhere.
        """
        metrics = _numeric_items(metrics)
        if not metrics:
            raise ResultDBError(f"run of {bench!r} has no numeric metrics to record")
        payload = payload if payload is not None else {}
        stamp = stamp if stamp is not None else default_provenance()
        aggregate = payload.get("aggregate") if isinstance(payload.get("aggregate"), dict) else {}
        if scale is None and isinstance(aggregate.get("scale"), (int, float)):
            scale = float(aggregate["scale"])
        if native is None and isinstance(aggregate.get("native"), bool):
            native = aggregate["native"]
        run = StoredRun(
            run_id=uuid.uuid4().hex[:20],
            bench=bench,
            recorded_utc=recorded_utc or utc_now(),
            spec_hash=self.spec_hash(bench, metrics, backend, scale),
            version=str(stamp.get("version", "unknown")),
            host=dict(stamp.get("host") or {}),
            compiler=stamp.get("compiler"),
            native=native,
            backend=backend,
            scale=scale,
            metrics=metrics,
            payload=payload,
        )
        self.append(run)
        return run

    def append(self, run: StoredRun) -> Path:
        """Publish ``run`` as its own atomically-written record file.

        The filename leads with the timestamp so a directory listing
        is the trajectory in order; the run id suffix keeps concurrent
        appends (and equal-second runs) from ever colliding.
        """
        compact = run.recorded_utc.replace(":", "").replace("-", "").replace(".", "")
        path = self.runs_dir / f"{compact}-{run.run_id}.json"
        with atomic_write(path, "w") as handle:
            handle.write(json.dumps(run.to_dict(), indent=1, sort_keys=True))
        return path

    def record_payload(
        self,
        bench: str,
        payload: dict,
        backend: str | None = None,
    ) -> StoredRun:
        """Append an in-memory bench artifact (the harness write hook).

        Same contract as :meth:`ingest` without the file read: metrics
        come out of the payload via :func:`extract_metrics`.
        """
        return self.record(
            bench=bench,
            metrics=extract_metrics(payload),
            payload=payload,
            backend=backend,
        )

    def ingest(
        self,
        path: Path | str,
        bench: str | None = None,
        backend: str | None = None,
    ) -> StoredRun:
        """Append a benchmark artifact JSON file (``results/bench_*.json``).

        The bench name defaults to the file stem; metrics come from the
        payload via :func:`extract_metrics`.  Raises
        :class:`~repro.errors.ResultDBError` for unreadable files or
        payloads with nothing numeric to record.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ResultDBError(f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ResultDBError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ResultDBError(f"{path} holds {type(payload).__name__}, expected an object")
        return self.record_payload(bench or path.stem, payload, backend=backend)

    # --- reading -----------------------------------------------------------
    def runs(self) -> list[StoredRun]:
        """Every readable run, oldest first.

        Unreadable or incompatible record files are logged at WARNING
        and skipped — the trajectory survives any single bad entry.
        """
        loaded = []
        if not self.runs_dir.is_dir():
            return loaded
        for path in sorted(self.runs_dir.glob("*.json")):
            try:
                data = json.loads(path.read_text())
                loaded.append(StoredRun.from_dict(data))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError, ResultDBError) as exc:
                logger.warning("result db entry %s unreadable (%s); skipping", path, exc)
        loaded.sort(key=lambda run: (run.recorded_utc, run.run_id))
        return loaded
