"""The External Trace Format (ETF): portable, versioned trace files.

An ETF file carries one complete dynamic instruction stream — the seven
base columns of the compiled-trace representation
(:mod:`repro.uarch.compiled_trace`) — plus a JSON header with identity,
phase boundaries and an integrity checksum.  It is the interchange
boundary of the workload subsystem: a trace recorded here can be
shipped, archived and replayed bit-exactly on another machine, and a
trace produced by *any* third-party generator that writes this format
runs through the same pipeline (content-addressed compiled-trace
store, native loop, reference interpreter) as the synthetic catalog.

Layout
------
One ``.npz`` archive (zip of ``.npy`` members) containing:

``header``
    A uint8 array holding a UTF-8 JSON object::

        {"magic": "REPRO-ETF", "version": 1, "name": ..,
         "instructions": .., "interval_instructions": ..,
         "phases": [[name, end_instruction], ...],
         "checksum": "sha1 hex of the column bytes",
         "meta": {..provenance..}}

``kinds, src1, src2, pcs, addrs, taken, targets``
    The base columns, in the compact dtypes of the on-disk trace store
    (``uint8``/``uint16``/``int64``).

The checksum covers the raw bytes of every column in canonical dtype
and order, so bit rot, truncation and well-meaning editors are all
caught at import time; :func:`read_etf` raises
:class:`~repro.errors.TraceError` with a reason rather than importing a
silently different workload.

Round-trip guarantee
--------------------
``export -> import -> run`` reproduces the original
:class:`~repro.metrics.summary.RunSummary` exactly: the columns are the
whole trace identity for the core, and the header carries the control
interval length, so an :class:`ExternalBenchmark` built from the file
is indistinguishable from the benchmark that exported it (clock seeds
and configuration still come from the run spec, as always).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.errors import TraceError, WorkloadError
from repro.ioutil import atomic_write
from repro.uarch.trace import InstructionBlock

#: Bump when the file layout changes incompatibly.
ETF_VERSION = 1

ETF_MAGIC = "REPRO-ETF"

#: Base columns in canonical order, with their on-disk dtypes.
_COLUMN_DTYPES = (
    ("kinds", np.uint8),
    ("src1", np.uint16),
    ("src2", np.uint16),
    ("pcs", np.int64),
    ("addrs", np.int64),
    ("taken", np.uint8),
    ("targets", np.int64),
)


def _checksum(columns: tuple[np.ndarray, ...]) -> str:
    """SHA-1 over every column's bytes in canonical dtype and order."""
    digest = hashlib.sha1()
    for (name, dtype), column in zip(_COLUMN_DTYPES, columns):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


class ColumnTrace:
    """A trace stream backed by in-memory base columns.

    The minimal :class:`~repro.uarch.trace.TraceStream` surface plus
    the vectorised ``columns()`` hook the trace compiler prefers, so an
    imported trace flows through :func:`repro.uarch.compiled_trace.trace_columns`
    without a per-block round-trip.
    """

    def __init__(self, columns: tuple[np.ndarray, ...]) -> None:
        self._columns = tuple(np.asarray(c, dtype=np.int64) for c in columns)
        self._n = len(self._columns[0])

    @property
    def total_instructions(self) -> int:
        """Exact trace length."""
        return self._n

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven base columns."""
        return self._columns

    def blocks(self) -> Iterator[InstructionBlock]:
        """The whole trace as one plain-list block."""
        if self._n:
            kinds, src1, src2, pcs, addrs, taken, targets = self._columns
            yield InstructionBlock(
                kinds=kinds.tolist(),
                src1=src1.tolist(),
                src2=src2.tolist(),
                pcs=pcs.tolist(),
                addrs=addrs.tolist(),
                taken=[bool(x) for x in taken.tolist()],
                targets=targets.tolist(),
            )


@dataclass(frozen=True)
class ExternalBenchmark:
    """An imported ETF trace with the runnable-benchmark surface.

    Register it (:func:`repro.workloads.catalog.register_benchmark`)
    and it runs anywhere a catalog entry runs.  Because the stream is
    *recorded* rather than generated, length scaling and seed offsets
    are meaningless and rejected.
    """

    name: str
    columns: tuple[np.ndarray, ...]
    interval_instructions: int
    phases: tuple[tuple[str, int], ...]
    checksum: str
    meta: Mapping[str, object]
    suite: str = "External"
    datasets: str = "imported ETF"
    paper_window: str = "-"

    @property
    def sim_instructions(self) -> int:
        """Exact trace length."""
        return len(self.columns[0])

    @property
    def paper_minstructions(self) -> float:
        """Weighting stand-in (millions of recorded instructions)."""
        return self.sim_instructions / 1e6

    def build_trace(self, scale: float = 1.0, seed_offset: int = 0) -> ColumnTrace:
        """The recorded stream; ``scale``/``seed_offset`` must be neutral."""
        if scale != 1.0:
            raise WorkloadError(
                f"{self.name}: an imported trace cannot be scaled (got {scale})"
            )
        if seed_offset:
            raise WorkloadError(
                f"{self.name}: an imported trace has no generator seed"
            )
        return ColumnTrace(self.columns)

    def trace_payload(self, scale: float = 1.0, seed_offset: int = 0) -> dict:
        """Content identity for the compiled-trace store."""
        return {
            "etf": self.checksum,
            "benchmark": self.name,
            "scale": scale,
            "seed_offset": seed_offset,
        }

    def phase_marks(self, scale: float = 1.0) -> list[tuple[str, int]]:
        """Recorded phase boundaries (``scale`` must be 1.0)."""
        if scale != 1.0:
            raise WorkloadError(
                f"{self.name}: an imported trace cannot be scaled (got {scale})"
            )
        return [(name, int(end)) for name, end in self.phases]


def export_trace(
    path: Path | str,
    columns: tuple[np.ndarray, ...],
    name: str,
    interval_instructions: int,
    phases: list[tuple[str, int]] | None = None,
    meta: Mapping[str, object] | None = None,
) -> str:
    """Write one trace to ``path`` in ETF v1; returns the checksum.

    ``columns`` are the seven base columns (any integer dtypes); they
    are stored compactly and checksummed.  The write is atomic
    (temp-file-plus-rename), like every store in this repository.
    """
    if len(columns) != len(_COLUMN_DTYPES):
        raise TraceError(
            f"export needs {len(_COLUMN_DTYPES)} columns, got {len(columns)}"
        )
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise TraceError("export columns have mismatched lengths")
    if n == 0:
        raise TraceError("refusing to export an empty trace")
    if interval_instructions < 1:
        raise TraceError("interval_instructions must be >= 1")
    marks = [(str(label), int(end)) for label, end in (phases or [])]
    if marks:
        ends = [end for _, end in marks]
        if (
            ends != sorted(ends)
            or len(set(ends)) != len(ends)
            or ends[-1] != n
            or min(ends) < 1
        ):
            raise TraceError(
                f"phase marks {ends} do not partition the {n}-instruction trace"
            )
    stored = {
        col_name: np.ascontiguousarray(column, dtype=dtype)
        for (col_name, dtype), column in zip(_COLUMN_DTYPES, columns)
    }
    checksum = _checksum(columns)
    header = {
        "magic": ETF_MAGIC,
        "version": ETF_VERSION,
        "name": str(name),
        "instructions": n,
        "interval_instructions": int(interval_instructions),
        "phases": marks,
        "checksum": checksum,
        "meta": dict(meta or {}),
    }
    header_bytes = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with atomic_write(Path(path)) as handle:
        np.savez(handle, header=header_bytes, **stored)
    return checksum


def read_etf(path: Path | str) -> ExternalBenchmark:
    """Load and validate an ETF file.

    Raises :class:`~repro.errors.TraceError` on any defect — missing
    file, truncation, wrong magic/version, missing columns, length
    mismatches, checksum mismatch — naming the reason.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            try:
                header_bytes = data["header"]
            except KeyError:
                raise TraceError(f"{path}: not an ETF file (no header)") from None
            raw_columns = []
            for col_name, _ in _COLUMN_DTYPES:
                try:
                    raw_columns.append(data[col_name])
                except KeyError:
                    raise TraceError(
                        f"{path}: ETF file is missing column {col_name!r}"
                    ) from None
    except TraceError:
        raise
    except FileNotFoundError:
        raise TraceError(f"{path}: no such file") from None
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise TraceError(f"{path}: unreadable ETF file ({exc})") from exc
    try:
        header = json.loads(bytes(header_bytes).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{path}: corrupt ETF header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != ETF_MAGIC:
        raise TraceError(f"{path}: not an ETF file (bad magic)")
    version = header.get("version")
    if version != ETF_VERSION:
        raise TraceError(
            f"{path}: unsupported ETF version {version!r} (supported: {ETF_VERSION})"
        )
    for field in ("name", "instructions", "interval_instructions", "checksum"):
        if field not in header:
            raise TraceError(f"{path}: ETF header is missing {field!r}")
    try:
        n = int(header["instructions"])
        interval_instructions = int(header["interval_instructions"])
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{path}: non-numeric ETF header field ({exc})") from exc
    if n < 1:
        raise TraceError(f"{path}: ETF header declares an empty trace")
    if interval_instructions < 1:
        raise TraceError(
            f"{path}: interval_instructions must be >= 1, "
            f"got {interval_instructions}"
        )
    if any(len(c) != n for c in raw_columns):
        raise TraceError(
            f"{path}: column lengths {[len(c) for c in raw_columns]} "
            f"do not match the declared {n} instructions"
        )
    columns = tuple(np.asarray(c, dtype=np.int64) for c in raw_columns)
    checksum = _checksum(columns)
    if checksum != header["checksum"]:
        raise TraceError(
            f"{path}: checksum mismatch (file says {header['checksum']}, "
            f"columns hash to {checksum}) - the trace is corrupt"
        )
    try:
        phases = tuple(
            (str(label), int(end)) for label, end in header.get("phases", [])
        )
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{path}: malformed phase marks ({exc})") from exc
    if phases:
        # Mirror export_trace's contract so third-party files cannot
        # smuggle marks that crash per-phase attribution downstream.
        ends = [end for _, end in phases]
        if ends != sorted(ends) or len(set(ends)) != len(ends) or min(ends) < 1:
            raise TraceError(
                f"{path}: phase marks {ends} must strictly ascend from >= 1"
            )
        if ends[-1] != n:
            raise TraceError(
                f"{path}: phase marks end at {ends[-1]} but the trace has "
                f"{n} instructions"
            )
    return ExternalBenchmark(
        name=str(header["name"]),
        columns=columns,
        interval_instructions=interval_instructions,
        phases=phases,
        checksum=checksum,
        meta=header.get("meta", {}),
    )


def export_benchmark(
    bench, path: Path | str, scale: float = 1.0, seed_offset: int = 0
) -> str:
    """Record ``bench``'s generated stream to ``path``; returns the checksum.

    Convenience wrapper for the common case (the CLI's ``export-trace``):
    generates the benchmark's trace at ``scale``, captures its columns
    and phase boundaries, and stamps provenance into the header.
    """
    from repro.uarch.compiled_trace import trace_columns
    from repro.version import __version__

    trace = bench.build_trace(scale=scale, seed_offset=seed_offset)
    columns = trace_columns(trace)
    # Imported traces have no generator seed (ExternalBenchmark defines
    # none); record provenance for what the workload actually is.
    seed = getattr(bench, "seed", None)
    meta: dict[str, object] = {
        "source": (
            "repro synthetic catalog" if seed is not None else "re-exported ETF"
        ),
        "benchmark": bench.name,
        "suite": bench.suite,
        "scale": scale,
        "repro_version": __version__,
    }
    if seed is not None:
        meta["seed"] = seed + seed_offset
    return export_trace(
        path,
        columns,
        name=bench.name,
        interval_instructions=bench.interval_instructions,
        phases=bench.phase_marks(scale),
        meta=meta,
    )
