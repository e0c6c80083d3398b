"""Columnar compiled traces and their on-disk store.

A :class:`CompiledTrace` is the whole dynamic instruction stream of one
workload flattened into the seven base columns of
:mod:`repro.uarch.trace` — ``kinds``, ``src1``, ``src2``, ``pcs``,
``addrs``, ``taken`` and ``targets`` — each a read-only numpy array in
the narrow dtype :data:`COLUMNS` fixes for it, 22 bytes per
instruction.  Nothing else is stored: what the native core loop needs
beyond the columns it derives per instruction, exactly as the reference
interpreter does (destination register type and issue domain from the
ISA tables, producer sequence numbers from the dependency distances,
new fetch lines from the previous fetch line).  No column
depends on the cache geometry, so one compiled trace serves every
cache-line size.

Every column is range-checked on the way in (:func:`from_columns`):
a value its narrow dtype or the trace format cannot hold raises
:class:`~repro.errors.TraceError` naming the column, never wraps.

Compilation is a pure function of the trace, so a compiled trace can be
cached on disk and shared across every run of the same workload:
:class:`TraceStore` persists the columns as an ``.npz`` file named by a
content hash (the caller builds the identity payload; see
:func:`repro.sim.engine.compiled_trace_for`).  Writes are atomic
(temp-file-plus-rename, like the experiment
:class:`~repro.experiments.cache.CacheStore`), so concurrent
orchestrator workers never observe a truncated trace.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.ioutil import atomic_write, sweep_stale_tmp
from repro.uarch.isa import NUM_CLASSES
from repro.uarch.trace import MAX_DEP_DISTANCE, TraceStream

#: Bump when the compiled representation or its derivation changes;
#: joined into every on-disk trace key so stale entries miss.
COMPILED_TRACE_VERSION = 2

#: Default store location, beside the experiment result cache.
DEFAULT_TRACE_DIR = (
    Path(__file__).resolve().parents[3] / "results" / "cache" / "traces"
)

#: The base columns in trace order: each one's name, the narrow dtype it
#: is held in everywhere (generated columns, compiled traces, the disk
#: store) and the closed range its values must lie in.
COLUMNS: tuple[tuple[str, np.dtype, int, int], ...] = (
    ("kinds", np.dtype(np.uint8), 0, NUM_CLASSES - 1),
    ("src1", np.dtype(np.uint16), 0, MAX_DEP_DISTANCE),
    ("src2", np.dtype(np.uint16), 0, MAX_DEP_DISTANCE),
    ("pcs", np.dtype(np.uint32), 0, 2**32 - 1),
    ("addrs", np.dtype(np.int64), 0, 2**63 - 1),
    ("taken", np.dtype(np.uint8), 0, 1),
    ("targets", np.dtype(np.uint32), 0, 2**32 - 1),
)

_BASE_COLUMNS = tuple(name for name, _, _, _ in COLUMNS)

logger = logging.getLogger(__name__)


def narrow_columns(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The seven base columns cast to their :data:`COLUMNS` dtypes.

    Raises :class:`~repro.errors.TraceError` naming the first column
    that holds a non-integer dtype or a value outside its range, rather
    than wrapping it.  A column already in its dtype is returned as is.
    """
    if len(columns) != len(COLUMNS):
        raise TraceError(f"a trace has {len(COLUMNS)} columns, got {len(columns)}")
    out = []
    for (name, dtype, low, high), column in zip(COLUMNS, columns):
        column = np.asarray(column)
        if column.dtype.kind not in "biu":
            raise TraceError(f"trace column {name} has dtype {column.dtype}, not integers")
        if column.size:
            lo, hi = int(column.min()), int(column.max())
            if lo < low or hi > high:
                raise TraceError(
                    f"trace column {name} holds values in [{lo}, {hi}], "
                    f"outside its range [{low}, {high}]"
                )
        out.append(column.astype(dtype, copy=False))
    return tuple(out)


class CompiledTrace:
    """One workload's instruction stream in columnar form.

    ``arrays`` maps each base column name to a read-only numpy array of
    length ``n`` in its :data:`COLUMNS` dtype, the form the native loop
    consumes zero-copy.  Because numpy refuses writes to them and no
    consumer keeps per-run state in them, one compiled trace serves any
    number of sequential or concurrent runs, under any cache geometry.
    """

    __slots__ = ("n", "arrays")

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self.n = len(arrays["kinds"])
        self.arrays = arrays

    @property
    def total_instructions(self) -> int:
        """Exact trace length."""
        return self.n

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven base columns, in trace order."""
        return tuple(self.arrays[name] for name in _BASE_COLUMNS)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array`` (the array itself is untouched)."""
    view = array.view()
    view.setflags(write=False)
    return view


def from_columns(columns: tuple[np.ndarray, ...]) -> CompiledTrace:
    """Build a :class:`CompiledTrace` from the seven base columns.

    Range-checked by :func:`narrow_columns`; zero-copy for columns
    already in their dtypes.
    """
    columns = narrow_columns(columns)
    n = len(columns[0])
    if any(len(column) != n for column in columns[1:]):
        raise TraceError("compiled trace columns have mismatched lengths")
    return CompiledTrace(
        {name: _read_only(column) for name, column in zip(_BASE_COLUMNS, columns)}
    )


def trace_columns(trace: TraceStream) -> tuple[np.ndarray, ...]:
    """The seven base columns of any trace stream, in their narrow dtypes.

    Uses the stream's vectorised :meth:`columns` when it has one; every
    such stream (:class:`~repro.workloads.synthetic.SyntheticTrace`,
    :class:`~repro.uarch.etf.ColumnTrace`, :class:`CompiledTrace`)
    returns range-checked narrow columns, so they are taken as they
    are.  Otherwise its blocks are narrowed one by one and
    concatenated.
    """
    columns = getattr(trace, "columns", None)
    if callable(columns):
        return columns()
    parts: list[list[np.ndarray]] = [[] for _ in COLUMNS]
    for block in trace.blocks():
        narrowed = narrow_columns(
            tuple(
                np.asarray(getattr(block, name), dtype=np.int64)
                for name in _BASE_COLUMNS
            )
        )
        for store, column in zip(parts, narrowed):
            store.append(column)
    if not parts[0]:
        return tuple(np.zeros(0, dtype=dtype) for _, dtype, _, _ in COLUMNS)
    return tuple(np.concatenate(store) for store in parts)


def compile_trace(trace: TraceStream) -> CompiledTrace:
    """Compile ``trace`` into columnar form.

    >>> from repro.uarch.isa import InstructionClass as IC
    >>> from repro.uarch.trace import InstructionBlock, ListTrace
    >>> block = InstructionBlock()
    >>> block.append(IC.INT_ALU, pc=64)
    >>> block.append(IC.LOAD, src1=1, pc=68, addr=4096)
    >>> compiled = compile_trace(ListTrace([block]))
    >>> compiled.total_instructions
    2
    >>> [compiled.arrays[name].tolist() for name in ("kinds", "src1", "pcs")]
    [[0, 4], [0, 1], [64, 68]]
    >>> sum(column.nbytes for column in compiled.arrays.values())
    44
    """
    return from_columns(trace_columns(trace))


class TraceStore:
    """Atomic, content-addressed ``.npz`` store for compiled traces.

    Entries hold the seven base columns in their narrow dtypes, so a
    load is a read, a range check and no conversion, and one stored
    trace serves every cache-line geometry.

    Parameters
    ----------
    directory:
        Where entries live; created on first store.
    enabled:
        When False every load misses and every store is a no-op.
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        enabled: bool = True,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else DEFAULT_TRACE_DIR
        )
        self.enabled = enabled
        if enabled:
            # Crashed writers leave ``*.tmp`` siblings behind; reap the
            # stale ones (age-gated, so live writers are untouched).
            sweep_stale_tmp(self.directory)

    def key(self, payload: dict) -> str:
        """Content-address a JSON-serialisable trace identity payload.

        Raises :class:`~repro.errors.TraceError` for non-serialisable
        payloads: stringifying unknown values (``default=str``) would
        let two distinct trace identities with equal ``str()`` collide
        into one stored trace.
        """
        try:
            text = json.dumps(
                {"trace_version": COMPILED_TRACE_VERSION, **payload},
                sort_keys=True,
            )
        except (TypeError, ValueError) as exc:
            raise TraceError(
                f"trace identity payload is not JSON-serialisable ({exc}); "
                "convert values to JSON-native types before keying"
            ) from None
        return hashlib.sha1(text.encode()).hexdigest()[:20]

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def load(self, key: str) -> CompiledTrace | None:
        """The stored trace under ``key``, or None on a miss.

        A present-but-unusable entry counts as a miss and is logged,
        never raised: a truncated ``.npz`` (``zipfile.BadZipFile`` /
        ``EOFError``), bit-rotted bytes, missing columns, mismatched
        lengths or an out-of-range value all fall back to regeneration,
        because every entry is a pure function of its key's identity
        payload.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with np.load(path) as data:
                columns = tuple(data[name] for name in _BASE_COLUMNS)
            return from_columns(columns)
        except FileNotFoundError:
            return None
        except (
            OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile, TraceError
        ) as exc:
            logger.warning(
                "trace entry %s unusable (%s); treating as miss", path, exc
            )
            return None

    def store(self, key: str, trace: CompiledTrace) -> None:
        """Atomically persist ``trace``'s columns under ``key``."""
        if not self.enabled:
            return
        with atomic_write(self._path(key)) as handle:
            np.savez(handle, **trace.arrays)
