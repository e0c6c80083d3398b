"""Shared-memory views of compiled-trace base columns.

The process sweep backend used to hand every worker its own copy of
each trace: workers either re-read and re-checksummed the ``.npz`` store
or regenerated the workload outright, and at sweep granularity that
marshalling tax dominated the actual simulation work.  This module
publishes the seven base columns of a compiled trace, in their narrow
dtypes (:data:`~repro.uarch.compiled_trace.COLUMNS`), in one
:class:`multiprocessing.shared_memory.SharedMemory` block per trace so
every worker on the host maps the same read-only pages instead.

Lifecycle
---------
The orchestrator is the **owner**: before starting a process pool it
:func:`export_columns` one segment per unique trace in the sweep,
ships the descriptors to workers through the pool initializer, and
:func:`unlink_exported` in a ``finally`` when the sweep ends — crashed
or cancelled sweeps are covered by an ``atexit`` guard registered at
first export.  Workers :func:`install_shared_traces` from the
descriptors; :func:`repro.sim.engine.compiled_trace_for` then consults
:func:`shared_columns` before the disk store, so a shared trace costs
one ``mmap`` instead of one rebuild.  Attach failures are logged and
non-fatal — the worker simply falls back to the disk/generate path,
which produces byte-identical columns.

POSIX notes
-----------
CPython's ``shared_memory`` registers a segment with the
``resource_tracker`` on *attach* as well as on create (bpo-39959), so a
worker exiting would spuriously unlink a segment the owner still
serves.  :meth:`SharedTraceSegment.attach` therefore suppresses the
tracker registration for the duration of the attach (see its
docstring for why unregistering afterwards is wrong both ways).
Owner-side ``unlink`` while workers are still attached is safe on
POSIX: the name disappears but mappings survive until every holder
closes.
"""

from __future__ import annotations

import atexit
import logging
import os

import numpy as np

from repro.uarch.compiled_trace import _BASE_COLUMNS, narrow_columns

logger = logging.getLogger(__name__)

#: Alignment of each column inside a segment.  int64 columns need 8;
#: aligning every column keeps the layout future-proof and free.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedTraceSegment:
    """One trace's base columns in one shared-memory block.

    Created by the sweep owner (:meth:`create`) or mapped by a worker
    (:meth:`attach`); either way :meth:`columns` yields read-only numpy
    views directly over the shared pages.  The instance must stay alive
    as long as any of those views is in use — the module registries
    below hold them for exactly that reason.
    """

    def __init__(self, shm, key: str, layout: list, owner: bool) -> None:
        self._shm = shm
        self.key = key
        self.layout = layout
        self.owner = owner
        self.unlinked = False

    @classmethod
    def create(cls, key: str, columns) -> "SharedTraceSegment":
        """Pack ``columns`` (the seven base columns) into a new segment.

        Each column is range-checked and stored in its narrow dtype
        (:func:`~repro.uarch.compiled_trace.narrow_columns`).
        """
        from multiprocessing import shared_memory

        arrays = [np.ascontiguousarray(col) for col in narrow_columns(columns)]
        layout = []
        offset = 0
        for name, arr in zip(_BASE_COLUMNS, arrays):
            offset = _aligned(offset)
            layout.append((name, arr.dtype.str, int(arr.shape[0]), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for arr, (_, _, length, off) in zip(arrays, layout):
            view = np.ndarray(length, dtype=arr.dtype, buffer=shm.buf, offset=off)
            view[:] = arr
        return cls(shm, key, layout, owner=True)

    def descriptor(self) -> dict:
        """The picklable handle a worker needs to :meth:`attach`."""
        return {"key": self.key, "name": self._shm.name, "layout": self.layout}

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedTraceSegment":
        """Map an owner's segment from its :meth:`descriptor`.

        CPython registers attached segments with the resource tracker
        too (bpo-39959), which is wrong both ways: with a tracker
        shared with the owner, unregistering afterwards would drop the
        *owner's* entry (tracker bookkeeping is a set, not a
        refcount); with a private tracker, leaving it registered would
        unlink a segment the owner still serves when this worker
        exits.  Suppressing registration during the attach sidesteps
        both — Python 3.13's ``track=False`` does the same thing.
        """
        from multiprocessing import resource_tracker, shared_memory

        original = resource_tracker.register

        def quiet(name, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = quiet
        try:
            shm = shared_memory.SharedMemory(name=descriptor["name"])
        finally:
            resource_tracker.register = original
        return cls(shm, descriptor["key"], list(descriptor["layout"]), owner=False)

    def columns(self) -> tuple:
        """Read-only views of the base columns, in catalog order."""
        out = []
        for name, dtype, length, offset in self.layout:
            view = np.ndarray(
                length, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
            )
            view.flags.writeable = False
            out.append(view)
        return tuple(out)

    @property
    def name(self) -> str:
        """The OS-level segment name (``/dev/shm/<name>`` on Linux)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Total shared bytes."""
        return self._shm.size

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views still alive
            # Live numpy views pin the mapping; the registries only
            # close after dropping theirs, so this is a caller leak —
            # prefer leaving the mapping to crashing the process.
            logger.warning("shared trace %s still has live views", self.key)

    def unlink(self) -> None:
        """Remove the segment name (owner only; idempotent)."""
        if self.unlinked:
            return
        self.unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


#: Owner-side segments, by trace store key.
_EXPORTED: dict[str, SharedTraceSegment] = {}
#: Worker-side attached segments, by trace store key.
_ATTACHED: dict[str, SharedTraceSegment] = {}
_GUARD_INSTALLED = False
_GUARD_PID: int | None = None


def _cleanup_exported() -> None:
    """``atexit`` guard: no sweep crash may leak ``/dev/shm`` segments.

    PID-guarded: only the process that exported the segments may
    unlink them, so a forked child inheriting ``_EXPORTED`` can never
    tear down names its parent still serves.
    """
    if _GUARD_PID == os.getpid():
        unlink_exported()


def export_columns(key: str, columns) -> dict:
    """Publish ``columns`` under ``key`` (owner side); returns descriptor.

    Idempotent per key: repeated exports of one trace reuse the
    existing segment.
    """
    global _GUARD_INSTALLED, _GUARD_PID
    segment = _EXPORTED.get(key)
    if segment is None:
        segment = SharedTraceSegment.create(key, columns)
        _EXPORTED[key] = segment
        if not _GUARD_INSTALLED:
            atexit.register(_cleanup_exported)
            _GUARD_INSTALLED = True
            _GUARD_PID = os.getpid()
        logger.debug(
            "exported shared trace %s (%d bytes as %s)",
            key,
            segment.nbytes,
            segment.name,
        )
    return segment.descriptor()


def exported_descriptors() -> list[dict]:
    """Descriptors of every currently exported segment."""
    return [segment.descriptor() for segment in _EXPORTED.values()]


def unlink_exported(keys=None) -> None:
    """Unlink (and forget) owner-side segments; all of them by default."""
    for key in list(_EXPORTED) if keys is None else list(keys):
        segment = _EXPORTED.pop(key, None)
        if segment is not None:
            segment.unlink()
            segment.close()


def install_shared_traces(descriptors) -> int:
    """Attach a batch of descriptors (worker side); returns attach count.

    A failed attach — stale name, exhausted ``/dev/shm``, platform
    without POSIX shared memory — logs a warning and is skipped; the
    worker falls back to building that trace locally, which is slower
    but byte-identical.
    """
    attached = 0
    for descriptor in descriptors or ():
        key = descriptor.get("key")
        # Forked pool workers inherit the owner's exports wholesale —
        # the pages are already mapped, so attaching again would only
        # duplicate the mapping.
        if not key or key in _ATTACHED or key in _EXPORTED:
            continue
        try:
            _ATTACHED[key] = SharedTraceSegment.attach(descriptor)
            attached += 1
        except Exception as exc:
            logger.warning(
                "shared trace %s attach failed (%s); falling back to local build",
                key,
                exc,
            )
    return attached


def shared_columns(key: str):
    """The attached (or owned) base columns for ``key``, or None.

    Owner processes resolve their own exports too, so the serial leg of
    a mixed sweep and in-process pool workers (fork start method before
    the initializer runs) see the same data source.
    """
    segment = _ATTACHED.get(key) or _EXPORTED.get(key)
    if segment is None:
        return None
    return segment.columns()


def detach_all() -> None:
    """Drop every worker-side attachment (testing/teardown hook)."""
    for key in list(_ATTACHED):
        segment = _ATTACHED.pop(key)
        segment.close()


def emergency_cleanup() -> None:
    """Interrupt-time teardown: unlink every export, drop every attach.

    The CLI's Ctrl-C boundary calls this *synchronously* before
    exiting: the ``atexit`` guard is only a backstop (it never runs
    when the process dies to an unhandled signal or ``os._exit``), and
    a long-lived parent process — a shell loop, a campaign driver —
    must not accumulate ``/dev/shm`` segments across interrupted
    sweeps.  Safe to call at any time, in any process role, repeatedly:
    owners unlink their segments, workers merely close their mappings.
    """
    unlink_exported()
    detach_all()
