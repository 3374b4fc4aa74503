"""Shared-memory data plane: publish arrays once, map them zero-copy.

The execution plans of :mod:`repro.experiments.parallel` ship large
read-only arrays (test samples, query matrices, CV datasets) to worker
processes.  Before this module existed every worker either regenerated
the arrays from scratch (the ``get_test_data`` warmup) or received a
pickled copy inside each task's kwargs — both scale with the worker
count, not with the data.  The data plane materializes each array
**once** in the parent, places it in a POSIX shared-memory segment
(:mod:`multiprocessing.shared_memory`), and hands workers a tiny
picklable :class:`ArrayRef` that maps the segment read-only into their
address space without copying a byte.

Design:

* **Content-addressed refs.**  Every published array is identified by a
  key — by default the SHA-256 of its dtype, shape and bytes
  (:func:`content_key`) — so publishing the same content twice through
  one :class:`DataPlane` reuses the existing segment, and the addressing
  scheme composes with the content-addressed experiment store of
  :mod:`repro.experiments.store` (both layers name immutable values by
  their content, never by their position in a run).
* **Inline fallback, also on failure.**  When shared memory is
  unavailable (exotic platforms, ``REDS_DATAPLANE=0``, or a segment
  allocation failing at runtime — ``/dev/shm`` full, permissions, an
  injected ``shm_publish_fail`` fault) refs simply carry the array
  inline; everything still works, workers just pay the pickling cost
  the plane exists to avoid.  Publishing degrades with a logged
  warning, it never crashes a run.
* **Deterministic teardown.**  :meth:`DataPlane.unlink` removes every
  segment name on both clean and exceptional exits (the executors call
  it from ``finally`` blocks) and an ``atexit`` hook sweeps anything a
  crashed caller left behind, so no run leaks ``/dev/shm`` entries.
  Segments leaked by a *SIGKILLed* prior run (no atexit ran) can be
  collected at startup by :func:`sweep_orphan_segments`: segment names
  embed the creating pid, so anything whose creator is no longer alive
  is an orphan.  The sweep is opt-in via ``REDS_DATAPLANE_SWEEP=1``
  because pid liveness is a heuristic (pids recycle).
* **Resident segments under a warm session.**  While a session is
  open (:func:`session_active`) planes publish through a process-wide
  registry, a :class:`repro.warm.WarmCache` keyed by content: the first
  publish of a key creates the segment, every later publish from any
  plan reuses it, and :meth:`DataPlane.unlink` leaves it alone.  That
  also keeps pool-context signatures stable for the warm pool cache of
  :mod:`repro.experiments.parallel`.  :func:`shutdown_resident` — run
  when the session closes and at interpreter exit — unlinks them all,
  so a closed session leaves zero ``/dev/shm`` entries behind.

Worker-side attaches are cached per process and unregistered from the
``multiprocessing`` resource tracker: on Python < 3.13 an attaching
process registers the segment a second time, and the tracker would
otherwise unlink it prematurely (and warn) when that worker exits while
the parent still owns the segment.
"""

from __future__ import annotations

import atexit
import hashlib
import logging
import os
import secrets
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import warm
from repro.experiments import faults

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover
    _shm_module = None

__all__ = [
    "ArrayRef",
    "DataPlane",
    "content_key",
    "dataplane_enabled",
    "session_active",
    "resolve_refs",
    "active_segments",
    "resident_stats",
    "reset_resident_stats",
    "resident_segment_names",
    "shutdown_resident",
    "sweep_orphan_segments",
]

logger = logging.getLogger(__name__)

#: Prefix of every segment name this module creates; tests (and humans
#: inspecting /dev/shm) can recognise data-plane segments by it.
SEGMENT_PREFIX = "reds-dp-"


def dataplane_enabled() -> bool:
    """Whether refs may use shared memory (``REDS_DATAPLANE=0`` opts out)."""
    return _shm_module is not None and \
        os.environ.get("REDS_DATAPLANE", "1") != "0"


def session_active() -> bool:
    """Whether a warm session is open in this process (the scope of
    :mod:`repro.warm`, which pool workers inherit through their
    bootstrap arguments).  Off means the one-shot semantics every
    pre-session test pins."""
    return warm.active()


def content_key(array: np.ndarray) -> str:
    """SHA-256 content address of an array (dtype, shape and bytes).

    Identical content gives identical keys across processes and runs,
    mirroring the task-key scheme of the experiment store.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


#: Per-process cache of attached segments: name -> (SharedMemory, view).
#: Parent publishes seed their own entries, workers fill theirs on first
#: resolve, so every process maps each segment at most once.
_ATTACHED: dict[str, tuple[object, np.ndarray]] = {}


def _attach_segment(name: str, shape: tuple, dtype: str) -> np.ndarray:
    """Map a named segment read-only, caching the handle for this process."""
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    if _shm_module is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("shared memory is unavailable on this platform")
    segment = _shm_module.SharedMemory(name=name)
    try:
        # Attaching registers the segment with the resource tracker a
        # second time (bpo-38119); without this unregister the tracker
        # would unlink the parent's segment when this worker exits.
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    view.setflags(write=False)
    _ATTACHED[name] = (segment, view)
    return view


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to one published array.

    ``segment`` names the shared-memory block holding the data; when it
    is ``None`` the ref is an inline fallback and ``data`` carries the
    array itself (so refs always resolve, with or without a plane).
    """

    key: str
    shape: tuple
    dtype: str
    segment: str | None = None
    data: np.ndarray | None = field(default=None, compare=False, repr=False)

    def resolve(self) -> np.ndarray:
        """The referenced array, read-only; zero-copy when shm-backed."""
        if self.segment is None:
            if self.data is None:
                raise ValueError(f"ref {self.key[:12]} has neither a "
                                 f"segment nor inline data")
            return self.data
        return _attach_segment(self.segment, self.shape, self.dtype)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)
                   * np.dtype(self.dtype).itemsize)


#: Live planes, swept by the atexit hook so interpreter shutdown unlinks
#: whatever an aborted caller did not.
_PLANES: "weakref.WeakSet[DataPlane]" = weakref.WeakSet()


# ----------------------------------------------------------------------
# Resident segment registry (warm sessions)
# ----------------------------------------------------------------------

def _release_segment(name: str, handle) -> None:
    """Unlink and close one segment this process created.

    Unlinking removes the name immediately (no new process can attach)
    while existing mappings stay valid until each process drops them,
    so in-flight readers are never invalidated.
    """
    _ATTACHED.pop(name, None)
    try:
        handle.unlink()
    except OSError:
        pass
    try:
        handle.close()
    except BufferError:
        # A caller still holds a resolved view; the mapping stays valid
        # and process exit reclaims it.
        pass
    except OSError:  # pragma: no cover - platform specific
        pass


#: Content key -> ``(ref, SharedMemory handle)`` of every resident
#: segment.  Entries outlive the planes that published them; only
#: :func:`shutdown_resident` (or the scope teardown) unlinks them.
_RESIDENT = warm.WarmCache(
    on_evict=lambda entry: _release_segment(entry[0].segment, entry[1]))


def resident_stats() -> dict[str, int]:
    """Registry counters: segments ``published`` (created), publishes
    served from residency (``reused``), and currently ``resident``."""
    stats = _RESIDENT.stats()
    return {"published": stats["misses"], "reused": stats["hits"],
            "resident": stats["size"]}


def reset_resident_stats() -> None:
    """Zero the published/reused counters (tests and benchmarks)."""
    _RESIDENT.reset_counters()


def resident_segment_names() -> list[str]:
    """Names of the live resident segments (empty after
    :func:`shutdown_resident`; the zero-leak assertions read this)."""
    return [ref.segment for ref, _ in _RESIDENT.values()]


def shutdown_resident() -> list[str]:
    """Unlink every resident segment and empty the registry.

    Called by session teardown and at interpreter exit, so a warm
    session — however it ends — leaves zero ``/dev/shm`` entries
    behind.  Idempotent; returns the names of the segments that were
    removed.  Publishes after a shutdown simply repopulate the registry
    (a new session starts cold).
    """
    return [ref.segment for ref, _ in _RESIDENT.clear()]


class DataPlane:
    """Parent-side broker of shared-memory segments for one plan.

    Publish arrays before dispatching work, pass the returned refs
    (inside task kwargs or the plan context) to workers, and call
    :meth:`unlink` when the plan finishes — the executors do this in
    ``finally`` blocks so segments never outlive their plan, poisoned
    tasks included.

    A plane built while a session is open (:func:`session_active`)
    publishes through the process-wide segment registry instead: arrays
    already resident are reused (same segment name, hence byte-identical
    refs across plans), new ones are created in the registry, and
    :meth:`unlink` leaves them alone — they live until
    :func:`shutdown_resident`.
    """

    def __init__(self) -> None:
        self._segments: dict[str, ArrayRef] = {}
        self._handles: dict[str, object] = {}
        self._resident = session_active()
        self._unlinked = False
        _PLANES.add(self)
        global _SWEPT
        if not _SWEPT and os.environ.get("REDS_DATAPLANE_SWEEP", "") == "1":
            _SWEPT = True
            sweep_orphan_segments(force=True)

    # ------------------------------------------------------------------
    def _inline_ref(self, array: np.ndarray, key: str) -> ArrayRef:
        data = array.copy()
        data.setflags(write=False)
        ref = ArrayRef(key=key, shape=array.shape,
                       dtype=array.dtype.str, data=data)
        self._segments[key] = ref
        return ref

    def _allocate(self, array: np.ndarray,
                  key: str) -> tuple[ArrayRef, object] | None:
        """Create one shm segment for ``array``: ``(ref, handle)``.

        Returns ``None`` when allocation fails (``/dev/shm`` full,
        permissions, an injected ``shm_publish_fail``) — the caller
        degrades to an inline ref.  The parent's attach cache is seated
        so in-process resolves reuse this mapping for free.
        """
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(6)}"
        try:
            faults.maybe_inject("shm_publish_fail", key)
            segment = _shm_module.SharedMemory(
                create=True, size=max(array.nbytes, 1), name=name)
        except (faults.InjectedFault, OSError) as exc:
            logger.warning(
                "shared-memory publish failed for %s (%s); degrading to an "
                "inline ref", key[:12], exc)
            return None
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        view.setflags(write=False)
        ref = ArrayRef(key=key, shape=array.shape,
                       dtype=array.dtype.str, segment=name)
        _ATTACHED[name] = (segment, view)
        return ref, segment

    def _publish_resident(self, array: np.ndarray, key: str) -> ArrayRef:
        """Publish through the process-wide registry (warm sessions).

        A key already resident is reused — same segment, same ref bytes
        across plans; a new key allocates a segment owned by the
        *registry* (not this plane), so it outlives the plan and every
        later publish of the same content is free.  Concurrent
        publishers of one key share one allocation.  Allocation failure
        degrades to a plane-local inline ref exactly like the one-shot
        path (degraded publishes are not cached: a transient failure
        should not pin an inline copy for the whole session).
        """
        entry = _RESIDENT.get_or_create(key,
                                        lambda: self._allocate(array, key))
        if entry is None:
            return self._inline_ref(array, key)
        self._segments[key] = entry[0]
        return entry[0]

    def publish(self, array: np.ndarray, key: str | None = None) -> ArrayRef:
        """Place ``array`` in shared memory and return its ref.

        ``key`` defaults to :func:`content_key`; publishing a key this
        plane already holds returns the existing ref without touching
        the data (content addressing makes that safe).  With shared
        memory disabled — or when allocating the segment fails — the
        ref carries a read-only copy inline: publishing degrades, it
        never raises for lack of shared memory.  A resident plane
        consults the process-wide registry first (see
        :meth:`_publish_resident`).
        """
        if self._unlinked:
            raise RuntimeError("this data plane has been unlinked")
        array = np.ascontiguousarray(array)
        if key is None:
            key = content_key(array)
        existing = self._segments.get(key)
        if existing is not None:
            return existing
        if not dataplane_enabled():
            return self._inline_ref(array, key)
        if self._resident:
            return self._publish_resident(array, key)
        allocated = self._allocate(array, key)
        if allocated is None:
            return self._inline_ref(array, key)
        ref, segment = allocated
        self._segments[key] = ref
        self._handles[ref.segment] = segment
        return ref

    def refs(self) -> dict[str, ArrayRef]:
        """All published refs, by content key."""
        return dict(self._segments)

    def segment_names(self) -> list[str]:
        """Names of the live segments this plane owns."""
        return [] if self._unlinked else list(self._handles)

    # ------------------------------------------------------------------
    def unlink(self) -> None:
        """Remove every segment name this plane owns; idempotent, safe
        mid-failure (see :func:`_release_segment`).  Resident segments
        are the registry's, not this plane's: they stay so the next
        plan's publish is free.
        """
        if self._unlinked:
            return
        self._unlinked = True
        for name, segment in self._handles.items():
            _release_segment(name, segment)
        self._handles.clear()
        self._segments.clear()

    def __enter__(self) -> "DataPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.unlink()
        except Exception:
            pass


#: Where POSIX shared memory shows up as files (Linux); the orphan sweep
#: is a no-op on platforms without it.
_SHM_ROOT = Path("/dev/shm")

#: One sweep per process is enough; reset by tests.
_SWEPT = False


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # Pid exists but we may not signal it (or the probe failed):
        # err on the side of "alive" — never sweep a live run's data.
        return True
    return True


def sweep_orphan_segments(*, force: bool = False) -> list[str]:
    """Unlink data-plane segments whose creating process is dead.

    Segment names embed the creator's pid
    (``reds-dp-<pid>-<token>``); any segment under ``/dev/shm`` whose
    pid no longer maps to a live process was leaked by a crashed or
    SIGKILLed run — ``atexit`` never fired there — and is removed.
    Segments of live processes (including this one) are never touched.

    Gated by ``REDS_DATAPLANE_SWEEP=1`` unless ``force`` is given,
    because pid liveness is a heuristic: a recycled pid makes a true
    orphan look alive (it is then swept by a later run instead).

    Returns
    -------
    list of str
        The names of the segments that were removed.
    """
    if not force and os.environ.get("REDS_DATAPLANE_SWEEP", "") != "1":
        return []
    if not _SHM_ROOT.is_dir():  # pragma: no cover - non-Linux
        return []
    removed: list[str] = []
    try:
        entries = list(_SHM_ROOT.iterdir())
    except OSError:  # pragma: no cover - /dev/shm unreadable
        return []
    for entry in entries:
        name = entry.name
        if not name.startswith(SEGMENT_PREFIX):
            continue
        pid_text = name[len(SEGMENT_PREFIX):].split("-", 1)[0]
        if not pid_text.isdigit():
            continue
        pid = int(pid_text)
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            entry.unlink()
        except OSError:
            continue
        removed.append(name)
    if removed:
        logger.warning("swept %d orphan shared-memory segment(s) left by "
                       "dead processes: %s", len(removed),
                       ", ".join(sorted(removed)))
    return removed


def active_segments() -> list[str]:
    """Segment names of every live (not yet unlinked) plane in this
    process — empty after clean teardown; tests assert on this."""
    names: list[str] = []
    for plane in list(_PLANES):
        names.extend(plane.segment_names())
    return names


@atexit.register
def _sweep_planes() -> None:  # pragma: no cover - interpreter shutdown
    for plane in list(_PLANES):
        try:
            plane.unlink()
        except Exception:
            pass


def resolve_refs(obj):
    """Replace every :class:`ArrayRef` in a nested structure by its array.

    Dicts, lists and tuples are traversed (rebuilt only when something
    inside actually changed); everything else passes through untouched.
    Used on plan contexts at worker bootstrap and by the serial executor.
    """
    if isinstance(obj, ArrayRef):
        return obj.resolve()
    if isinstance(obj, dict):
        return {k: resolve_refs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(resolve_refs(v) for v in obj)
    return obj
