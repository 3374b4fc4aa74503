"""Persistent content-addressed store for experiment records.

The paper's evaluation (Tables 3-5, Figures 6-14) is built from large
replicated grids of independent runs, and re-generating a grid from
scratch every time is the single biggest cost of working with the
harness.  This module gives :func:`repro.experiments.parallel.execute`
(and everything above it: :func:`~repro.experiments.harness.run_batch`,
:func:`~repro.experiments.harness.run_third_party`, the CLI and the
benchmarks) a durable on-disk cache of finished runs, so a re-run loads
what exists, dispatches only the missing tasks, and appends the new
records — an interrupted grid resumes where it stopped.

Design, in the style of exploratory-modeling tooling such as tmip-emat's
experiment database:

* **Content-addressed keys.**  Every task is identified by the SHA-256
  of its *full* configuration: the qualified name of the task function,
  every keyword argument (dataset, method, N, seed, variant, grid
  position, ...), a store format version, and a fingerprint of the
  package's source code.  Identical configuration = identical key;
  any change = a different key.
* **Invalidation over staleness.**  The code fingerprint hashes every
  result-affecting module under :mod:`repro` (presentation-only modules
  are excluded, see :data:`FINGERPRINT_EXCLUDE`).  Editing an algorithm
  silently *misses* instead of silently returning stale records; old
  entries are simply never read again.
* **Atomic, concurrency-safe writes.**  A record is pickled to a
  temporary file in the store and published with :func:`os.replace`, so
  readers never observe a half-written record and concurrent writers of
  the same key (e.g. two ``jobs=N`` runs sharing a store) are harmless
  last-writer-wins with identical content.
* **Durability and self-verification.**  Record writes fsync the file
  and its directory before and after the rename (opt out with
  ``REDS_STORE_FSYNC=0``), and every record is stored inside an
  envelope carrying its own key.  On read, an entry that fails to
  unpickle *or* whose envelope key does not match is quarantined to
  ``corrupt/`` and treated as a miss — a torn write surviving a crash
  costs one recompute, never a wrong or half-read record.
* **Failure records.**  Retrying runs journal failed attempts
  under ``failures/<key[:2]>/<key>.json`` (attempt count, last error,
  quarantined flag) via :meth:`ExperimentStore.record_failure`, so a
  resumed run knows what was retried and which tasks exhausted their
  retries.  A later success clears the failure record.

A warm store must be invisible in the results: the records a store-backed
run returns are *identical*, field by field (runtime included, because
it is loaded, not re-measured), to the cold run that produced them.
``tests/test_store.py`` locks this down.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections.abc import Callable, Iterator
from functools import lru_cache
from pathlib import Path

from repro.experiments import faults

__all__ = [
    "ExperimentStore",
    "ExperimentStoreError",
    "open_store",
    "task_key",
    "code_fingerprint",
    "MISSING",
    "STORE_FORMAT",
    "FINGERPRINT_EXCLUDE",
]

#: On-disk layout version; bumping it invalidates every existing entry.
#: Format 2 wraps each record in a ``{"key": ..., "record": ...}``
#: envelope so reads verify they got the record they asked for.
STORE_FORMAT = 2

#: Modules (relative to the ``repro`` package root) whose source does
#: not influence experiment records: presentation, CLI plumbing, this
#: store itself, fault injection (whose contract is precisely that
#: it never changes records) and the warm-session layer (whose contract
#: is that warm state is a cache, never a semantic change).  Everything
#: else is part of the fingerprint.
FINGERPRINT_EXCLUDE = frozenset({
    "cli.py",
    "__main__.py",
    "experiments/store.py",
    "experiments/faults.py",
    "experiments/report.py",
    "experiments/session.py",
    "subgroup/describe.py",
})


def _fsync_enabled() -> bool:
    return os.environ.get("REDS_STORE_FSYNC", "1") != "0"


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _Missing:
    """Sentinel distinguishing "no record" from a stored ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MISSING"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`ExperimentStore.get` when a key has no record.
MISSING = _Missing()


class ExperimentStoreError(RuntimeError):
    """A store directory is unusable (unknown or corrupt format)."""


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the source of every result-affecting repro module.

    Returns
    -------
    str
        Hex digest covering the bytes of each ``.py`` file under the
        installed :mod:`repro` package, except :data:`FINGERPRINT_EXCLUDE`,
        in sorted path order.  Part of every task key, so any code edit
        that could change records invalidates the cache wholesale.
    """
    import repro

    package_root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if relative in FINGERPRINT_EXCLUDE:
            continue
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _canonical(obj):
    """JSON-stable form of a task kwargs value (tuples become lists)."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"task value {obj!r} of type {type(obj).__name__} is not "
        f"storable; keys must be built from JSON-compatible config only"
    )


def task_key(func: Callable | str, task: dict, *,
             fingerprint: str | None = None) -> str:
    """The content address of one task: hash of its full configuration.

    Parameters
    ----------
    func:
        The task function (or its qualified ``module.name`` string) —
        e.g. :func:`repro.experiments.harness.run_single`.
    task:
        The complete keyword arguments of the call, JSON-compatible
        scalars/lists/dicts only.
    fingerprint:
        Code fingerprint to mix in; defaults to :func:`code_fingerprint`.

    Returns
    -------
    str
        64-character hex SHA-256.  Stable across processes and runs for
        the same configuration and source tree.
    """
    name = func if isinstance(func, str) else (
        f"{func.__module__}.{func.__qualname__}")
    payload = json.dumps(
        {
            "format": STORE_FORMAT,
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
            "func": name,
            "task": _canonical(task),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ExperimentStore:
    """An on-disk, content-addressed map from task keys to records.

    Records live under ``root/<key[:2]>/<key>.pkl`` (two-character
    fan-out keeps directories small at paper scale: the full grid is
    33 functions x 12 methods x 50 repetitions = ~20k records).  A
    ``meta.json`` at the root pins the layout version.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if absent.
    fingerprint:
        Code fingerprint mixed into every key.  Defaults to
        :func:`code_fingerprint`; tests override it to simulate code
        changes.

    Attributes
    ----------
    hits, misses, writes : int
        Per-instance counters: records served from disk, lookups that
        found nothing, and records persisted.  The CLI and benchmarks
        report these so cache behaviour is visible, never silent.
    """

    def __init__(self, root: str | os.PathLike,
                 *, fingerprint: str | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fingerprint = (fingerprint if fingerprint is not None
                            else code_fingerprint())
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._check_meta()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _check_meta(self) -> None:
        meta_path = self.root / "meta.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (ValueError, OSError) as exc:
                raise ExperimentStoreError(
                    f"unreadable store metadata at {meta_path}") from exc
            if meta.get("format") != STORE_FORMAT:
                raise ExperimentStoreError(
                    f"store at {self.root} has format {meta.get('format')!r}, "
                    f"this code reads format {STORE_FORMAT}; "
                    f"use a fresh directory")
            return
        self._atomic_write(meta_path,
                           json.dumps({"format": STORE_FORMAT}).encode())

    def path_for(self, key: str) -> Path:
        """Where a key's record lives (whether or not it exists yet)."""
        return self.root / key[:2] / f"{key}.pkl"

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{path.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                if _fsync_enabled():
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            if _fsync_enabled():
                _fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def key(self, func: Callable | str, task: dict) -> str:
        """Content address of ``func(**task)`` under this store's code."""
        return task_key(func, task, fingerprint=self.fingerprint)

    def corrupt_path(self, key: str) -> Path:
        """Where a quarantined corrupt entry for ``key`` is parked."""
        return self.root / "corrupt" / key[:2] / f"{key}.pkl"

    def quarantine(self, key: str) -> Path | None:
        """Move a bad record file to ``corrupt/`` and report where.

        The original path becomes a clean miss (the task recomputes);
        the damaged bytes are preserved for post-mortem instead of being
        destroyed.  Returns ``None`` when there was nothing to move.
        """
        src = self.path_for(key)
        dst = self.corrupt_path(key)
        try:
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.replace(src, dst)
        except OSError:
            try:
                src.unlink()
            except OSError:
                pass
            return None
        return dst

    def get(self, key: str, default=MISSING):
        """The stored record for ``key``, or ``default`` if absent.

        A corrupt entry — one that fails to unpickle (e.g. a torn write
        that survived a crash) or whose envelope key does not match the
        key asked for — is treated as a miss and quarantined to
        ``corrupt/``, so the task simply recomputes.  A transient I/O
        failure (permissions, fd exhaustion) is a plain miss: the entry
        is left alone — it may be perfectly valid.
        """
        path = self.path_for(key)
        try:
            handle = open(path, "rb")
        except OSError:  # absent, or transiently unreadable
            self.misses += 1
            return default
        try:
            with handle:
                envelope = pickle.load(handle)
        except OSError:  # read failed mid-load; do not assume corruption
            self.misses += 1
            return default
        except (pickle.UnpicklingError, ValueError, EOFError,
                AttributeError, ImportError, IndexError):
            self.misses += 1
            self.quarantine(key)
            return default
        if (not isinstance(envelope, dict) or envelope.get("key") != key
                or "record" not in envelope):
            # Readable pickle, wrong content: key verification failed.
            self.misses += 1
            self.quarantine(key)
            return default
        self.hits += 1
        return envelope["record"]

    def put(self, key: str, record) -> None:
        """Persist ``record`` under ``key`` (atomic publish via rename).

        The record is wrapped in a ``{"key": ..., "record": ...}``
        envelope so :meth:`get` can verify it reads back the record it
        asked for.  Under an active fault plan the ``store_write_torn``
        injection point truncates the payload (still atomically renamed
        into place) to simulate a torn write surviving a crash.
        """
        payload = pickle.dumps({"key": key, "record": record},
                               protocol=pickle.HIGHEST_PROTOCOL)
        if faults.check("store_write_torn", key):
            payload = payload[: max(1, len(payload) // 2)]
        self._atomic_write(self.path_for(key), payload)
        self.writes += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Failure records (retry forensics)
    # ------------------------------------------------------------------
    def failure_path(self, key: str) -> Path:
        """Where a key's failure record lives (whether or not it exists)."""
        return self.root / "failures" / key[:2] / f"{key}.json"

    def record_failure(self, key: str, *, attempts: int, error: str,
                       quarantined: bool) -> None:
        """Journal a failed attempt for ``key`` (atomic, JSON).

        Written by the dispatching process after every failed attempt;
        ``quarantined=True`` marks the task as having exhausted its
        retry budget for this run.  The record is plain JSON so humans
        can read it without unpickling anything.
        """
        payload = json.dumps(
            {"key": key, "attempts": int(attempts), "error": str(error),
             "quarantined": bool(quarantined), "time": time.time()},
            sort_keys=True).encode()
        self._atomic_write(self.failure_path(key), payload)

    def failure_for(self, key: str) -> dict | None:
        """The journalled failure record for ``key``, or ``None``."""
        try:
            data = json.loads(self.failure_path(key).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def clear_failure(self, key: str) -> None:
        """Forget ``key``'s failure record (called after a success)."""
        try:
            self.failure_path(key).unlink()
        except OSError:
            pass

    def keys(self) -> Iterator[str]:
        """All stored keys (order unspecified)."""
        for path in self.root.glob("??/*.pkl"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExperimentStore({str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"writes={self.writes})")


def open_store(store: "ExperimentStore | str | os.PathLike | None",
               ) -> "ExperimentStore | None":
    """Coerce a user-facing ``store=`` argument to an ExperimentStore.

    Accepts an existing store (returned as-is), a directory path (a
    store is opened there), or ``None`` (no caching; returns ``None``).
    Every layer of the harness funnels its ``store=`` argument through
    this, so callers can pass a plain path string everywhere.
    """
    if store is None or isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store)
