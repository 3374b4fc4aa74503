"""Warm caches: one bounded LRU primitive and the scope that owns them.

Everything a :class:`~repro.experiments.session.Session` keeps warm —
cached worker pools, resident shared-memory segments, memoized
metamodel fits, drawn pools, pool labels and pool column indexes,
generated training sets — is a
:class:`WarmCache`: an LRU map with exclusive checkout (``pop``), an
``on_evict`` callback, single-flight ``get_or_create``, hit/miss
counters and a cap counted in entries or in a per-value weight.

**The scope.**  :func:`enter`/:func:`leave` are refcounted; while the
depth is positive :func:`active` is true and the caches' owners fill
them.  The last :func:`leave` clears every cache.
Pool workers learn the scope from their pool's bootstrap arguments, so
spawn and forkserver children see it as forked ones do.

**Processes.**  One ``os.register_at_fork`` hook resets every instance
in a forked child: empty entries, fresh locks, zeroed counters.  The
parent's entries are abandoned, not evicted — their pools and segments
belong to the parent — and the scope depth survives.  A cache filled in
a ``multiprocessing`` child arms one ``multiprocessing.util.Finalize``
hook that clears every cache at worker exit (``atexit`` never runs
there); in the main process ``atexit`` does the same.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable
from multiprocessing import util as mp_util

__all__ = ["WarmCache", "active", "clear_all", "enter", "leave",
           "reset_counters"]

_CACHES: "weakref.WeakSet[WarmCache]" = weakref.WeakSet()
_SCOPE_LOCK = threading.Lock()
_DEPTH = 0
_FINALIZER_ARMED = False


class WarmCache:
    """A thread-safe LRU map whose entries weigh at most ``cap`` in total
    (``None``: no cap).

    Each entry weighs ``weight(value)``, or 1 without ``weight``, so by
    default ``cap`` counts entries.  A value heavier than ``cap`` on its
    own is never stored: it leaves through the cap as it arrives.
    ``on_evict(value)`` runs, outside the lock, for every value that
    leaves through the cap, a replaced key or :meth:`clear` — never for
    a value checked out with :meth:`pop`.
    """

    def __init__(self, cap: int | None = None,
                 on_evict: Callable[[object], None] | None = None,
                 weight: Callable[[object], int] | None = None) -> None:
        self.cap = cap
        self._on_evict = on_evict
        self._weight = weight
        self._reset()
        _CACHES.add(self)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._weights: dict[Hashable, int] = {}
        self._held = 0
        self._inflight: dict[Hashable, threading.Event] = {}
        self._counters = {"hits": 0, "misses": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> list:
        """A snapshot of the cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def get(self, key: Hashable, default=None):
        """The value under ``key`` (now most recently used), or ``default``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._counters["hits"] += 1
                return self._entries[key]
            self._counters["misses"] += 1
            return default

    def peek(self, key: Hashable, default=None):
        """As :meth:`get`, but counting nothing: for owners that count
        their own outcomes with :meth:`count`."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            return default

    def _take(self, key: Hashable):
        """Remove the entry under ``key`` (held lock); returns its value."""
        self._held -= self._weights.pop(key)
        return self._entries.pop(key)

    def pop(self, key: Hashable, default=None):
        """Check the value under ``key`` out of the cache, or ``default``."""
        with self._lock:
            if key in self._entries:
                self._counters["hits"] += 1
                return self._take(key)
            self._counters["misses"] += 1
            return default

    def _store(self, key: Hashable, value) -> list:
        """Insert under the held lock; returns the values to evict."""
        _arm_child_finalizer()
        weight = 1 if self._weight is None else self._weight(value)
        if self.cap is not None and weight > self.cap:
            return [value]
        evicted = []
        if key in self._entries:
            old = self._take(key)
            if old is not value:
                evicted.append(old)
        self._entries[key] = value
        self._weights[key] = weight
        self._held += weight
        while self.cap is not None and self._held > self.cap:
            evicted.append(self._take(next(iter(self._entries))))
        return evicted

    def _evict(self, values: list) -> None:
        if self._on_evict is not None:
            for value in values:
                self._on_evict(value)

    def put(self, key: Hashable, value) -> None:
        """Insert ``value`` as most recently used, evicting over the cap."""
        with self._lock:
            evicted = self._store(key, value)
        self._evict(evicted)

    def get_or_create(self, key: Hashable, create: Callable[[], object]):
        """The value under ``key``, calling ``create()`` at most once for it.

        Concurrent callers of a missing key wait for the one running
        ``create``; if it raises, one waiter runs ``create`` in its
        place.  A ``create`` that returns ``None`` caches nothing (and
        counts no miss): the caller gets ``None`` back.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._counters["hits"] += 1
                    return self._entries[key]
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    break
            event.wait()
        evicted: list = []
        try:
            value = create()
            with self._lock:
                if value is not None:
                    self._counters["misses"] += 1
                    evicted = self._store(key, value)
        finally:
            with self._lock:
                self._inflight.pop(key).set()
        self._evict(evicted)
        return value

    def clear(self) -> list:
        """Empty the cache, evicting every value; returns them (LRU first)."""
        with self._lock:
            values = list(self._entries.values())
            self._entries.clear()
            self._weights.clear()
            self._held = 0
        self._evict(values)
        return values

    def count(self, name: str, n: int = 1) -> None:
        """Bump the owner-defined counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def stats(self) -> dict[str, int]:
        """Every counter plus the current ``size`` (and, for a weighted
        cache, the ``weight`` it holds)."""
        with self._lock:
            stats = {**self._counters, "size": len(self._entries)}
            if self._weight is not None:
                stats["weight"] = self._held
            return stats

    def reset_counters(self) -> None:
        """Zero every counter (entries are untouched)."""
        with self._lock:
            self._counters = dict.fromkeys(self._counters, 0)


def clear_all() -> None:
    """Clear every live cache."""
    for cache in list(_CACHES):
        cache.clear()


def reset_counters() -> None:
    """Zero every live cache's counters (entries are untouched)."""
    for cache in list(_CACHES):
        cache.reset_counters()


def active() -> bool:
    """Whether a warm scope (an open session) is active in this process."""
    return _DEPTH > 0


def enter() -> None:
    """Open one level of the warm scope."""
    global _DEPTH
    with _SCOPE_LOCK:
        _DEPTH += 1


def leave() -> None:
    """Close one level; the last close clears every cache.  Idempotent
    at depth zero."""
    global _DEPTH
    with _SCOPE_LOCK:
        if _DEPTH == 0:
            return
        _DEPTH -= 1
        if _DEPTH:
            return
    # Outside the scope lock: pool shutdown waits for workers and
    # segment unlinking touches /dev/shm.
    clear_all()


def _arm_child_finalizer() -> None:
    """In a ``multiprocessing`` child, clear every cache at worker exit."""
    global _FINALIZER_ARMED
    if _FINALIZER_ARMED:
        return
    _FINALIZER_ARMED = True
    if multiprocessing.parent_process() is not None:
        mp_util.Finalize(None, clear_all, exitpriority=10)


def _reset_after_fork() -> None:
    # The inherited locks may have been held mid-fork, and inherited
    # in-flight events would never be set here.  The entries are
    # abandoned, not evicted: their pools and segments are the parent's.
    # The finalizer flag resets so the child arms its own exit hook.
    global _SCOPE_LOCK, _FINALIZER_ARMED
    _SCOPE_LOCK = threading.Lock()
    _FINALIZER_ARMED = False
    for cache in list(_CACHES):
        cache._reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_reset_after_fork)

atexit.register(clear_all)
