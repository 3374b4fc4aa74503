"""Warm execution sessions: discovery as queries against resident state.

One-shot invocations pay four fixed costs per call: interpreter start,
worker-pool spawn, data publication, and the metamodel fit.  A
:class:`Session` keeps the last three warm across calls.  It is a
**lifetime scope**, not a mode: it holds the refcounted warm scope of
:mod:`repro.warm` open, and while it is open four bounded caches, all
instances of the one :class:`repro.warm.WarmCache` primitive, fill:

* **worker pools** keyed by ``(workers, lease, plan-context
  signature)`` survive across ``execute()``/``run_chunked`` calls,
  nested chunked fan-out included (:mod:`repro.experiments.parallel`);
* **resident segments**: arrays published once by content key are
  reused by every later plan (:mod:`repro.experiments.dataplane`);
* **metamodel fits**: :func:`repro.core.reds.fit_metamodel` returns the
  same fitted object for identical ``(kind, tune, engine, x, y)``,
  keyed by the store's task-key discipline (config + source
  fingerprint + data content);
* **training sets** from :func:`repro.experiments.harness.make_train_data`.

Warm state is a **cache, never a semantic change**: every result is
bit-identical to the one-shot path at every engine/executor/jobs
setting.

Lifecycle::

    with Session(jobs=4) as session:
        result = session.discover("RPf", x, y)       # fits + spawns once
        labels = session.label(x, y, x_new)          # reuses fit + pool
        more = session.label(x, y, other_new)        # zero cold cost
    # closed: pools shut down, segments unlinked, fits and data dropped

Invalidation rules:

* a **crashed or poisoned pool** is evicted at checkout (checkout pops
  the cache entry) and respawned by the guarded dispatch loop;
* a **code edit** changes the source fingerprint, so fit memo keys
  miss; **different data** changes the content keys, so both the fit
  memo and the pool signature miss;
* **session close** (or interpreter exit) clears every warm cache, so
  teardown leaves zero leaked shm segments.

Sessions nest refcounted: the caches are process-wide, so inner
``with Session(...)`` blocks share state and only the outermost close
tears it down.  Pool workers spawned inside a session run in the scope
too (it travels in their bootstrap arguments, whatever the start
method), so nested fan-outs stay warm.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro import warm

__all__ = ["Session"]


class Session:
    """A warm execution session for repeated discovery work.

    Parameters set the session-wide defaults that every request
    inherits (each request may still override them per call):

    ``jobs``
        Worker budget threaded into every fan-out (grid, tuning folds,
        chunked labeling) — the planner splits it across levels exactly
        as the one-shot path does.
    ``engine``
        Kernel engine (``"reference"`` / ``"vectorized"`` /
        ``"native"``) for subgroup discovery and the metamodel layer.
    ``tune``
        Whether string metamodels run the caret-style tuning grid
        (the expensive path the fit memo amortizes best).
    ``metamodel``
        Default metamodel kind for :meth:`label`.

    Open/close is refcounted and re-entrant; use as a context manager.
    """

    def __init__(self, *, jobs: int | None = 1, engine: str = "vectorized",
                 tune: bool = True, metamodel: str = "boosting") -> None:
        self.jobs = jobs
        self.engine = engine
        self.tune = tune
        self.metamodel = metamodel
        self._open = False

    # -- lifecycle -----------------------------------------------------
    def open(self) -> "Session":
        """Activate warm caching (idempotent per session object)."""
        if not self._open:
            warm.enter()
            self._open = True
        return self

    def close(self) -> None:
        """Release this session's hold on the warm caches.

        The outermost close clears every warm cache: it shuts cached
        pools down, unlinks resident segments and drops memoized fits
        and training sets; inner closes only decrement.  Idempotent.
        """
        if self._open:
            self._open = False
            warm.leave()

    def __enter__(self) -> "Session":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _require_open(self) -> None:
        if not self._open:
            raise RuntimeError(
                "session is not open; use `with Session(...) as s:` or "
                "call .open()")

    # -- requests ------------------------------------------------------
    def discover(self, method: str, x: np.ndarray, y: np.ndarray,
                 **kwargs):
        """Run a discovery method against warm state.

        Delegates to :func:`repro.core.methods.discover` with the
        session's ``engine``/``jobs``/``tune`` defaults filled in; any
        keyword argument overrides them per call.  REDS methods reuse
        the memoized metamodel fit and the cached labeling pool.
        """
        self._require_open()
        from repro.core.methods import discover

        kwargs.setdefault("engine", self.engine)
        kwargs.setdefault("jobs", self.jobs)
        kwargs.setdefault("tune_metamodel", self.tune)
        return discover(method, x, y, **kwargs)

    def label(self, x: np.ndarray, y: np.ndarray, x_new: np.ndarray, *,
              metamodel: str | None = None, soft: bool = False,
              tune: bool | None = None,
              chunk_rows: int | None = None) -> np.ndarray:
        """Label ``x_new`` with a metamodel fitted on ``(x, y)``.

        The fit comes from the session memo (one fit per distinct
        ``(kind, tune, engine, x, y)``), labeling fans out through
        :func:`repro.metamodels.base.predict_chunked` against the
        cached pool.  ``soft=True`` returns probabilities
        (``predict_proba``) instead of hard labels.
        """
        self._require_open()
        from repro.core.reds import fit_metamodel
        from repro.metamodels.base import predict_chunked

        kind = self.metamodel if metamodel is None else metamodel
        do_tune = self.tune if tune is None else tune
        jobs = 1 if self.jobs is None else self.jobs
        fitted = fit_metamodel(kind, x, y, tune=do_tune,
                               engine=self.engine, jobs=jobs)
        return predict_chunked(fitted, np.asarray(x_new, dtype=float),
                               soft=soft, jobs=self.jobs,
                               chunk_rows=chunk_rows)

    def label_batch(self, requests: Iterable[Mapping]) -> list[np.ndarray]:
        """Serve many :meth:`label` requests against shared warm state.

        Each request is a mapping of :meth:`label` keyword arguments
        (``x``, ``y``, ``x_new``, plus the optional knobs).  Batching is
        what the warm caches make it: the first request for a given
        ``(kind, x, y)`` fits, every later one hits the memo
        (single-flight, so even concurrent callers share one fit), and
        all of them label through one cached pool and one resident copy
        of the data.
        """
        return [self.label(**dict(request)) for request in requests]

    def trajectory(self, boxes: Sequence, x_test: np.ndarray,
                   y_test: np.ndarray) -> np.ndarray:
        """Peeling trajectory of ``boxes`` on held-out test data.

        Delegates to :func:`repro.metrics.trajectory.peeling_trajectory`
        under the session's worker budget; the test arrays publish once
        to the resident plane and the box-evaluation pool is cached.
        """
        self._require_open()
        from repro.metrics.trajectory import peeling_trajectory

        return peeling_trajectory(boxes, x_test, y_test, jobs=self.jobs)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        """Warm-cache counters: pools, resident segments, fit memo."""
        from repro.core.reds import fit_stats
        from repro.experiments.dataplane import resident_stats
        from repro.experiments.parallel import pool_stats

        return {"pools": pool_stats(), "dataplane": resident_stats(),
                "metamodel": fit_stats()}
