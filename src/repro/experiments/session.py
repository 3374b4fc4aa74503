"""Warm execution sessions: discovery as queries against resident state.

One-shot invocations pay four fixed costs per call: interpreter start,
worker-pool spawn, data publication, and the metamodel fit.  A
:class:`Session` keeps the last three warm across calls.  It is a
**lifetime scope**, not a mode: it holds the refcounted warm scope of
:mod:`repro.warm` open, and while it is open five bounded caches, all
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
* **labelled pools**: REDS step 3 and :meth:`Session.label` memoize
  the labels a fit gave a pool, keyed by the fit's key plus the pool
  (its content, or the generator state and sampler it is drawn with),
  in :data:`repro.core.reds.LABEL_MEMO` under a byte cap;
* **training sets** from :func:`repro.experiments.harness.make_train_data`.

Warm state is a **cache, never a semantic change**: every result is
bit-identical to the one-shot path at every engine/jobs/shard
setting.

Lifecycle::

    with Session(jobs=4) as session:
        result = session.discover("RPf", x, y)       # fits + spawns once
        labels = session.label(x, y, x_new)          # reuses the fit
        more = session.label(x, y, other_new)        # zero cold cost
        again = session.label(x, y, x_new)           # label memo hit
    # closed: pools shut down, segments unlinked, fits, labels and data dropped

Invalidation rules:

* a **crashed or poisoned pool** is evicted at checkout (checkout pops
  the cache entry) and respawned by the guarded dispatch loop;
* a **code edit** changes the source fingerprint, so fit memo keys
  miss; **different data** changes the content keys, so the fit memo,
  the label memo and the pool signature miss;
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
        Kernel engine (``"vectorized"`` / ``"reference"``) for subgroup
        discovery and the metamodel layer.
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
        pools down, unlinks resident segments and drops memoized fits,
        labels and training sets; inner closes only decrement.
        Idempotent.
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
        the memoized metamodel fit and, when the same fit already
        labelled the same rows (an earlier request, or a sibling method
        at the same seed), the memoized labels.
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
        ``(kind, tune, engine, x, y)``) and the labels from the label
        memo when this fit already labelled these rows; otherwise
        labeling fans out through
        :func:`repro.metamodels.base.predict_chunked` on a cached worker
        pool.  ``soft=True`` returns probabilities
        (``predict_proba``) instead of hard labels.  ``(x, y)`` must be
        finite with binary ``y``, and ``x_new`` a non-empty, finite 2-D
        array with the columns of ``x``, as for :func:`repro.core.reds.reds`.
        """
        self._require_open()
        from repro.core.reds import (check_label_rows, check_training_data,
                                     fit_key, fit_metamodel, label_rows,
                                     pool_key)

        kind = self.metamodel if metamodel is None else metamodel
        x, y = np.asarray(x, dtype=float), np.asarray(y)
        check_training_data(
            x, y, caller="Session.label",
            binary_for=f"Session.label fits a {kind} classifier and")
        x_new = check_label_rows(x_new, x.shape[1], caller="Session.label",
                                 what="x_new")
        do_tune = self.tune if tune is None else tune
        fitted = fit_metamodel(kind, x, y, tune=do_tune, engine=self.engine,
                               jobs=self.jobs)
        memo_key = (fit_key(kind, x, y, tune=do_tune, engine=self.engine),
                    pool_key(x_new))
        labels = label_rows(fitted, x_new, soft=soft, memo_key=memo_key,
                            kind=kind, jobs=self.jobs, chunk_rows=chunk_rows)
        # Memoized hard labels are bool; ``predict`` returns int64.
        return labels.copy() if soft else labels.astype(np.int64)

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
        """Warm-cache counters: pools, resident segments, fit memo and
        label memo."""
        from repro.core.reds import LABEL_MEMO, fit_stats
        from repro.experiments.dataplane import resident_stats
        from repro.experiments.parallel import pool_stats

        labels = LABEL_MEMO.stats()
        return {"pools": pool_stats(), "dataplane": resident_stats(),
                "metamodel": fit_stats(),
                "labels": {"hits": labels["hits"], "misses": labels["misses"],
                           "soft_as_hard": labels.get("soft_as_hard", 0),
                           "bytes": labels["weight"],
                           "size": labels["size"]}}
