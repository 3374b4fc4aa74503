"""REDS — Rule Extraction for Discovering Scenarios (Algorithm 4).

The four steps of the paper's method:

1. train an accurate metamodel ``AM`` on the simulated dataset ``D``;
2. sample ``L`` new points i.i.d. from the same input distribution;
3. label them with the metamodel — hard labels ``I(f_am(x) > bnd)`` or,
   in the "p" modification, the raw probabilities ``f_am(x)``;
4. run a subgroup-discovery algorithm on the relabelled data.

The semi-supervised variant (Sections 6.1 and 9.4) replaces step 2 by an
existing pool of unlabeled points from the same distribution ``p(x)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import warm
from repro.metamodels.base import Metamodel, predict_chunked
from repro.metamodels.tuning import make_metamodel, tune_metamodel

__all__ = ["clear_fit_cache", "fit_metamodel", "fit_stats",
           "reset_fit_stats", "reds", "REDSResult"]

Sampler = Callable[[int, int, np.random.Generator], np.ndarray]


# ----------------------------------------------------------------------
# Warm-session metamodel fit memo
# ----------------------------------------------------------------------
#
# Inside an open ``Session`` :func:`fit_metamodel` memoizes fitted
# models by the store's key discipline — config plus source fingerprint
# plus the *content* of (x, y) — so a code edit or different data
# re-fits while identical requests share one object (single-flight).
# Fitting is deterministic given (kind, tune, engine, x, y):
# ``tune_metamodel`` runs a seeded KFold and aggregates integer counts,
# so ``jobs`` never enters the result and is absent from the key.

_FITS = warm.WarmCache(cap=8)


def fit_stats() -> dict[str, int]:
    """Fit/hit counters plus the number of cached fitted models."""
    stats = _FITS.stats()
    return {"fits": stats["misses"], "hits": stats["hits"],
            "cached": stats["size"]}


def reset_fit_stats() -> None:
    """Zero the fit/hit counters (tests and benchmarks)."""
    _FITS.reset_counters()


def clear_fit_cache() -> None:
    """Drop every cached fitted model (counters are kept)."""
    _FITS.clear()


def fit_metamodel(kind: str, x: np.ndarray, y: np.ndarray, *,
                  tune: bool = True, engine: str = "vectorized",
                  jobs: int = 1) -> Metamodel:
    """Fit (or, in a warm session, recall) a metamodel of ``kind``.

    The one-shot path is exactly the historical ``reds()`` fit block:
    ``tune_metamodel`` when ``tune`` else a default-parameter fit.
    Inside a warm session the fitted model is memoized — the *same
    object* is returned for identical ``(kind, tune, engine, x, y)``,
    which also keeps the pickled plan context of later
    ``predict_chunked`` fan-outs byte-stable so their pools cache.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)

    def fit() -> Metamodel:
        if tune:
            return tune_metamodel(kind, x, y, engine=engine, jobs=jobs)
        return make_metamodel(kind, engine=engine).fit(x, y)

    if not warm.active():
        return fit()
    # Lazy imports: dataplane/store sit above core in the layer order.
    from repro.experiments.dataplane import content_key
    from repro.experiments.store import task_key

    key = task_key("repro.core.reds.fit_metamodel",
                   {"kind": kind, "tune": bool(tune), "engine": engine,
                    "x": content_key(x), "y": content_key(y)})
    return _FITS.get_or_create(key, fit)


@dataclass
class REDSResult:
    """Output of a REDS run.

    ``sd_output`` is whatever the supplied subgroup-discovery callable
    returned (a :class:`~repro.subgroup.prim.PRIMResult`,
    :class:`~repro.subgroup.bumping.BumpingResult`,
    :class:`~repro.subgroup.best_interval.BIResult`, ...); the
    intermediate artefacts are exposed for inspection and testing.
    """

    sd_output: Any
    metamodel: Metamodel
    x_new: np.ndarray
    y_new: np.ndarray
    train_time: float
    label_time: float
    sd_time: float


def reds(
    x: np.ndarray,
    y: np.ndarray,
    sd: Callable[[np.ndarray, np.ndarray], Any],
    *,
    metamodel: str | Metamodel = "boosting",
    n_new: int = 100_000,
    soft_labels: bool = False,
    sampler: Sampler | None = None,
    pool: np.ndarray | None = None,
    tune: bool = True,
    rng: np.random.Generator | None = None,
    engine: str = "vectorized",
    jobs: int | None = 1,
    chunk_rows: int | None = None,
) -> REDSResult:
    """Run REDS (Algorithm 4).

    Parameters
    ----------
    x, y:
        The simulated dataset ``D`` (inputs in unit-cube coordinates,
        binary labels).
    sd:
        Subgroup-discovery algorithm applied to the relabelled data.
    metamodel:
        Family name (``"forest"``, ``"boosting"``, ``"svm"``) tuned and
        fitted internally, or an already-constructed (unfitted)
        metamodel instance.
    n_new:
        ``L``, the number of newly generated points (ignored when
        ``pool`` is given).
    soft_labels:
        The "p" modification: label with ``f_am(x)`` in [0, 1] instead
        of hard 0/1 labels.  Only meaningful for probability-producing
        metamodels (forest / boosting).
    sampler:
        Input distribution ``p(x)``; defaults to uniform Monte Carlo,
        matching the deep-uncertainty assumption.
    pool:
        Optional pre-existing unlabeled points from ``p(x)``
        (semi-supervised mode); used verbatim instead of sampling.
    tune:
        Cross-validate the metamodel's hyperparameters (the paper's
        caret default) before the final fit.  Ignored when an instance
        is passed.
    engine:
        Metamodel kernel engine (``"vectorized"`` / ``"reference"``)
        threaded into tuning and fitting when a family name is given;
        ignored when an already-constructed instance is passed.
    jobs:
        Worker processes (None = all CPUs, default 1) for the two
        data-parallel stages: the metamodel tuning grid fans its
        (candidate, fold) cells out, and step 3's labeling of the ``L``
        new points fans row chunks out against a shared-memory map of
        the pool (:func:`repro.metamodels.base.predict_chunked`).
        Labels and fits are bit-identical for every setting — ``jobs``
        only buys wall-clock time on the paper's dominant
        ``label_time``.
    chunk_rows:
        Labeling rows per fan-out chunk (default: one per worker).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError(f"x and y disagree: {len(x)} vs {len(y)}")
    if n_new < 1 and pool is None:
        raise ValueError(f"n_new must be >= 1, got {n_new}")
    if rng is None:
        rng = np.random.default_rng()

    t0 = time.perf_counter()
    if isinstance(metamodel, str):
        fitted = fit_metamodel(metamodel, x, y, tune=tune, engine=engine,
                               jobs=jobs)
    else:
        fitted = metamodel.fit(x, y)
    train_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    if pool is not None:
        x_new = np.asarray(pool, dtype=float)
        if x_new.shape[1] != x.shape[1]:
            raise ValueError(
                f"pool has {x_new.shape[1]} inputs, training data has {x.shape[1]}"
            )
    else:
        draw = sampler if sampler is not None else _uniform
        x_new = draw(n_new, x.shape[1], rng)
    if soft_labels:
        y_new = np.clip(
            predict_chunked(fitted, x_new, soft=True, jobs=jobs,
                            chunk_rows=chunk_rows),
            0.0, 1.0)
    else:
        y_new = predict_chunked(fitted, x_new, jobs=jobs,
                                chunk_rows=chunk_rows).astype(float)
    label_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    sd_output = sd(x_new, y_new)
    sd_time = time.perf_counter() - t0

    return REDSResult(
        sd_output=sd_output,
        metamodel=fitted,
        x_new=x_new,
        y_new=y_new,
        train_time=train_time,
        label_time=label_time,
        sd_time=sd_time,
    )


def _uniform(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((n, m))
