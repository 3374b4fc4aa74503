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
from repro.engines import check_jobs
from repro.metamodels.base import Metamodel, predict_chunked
from repro.metamodels.tuning import make_metamodel, tune_metamodel
from repro.sampling.designs import QuantizedUniform
from repro.subgroup.index import named_pool
from repro.subgroup.inputs import check_finite

__all__ = ["check_label_rows", "check_training_data", "fit_key",
           "fit_metamodel", "fit_stats", "label_rows",
           "LABEL_MEMO", "LABEL_MEMO_BYTES", "POOL_MEMO", "POOL_MEMO_BYTES",
           "pool_key", "reds", "REDSResult"]

Sampler = Callable[[int, int, np.random.Generator], np.ndarray]


def check_training_data(x: np.ndarray, y: np.ndarray, *, caller: str,
                        binary_for: str | None = None) -> None:
    """Reject training data no metamodel or subgroup search can use.

    Every column of ``x`` and every label must be finite.  When
    ``binary_for`` is given, ``y`` must also hold only 0 and 1; the
    phrase names who needs binary labels in the error message.
    ``caller`` names the entry point in the finiteness messages.
    """
    check_finite(x, y, caller=caller)
    if binary_for is not None and not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError(f"{binary_for} needs binary labels: y must hold "
                         "only 0 and 1")


def check_label_rows(x_new, width: int, *, caller: str,
                     what: str) -> np.ndarray:
    """``x_new`` as a float array of rows a metamodel can label, or ``ValueError``.

    The rows REDS labels (a pool, a sampler's draw, a
    ``Session.label`` query) must form a non-empty 2-D array of finite
    values with the training data's ``width`` columns.  ``what`` names
    the rows and ``caller`` the entry point in the messages.
    """
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 2 or x_new.shape[1] != width:
        raise ValueError(
            f"{what} must be a 2-D array with the {width} columns of the "
            f"training data, got shape {x_new.shape}; {caller} labels "
            "rows of the training inputs")
    if not len(x_new):
        raise ValueError(f"{what} holds no rows; {caller} needs rows to label")
    if not np.isfinite(x_new).all():
        bad = int(np.argmin(np.isfinite(x_new).all(axis=0)))
        raise ValueError(f"{what} column {bad} holds NaN or inf; {caller} "
                         "labels finite rows only")
    return x_new


# ----------------------------------------------------------------------
# Warm-session memos: fitted metamodels, drawn pools and their labels
# ----------------------------------------------------------------------
#
# Inside an open ``Session`` :func:`fit_metamodel` memoizes fitted
# models by the store's key discipline — config plus source fingerprint
# plus the *content* of (x, y) — so a code edit or different data
# re-fits while identical requests share one object (single-flight).
# Fitting is deterministic given (kind, tune, engine, x, y):
# ``tune_metamodel`` runs a seeded KFold and aggregates integer counts,
# so ``jobs`` never enters the result and is absent from the key.
#
# The label memo keeps what step 3 computed: the labels of a pool are a
# pure function of the fitted model and the pool, so it is keyed by the
# fit key plus a pool key (see :func:`label_rows`).
#
# The pool memo keeps what step 2 drew with a built-in sampler: the
# rows are a pure function of the sampler, the generator state before
# the draw and the shape, so sibling methods at one seed share one draw
# (see :func:`_draw`).

_FITS = warm.WarmCache(cap=8)

#: Byte cap of :data:`POOL_MEMO`: two drawn L=10^5, M=8 pools (6.4 MB
#: each) plus the 10^4-row draws BI-based methods make from the same
#: generator states.
POOL_MEMO_BYTES = 14 * 2**20

#: ``(draw key, n, m)`` -> ``(read-only rows, generator state after the
#: draw)``, where the draw key is :func:`_drawn_pool_key`'s.  Counters:
#: ``hits``, ``misses`` and the ``weight`` in bytes the memo holds.
POOL_MEMO = warm.WarmCache(cap=POOL_MEMO_BYTES,
                           weight=lambda entry: entry[0].nbytes)

#: Byte cap of :data:`LABEL_MEMO`: room for ~30 labelled L=10^5 pools
#: of soft labels, or ten times as many hard ones.
LABEL_MEMO_BYTES = 32 * 2**20

#: ``(fit key, pool key, soft)`` -> read-only labels: hard ones as
#: ``bool``, soft ones as ``predict_proba`` returned them.  Counters:
#: ``hits``, ``misses`` and the ``weight`` in bytes the memo holds.
LABEL_MEMO = warm.WarmCache(cap=LABEL_MEMO_BYTES,
                            weight=lambda labels: labels.nbytes)


def fit_stats() -> dict[str, int]:
    """Fit/hit counters plus the number of cached fitted models."""
    stats = _FITS.stats()
    return {"fits": stats["misses"], "hits": stats["hits"],
            "cached": stats["size"]}


def fit_key(kind: str, x: np.ndarray, y: np.ndarray, *, tune: bool,
            engine: str) -> str:
    """The memo key of a fit: ``(kind, tune, engine)``, the source
    fingerprint and the content of ``x`` and ``y``."""
    # Lazy imports: dataplane/store sit above core in the layer order.
    from repro.experiments.dataplane import content_key
    from repro.experiments.store import task_key

    return task_key("repro.core.reds.fit_metamodel",
                    {"kind": kind, "tune": bool(tune), "engine": engine,
                     "x": content_key(x), "y": content_key(y)})


def fit_metamodel(kind: str, x: np.ndarray, y: np.ndarray, *,
                  tune: bool = True, engine: str = "vectorized",
                  jobs: int | None = 1) -> Metamodel:
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
    return _FITS.get_or_create(
        fit_key(kind, x, y, tune=tune, engine=engine), fit)


def _state_key(state):
    """A hashable copy of a ``bit_generator.state`` (nested dicts, ints
    and, for some generators, arrays)."""
    if isinstance(state, dict):
        return tuple(sorted((k, _state_key(v)) for k, v in state.items()))
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.shape, state.tobytes())
    return state


def _drawn_pool_key(sampler: Sampler | None,
                    rng: np.random.Generator) -> tuple | None:
    """The label-memo pool key of the draw ``sampler`` is about to make
    from ``rng``, or ``None`` for a sampler the memo does not know.

    Only the built-in samplers are known: uniform Monte Carlo (``None``)
    and :class:`~repro.sampling.designs.QuantizedUniform`.  Both fill
    rows in order, so the key leaves out the row count: a shorter draw
    from the same state is a prefix of a longer one.
    """
    if sampler is None:
        what = "uniform"
    elif isinstance(sampler, QuantizedUniform):
        what = sampler
    else:
        return None
    return ("draw", what, _state_key(rng.bit_generator.state))


def _draw(sampler: Sampler | None, name: tuple | None, n: int, m: int,
          rng: np.random.Generator) -> np.ndarray:
    """Step 2: ``sampler``'s ``n x m`` draw from ``rng`` (uniform Monte
    Carlo for ``None``), checked by :func:`check_label_rows`.

    A built-in sampler's draw (``name`` is its :func:`_drawn_pool_key`)
    comes back read-only, and inside a warm scope it is drawn once per
    ``(name, n, m)`` in :data:`POOL_MEMO`: a later draw takes the stored
    rows and sets ``rng`` to the state the draw left, so both are what
    drawing again would give.
    """
    draw = sampler if sampler is not None else _uniform

    def fresh():
        rows = check_label_rows(draw(n, m, rng), m, caller="reds",
                                what="the sampler's output")
        if name is not None:
            # A built-in sampler's draw is a fresh array that its key
            # names; frozen, it stays what the key says.
            rows.flags.writeable = False
        return rows, rng.bit_generator.state

    if name is None or not warm.active():
        return fresh()[0]
    rows, state = POOL_MEMO.get_or_create((name, n, m), fresh)
    rng.bit_generator.state = state
    return rows


def pool_key(rows: np.ndarray) -> tuple:
    """The label-memo pool key of rows a caller supplies: their content."""
    from repro.experiments.dataplane import content_key

    return ("pool", content_key(rows))


def label_rows(fitted: Metamodel, x_new: np.ndarray, *, soft: bool,
               memo_key: tuple | None, jobs: int | None) -> np.ndarray:
    """Step 3: the hard or soft labels of ``x_new``.

    Without a ``memo_key`` this is ``predict_chunked``.  With one
    (``(fit key, pool key)``, given only inside a warm scope) the labels
    go through :data:`LABEL_MEMO`: a request is served from memoized
    labels of the same kind for at least as many rows of the same pool.
    Hard labels may come back as ``bool`` rather than ``predict``'s
    int64, and what comes back must not be written to.
    """
    if memo_key is not None:
        labels = LABEL_MEMO.peek((*memo_key, soft))
        if labels is not None and len(labels) >= len(x_new):
            LABEL_MEMO.count("hits")
            return labels[:len(x_new)]
        LABEL_MEMO.count("misses")
    labels = predict_chunked(fitted, x_new, soft=soft, jobs=jobs)
    if memo_key is not None:
        kept = labels if soft else labels.astype(bool)
        kept.flags.writeable = False
        LABEL_MEMO.put((*memo_key, soft), kept)
    return labels


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
) -> REDSResult:
    """Run REDS (Algorithm 4).

    Parameters
    ----------
    x, y:
        The simulated dataset ``D`` (finite inputs in unit-cube
        coordinates, binary labels); anything else raises
        ``ValueError``.
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
        matching the deep-uncertainty assumption.  A pool drawn by the
        default or a :class:`~repro.sampling.designs.QuantizedUniform`
        sampler reaches ``sd`` and the result read-only; inside a warm
        scope it is drawn once per generator state and shape
        (:data:`POOL_MEMO`).
    pool:
        Optional pre-existing unlabeled points from ``p(x)``
        (semi-supervised mode); used verbatim instead of sampling.
        The pool, or the sampler's output, must be a non-empty, finite
        2-D array with the columns of ``x`` (:func:`check_label_rows`).
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
        new points fans one row chunk per worker out against a
        shared-memory map of the pool
        (:func:`repro.metamodels.base.predict_chunked`).  Labels and
        fits are bit-identical for every setting — ``jobs`` only buys
        wall-clock time on the paper's dominant ``label_time``.
    """
    check_jobs(jobs)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError(f"x and y disagree: {len(x)} vs {len(y)}")
    check_training_data(x, y, caller="reds",
                        binary_for="reds fits a classifier metamodel and")
    if pool is not None:
        pool = check_label_rows(pool, x.shape[1], caller="reds", what="pool")
    elif n_new < 1:
        raise ValueError(f"n_new must be >= 1, got {n_new}")
    if rng is None:
        rng = np.random.default_rng()

    t0 = time.perf_counter()
    kind = metamodel if isinstance(metamodel, str) else None
    if kind is not None:
        fitted = fit_metamodel(kind, x, y, tune=tune, engine=engine,
                               jobs=jobs)
    else:
        fitted = metamodel.fit(x, y)
    train_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Inside a warm scope a built-in sampler's pool is drawn once per
    # draw (:func:`_draw`), and the labels of a fitted family's pool are
    # memoized.
    memo = kind is not None and warm.active()
    if pool is not None:
        x_new = pool
        # Hashed once: the content key serves the label memo here and
        # the SD step's column index below.
        name = rows_key = pool_key(pool) if memo else None
    else:
        name = _drawn_pool_key(sampler, rng)
        rows_key = name if memo else None
        x_new = _draw(sampler, name, n_new, x.shape[1], rng)
    memo_key = None if rows_key is None else (
        fit_key(kind, x, y, tune=tune, engine=engine), rows_key)
    y_new = label_rows(fitted, x_new, soft=soft_labels, memo_key=memo_key,
                       jobs=jobs)
    y_new = (np.clip(y_new, 0.0, 1.0) if soft_labels
             else y_new.astype(float))
    label_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Inside a warm scope the SD step's column index of the pool is
    # keyed by its name: a drawn pool by its draw, a caller's pool by the
    # content key above, which a read-only view keeps true while the SD
    # step runs.
    rows = x_new
    if pool is not None and name is not None:
        rows = x_new.view()
        rows.flags.writeable = False
    with named_pool(rows, name):
        sd_output = sd(rows, y_new)
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
