"""The interface every metamodel implements, and chunked labeling.

REDS needs exactly two things from a metamodel (Algorithm 4): fit on the
simulated dataset, and produce either hard labels (``predict``) or
soft labels / probabilities (``predict_proba``) for freshly sampled
points.  The ``bnd`` threshold of the paper is folded into ``predict``.

Every metamodel here labels each query row independently of the others,
which makes labeling data-parallel: :func:`predict_chunked` fans
contiguous row chunks out over the plan engine of
:mod:`repro.experiments.parallel`, mapping the query matrix zero-copy
into workers through the shared-memory data plane and shipping the
fitted model once per worker — the multi-core path REDS uses to label
its ``L = 10^5`` pool.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.engines import check_jobs

__all__ = ["Metamodel", "predict_chunked", "check_fit_data",
           "check_query"]


@runtime_checkable
class Metamodel(Protocol):
    """Protocol for intermediate metamodels (the ``AM`` of Algorithm 4)."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Metamodel":
        """Train on ``(n, m)`` inputs and ``(n,)`` binary labels."""
        ...

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Estimate ``P(y = 1 | x)`` for each row, shape ``(n,)``."""
        ...

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard 0/1 labels: ``I(f_am(x) > bnd)`` of Algorithm 4, line 5."""
        ...


def check_fit_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``(x, y)`` as float arrays, or ``ValueError``.

    ``x`` must be a non-empty 2-D array with one finite response in
    ``y`` per row.  The tree ensembles call this before growing
    anything, so both engines reject the same inputs with one message.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError(f"x must be a non-empty 2-D array, got shape {x.shape}")
    if len(x) != len(y):
        raise ValueError(f"x and y disagree: {len(x)} vs {len(y)}")
    if not np.isfinite(y).all():
        raise ValueError("y holds NaN or inf; the model fits finite responses only")
    return x, y


def check_query(x, n_features: int) -> np.ndarray:
    """Query rows ``x`` as a float array of the fitted width, or ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError(
            f"x must be 2-D with the {n_features} columns the model was "
            f"fitted on, got shape {x.shape}")
    return x


def _label_chunk(context, start: int, stop: int) -> np.ndarray:
    """One row chunk of a fanned-out :func:`predict_chunked` call."""
    model = context["model"]
    rows = context["x"][start:stop]
    if context["soft"]:
        return model.predict_proba(rows)
    return model.predict(rows)


def predict_chunked(
    model: Metamodel,
    x: np.ndarray,
    *,
    soft: bool = False,
    jobs: int | None = 1,
) -> np.ndarray:
    """Labels (or probabilities) of ``x``, row chunks fanned over workers.

    Bit-identical to ``model.predict(x)`` / ``model.predict_proba(x)``
    for any metamodel that labels rows independently — all families in
    this package do — because each worker runs the very same prediction
    code on one contiguous row slice of the shared query matrix.  With
    ``jobs <= 1`` (the default) the model predicts directly, so callers
    can thread their ``jobs`` knob through unconditionally.  A model's
    own ``predict`` never fans out, so this is the one prediction
    fan-out.

    Parameters
    ----------
    model:
        A fitted metamodel.  It is shipped to each worker once (via the
        plan context), while ``x`` crosses process boundaries zero-copy
        through the shared-memory data plane.
    soft:
        Return ``predict_proba`` instead of hard labels.
    jobs:
        Worker processes (None = all CPUs), each labelling one
        contiguous chunk; ``<= 1`` predicts inline, and a negative
        count raises ``ValueError``.
    """
    check_jobs(jobs)
    x = np.ascontiguousarray(x, dtype=float)
    n = len(x)
    if (jobs is not None and jobs <= 1) or n <= 1:
        return model.predict_proba(x) if soft else model.predict(x)
    # Prebuild any stacked prediction tables in the parent so every
    # worker inherits them through the context pickle instead of each
    # re-deriving the same arrays.
    ensure = getattr(model, "_ensure_stacked", None)
    if ensure is not None:
        ensure()
    from repro.experiments.parallel import run_chunked

    parts = run_chunked(
        _label_chunk, n, jobs=jobs,
        context={"model": model, "soft": soft},
        shared={"x": x},
    )
    return np.concatenate(parts)
