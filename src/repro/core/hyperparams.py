"""Hyperparameter optimisation for subgroup-discovery algorithms.

The paper's "c" suffix (Section 8.4, Table 2):

* PRIM's peeling fraction ``alpha`` is selected from
  ``{0.03, 0.05, 0.07, 0.1, 0.13, 0.16, 0.2}`` by 5-fold cross-validated
  PR AUC;
* the number of restricted inputs ``m`` of PRIM-with-bumping and BI is
  selected from ``{M - k * ceil(M / 6)}`` (while positive) by 5-fold
  cross-validated PR AUC / WRAcc respectively.
"""

from __future__ import annotations

import numpy as np

from repro.metamodels.tuning import KFold
from repro.metrics.trajectory import trajectory_of
from repro.metrics.quality import wracc_score
from repro.subgroup.best_interval import best_interval
from repro.subgroup.bumping import prim_bumping
from repro.subgroup.prim import prim_peel

__all__ = [
    "ALPHA_GRID",
    "CV_FOLDS",
    "depth_grid",
    "optimize_alpha",
    "optimize_bumping_features",
    "optimize_bi_depth",
]

#: Folds of every SD hyperparameter search (Section 8.4).
CV_FOLDS = 5

#: The alpha candidates of Section 8.4.1.
ALPHA_GRID: tuple[float, ...] = (0.03, 0.05, 0.07, 0.1, 0.13, 0.16, 0.2)

#: Bootstrap repetitions used inside cross-validation runs of bumping.
#: The full Q = 50 would make the m-search two orders of magnitude more
#: expensive than the final fit; a reduced Q ranks m values just as well.
CV_BUMPING_REPEATS = 10


def depth_grid(dim: int) -> tuple[int, ...]:
    """The ``m`` candidates ``{M - k * ceil(M / 6) : k >= 0} ∩ N+``."""
    step = int(np.ceil(dim / 6))
    values = []
    m = dim
    while m > 0:
        values.append(m)
        m -= step
    return tuple(values)


def optimize_alpha(
    x: np.ndarray,
    y: np.ndarray,
    *,
    grid: tuple[float, ...] = ALPHA_GRID,
    min_support: int = 20,
    n_splits: int = CV_FOLDS,
    seed: int = 0,
) -> float:
    """Best PRIM ``alpha`` by cross-validated test-fold PR AUC."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best_alpha = grid[0]
    best_score = -np.inf
    folds = list(KFold(n_splits, seed).split(len(x)))
    for alpha in grid:
        scores = []
        for train, test in folds:
            result = prim_peel(x[train], y[train], alpha=alpha,
                               min_support=min_support)
            _, auc = trajectory_of(result.boxes, x[test], y[test])
            scores.append(auc)
        score = float(np.mean(scores))
        if score > best_score:
            best_score = score
            best_alpha = alpha
    return best_alpha


def optimize_bumping_features(
    x: np.ndarray,
    y: np.ndarray,
    *,
    alpha: float,
    min_support: int = 20,
    n_splits: int = CV_FOLDS,
    seed: int = 0,
    n_repeats: int = CV_BUMPING_REPEATS,
) -> int:
    """Best bumping ``m`` (random-subset size) by cross-validated PR AUC."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    best_m = x.shape[1]
    best_score = -np.inf
    folds = list(KFold(n_splits, seed).split(len(x)))
    for m in depth_grid(x.shape[1]):
        scores = []
        for train, test in folds:
            result = prim_bumping(
                x[train], y[train], alpha=alpha, min_support=min_support,
                n_repeats=n_repeats, n_features=m, rng=rng,
            )
            _, auc = trajectory_of(result.boxes, x[test], y[test])
            scores.append(auc)
        score = float(np.mean(scores))
        if score > best_score:
            best_score = score
            best_m = m
    return best_m


def optimize_bi_depth(
    x: np.ndarray,
    y: np.ndarray,
    *,
    beam_size: int = 1,
    n_splits: int = CV_FOLDS,
    seed: int = 0,
) -> int:
    """Best BI ``m`` (max restricted inputs) by cross-validated WRAcc."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best_m = x.shape[1]
    best_score = -np.inf
    folds = list(KFold(n_splits, seed).split(len(x)))
    for m in depth_grid(x.shape[1]):
        scores = []
        for train, test in folds:
            result = best_interval(x[train], y[train], depth=m,
                                   beam_size=beam_size)
            scores.append(wracc_score(result.box, x[test], y[test]))
        score = float(np.mean(scores))
        if score > best_score:
            best_score = score
            best_m = m
    return best_m
