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

from repro.engines import resolve as resolve_engine
from repro.metamodels.tuning import KFold
from repro.metrics.trajectory import pr_auc, trajectory_of
from repro.metrics.quality import wracc_score
from repro.subgroup._kernels import PeelRun, peel_runs
from repro.subgroup.best_interval import (beam_search, check_beam_params,
                                         make_refiner)
from repro.subgroup.bumping import draw_repeats, pareto_trajectory, prim_bumping
from repro.subgroup.inputs import check_peel_params, check_sd_data
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


def _check_search(x, y, caller: str, engine: str):
    """The search's data as float arrays and its resolved engine."""
    x, y, _, _ = check_sd_data(x, y, caller=caller)
    return x, y, resolve_engine(engine)


def _best(grid, scores):
    """The first grid value with the highest mean fold score."""
    best_value, best_score = grid[0], -np.inf
    for value, fold_scores in zip(grid, scores):
        score = float(np.mean(fold_scores))
        if score > best_score:
            best_score = score
            best_value = value
    return best_value


def optimize_alpha(
    x: np.ndarray,
    y: np.ndarray,
    *,
    grid: tuple[float, ...] = ALPHA_GRID,
    min_support: int = 20,
    n_splits: int = CV_FOLDS,
    seed: int = 0,
    engine: str = "vectorized",
) -> float:
    """Best PRIM ``alpha`` by cross-validated test-fold PR AUC.

    The vectorized engine peels all ``len(grid) * n_splits`` (alpha,
    fold) runs as one lockstep batch whose tracked validation rows are
    the test folds, so every box's test precision/recall falls out of
    the peel; ``engine="reference"`` peels them one by one through the
    per-candidate oracle and evaluates each trajectory.  Both pick the
    same alpha from bit-identical scores.
    """
    x, y, engine = _check_search(x, y, "optimize_alpha", engine)
    if not len(grid):
        raise ValueError("optimize_alpha needs a non-empty alpha grid")
    for alpha in grid:
        check_peel_params(alpha, min_support)
    folds = list(KFold(n_splits, seed).split(len(x)))
    return _best(grid, _alpha_scores(x, y, grid, folds, min_support, engine))


def _alpha_scores(x, y, grid, folds, min_support: int,
                  engine: str) -> list[list[float]]:
    """Test-fold PR AUC of every (alpha, fold) run, alpha-major."""
    if engine == "reference":
        return [[trajectory_of(
            prim_peel(x[train], y[train], alpha=alpha,
                      min_support=min_support, engine=engine).boxes,
            x[test], y[test])[1] for train, test in folds] for alpha in grid]
    trace = peel_runs(
        x, y, [PeelRun(alpha, rows=train, val_rows=test)
               for alpha in grid for train, test in folds],
        min_support=min_support, x_val=x, y_val=y)
    n_folds = len(folds)
    return [[pr_auc(trace.trajectory(i * n_folds + k)) for k in range(n_folds)]
            for i in range(len(grid))]


def optimize_bumping_features(
    x: np.ndarray,
    y: np.ndarray,
    *,
    alpha: float,
    min_support: int = 20,
    n_splits: int = CV_FOLDS,
    seed: int = 0,
    n_repeats: int = CV_BUMPING_REPEATS,
    engine: str = "vectorized",
) -> int:
    """Best bumping ``m`` (random-subset size) by cross-validated PR AUC.

    The vectorized engine draws every repeat's bootstrap rows and
    feature subset up front, in the order per-fold
    :func:`~repro.subgroup.bumping.prim_bumping` calls would (for m,
    for fold, for repeat), peels all of them as one lockstep batch, and
    builds each (m, fold)'s Pareto trajectory from the tracked
    train-fold statistics; ``engine="reference"`` runs one
    ``prim_bumping`` per (m, fold) through the per-candidate oracle.
    """
    x, y, engine = _check_search(x, y, "optimize_bumping_features", engine)
    check_peel_params(alpha, min_support)
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    grid = depth_grid(x.shape[1])
    folds = list(KFold(n_splits, seed).split(len(x)))
    return _best(grid, _feature_scores(
        x, y, alpha, grid, folds, np.random.default_rng(seed), min_support,
        n_repeats, engine))


def _feature_scores(x, y, alpha: float, grid, folds, rng, min_support: int,
                    n_repeats: int, engine: str) -> list[list[float]]:
    """Test-fold PR AUC of every (m, fold) bumping front, m-major."""
    if engine == "reference":
        return [[trajectory_of(
            prim_bumping(x[train], y[train], alpha=alpha,
                         min_support=min_support, n_repeats=n_repeats,
                         n_features=m, rng=rng, engine=engine).boxes,
            x[test], y[test])[1] for train, test in folds] for m in grid]
    dim = x.shape[1]
    runs = []
    for m in grid:
        for train, _ in folds:
            samples, subsets = draw_repeats(rng, len(train), dim, m, n_repeats)
            runs.extend(PeelRun(alpha, rows=train[sample], cols=subset,
                                val_rows=train)
                        for sample, subset in zip(samples, subsets))
    trace = peel_runs(x, y, runs, min_support=min_support, x_val=x, y_val=y)
    scores = []
    first = 0
    for _ in grid:
        fold_scores = []
        for train, test in folds:
            boxes = slice(trace.starts[first], trace.starts[first + n_repeats])
            front, _, _ = pareto_trajectory(
                trace.stack[boxes], trace.val_n[boxes], trace.val_sum[boxes],
                len(train), float(trace.val_total[first]))
            fold_scores.append(trajectory_of(front, x[test], y[test])[1])
            first += n_repeats
        scores.append(fold_scores)
    return scores


def optimize_bi_depth(
    x: np.ndarray,
    y: np.ndarray,
    *,
    beam_size: int = 1,
    n_splits: int = CV_FOLDS,
    seed: int = 0,
    engine: str = "vectorized",
) -> int:
    """Best BI ``m`` (max restricted inputs) by cross-validated WRAcc.

    Each training fold gets one refiner that runs the beam search at
    every ``m`` of the grid, so the vectorized engine sorts a fold once
    and its refinement and quality memos serve all depths; the scores
    equal one :func:`~repro.subgroup.best_interval.best_interval` call
    per (m, fold).  ``engine="reference"`` re-sorts on every
    refinement, as in a lone call.
    """
    x, y, engine = _check_search(x, y, "optimize_bi_depth", engine)
    check_beam_params(None, beam_size)
    folds = list(KFold(n_splits, seed).split(len(x)))
    grid = depth_grid(x.shape[1])
    return _best(grid, _depth_scores(x, y, grid, folds, beam_size, engine))


def _depth_scores(x, y, grid, folds, beam_size: int,
                  engine: str) -> list[list[float]]:
    """Test-fold WRAcc of every (m, fold) beam search, m-major."""
    scores = [[] for _ in grid]
    for train, test in folds:
        refiner = make_refiner(x[train], y[train], engine)
        for fold_scores, m in zip(scores, grid):
            box = beam_search(refiner, m, beam_size=beam_size).box
            fold_scores.append(wracc_score(box, x[test], y[test]))
    return scores
