"""Cross-validation and caret-style hyperparameter tuning.

The paper tunes metamodels with "the default hyperparameter-optimization
procedure of the package caret" (Section 8.4.3): a small grid evaluated
with cross-validation, keeping the most accurate configuration.  This
module reproduces that behaviour with compact default grids per
metamodel family and also provides the generic k-fold splitter used by
the subgroup-discovery hyperparameter search.

The boosting grid (depth {2, 4} x rounds {60, 150} x 5 folds) is the
costliest step of a tuned REDS cell.  Three levers cut its work without
changing a single bit of any accuracy:

* **Round-prefix sharing.**  Candidates that differ only in
  ``n_rounds`` form one group.  Rounds are sequential and every round
  draws its subsamples from the chain's own ``default_rng(seed)``, so
  the first 60 trees of a 150-round fit *are* the 60-round fit.  One
  chain per (group, fold) runs to the group's largest ``n_rounds`` and
  snapshots its held-out labels at every ``n_rounds`` the group asks
  for.  The held-out raw score accumulates ``init + lr*v_1 + lr*v_2 +
  ...`` in tree order, the elementwise sums ``decision_function``
  performs, so each snapshot equals the shorter model's predictions.
* **Fold-lockstep growth.**  All fold chains of a group advance
  together through :meth:`GradientBoostingModel._rounds`.  Under the
  vectorized engine each round's trees with equal training-set size
  grow as one level-synchronous block.  Trees of a block never share a
  node, and every scan, prefix sum and argmax stays inside its tree,
  so each tree comes out exactly as grown alone.  The reference engine
  runs its own per-tree grower in the same loop.
* **Round-invariant, chain-stacked rounds.**  Work that repeats every
  round is done once per group: without row or column subsampling
  (the default grid) the fold chains train on all their rows and
  columns, so a block's stacked inputs and its root-level scan layout
  never change and are built once.  Work done once per
  chain is done once per round: the chains' scores, gradients and
  hessians form one stacked vector (one sigmoid), every leaf gets its
  Newton step from one ``np.bincount``, and the held-out rows of all
  folds take one walk through the round's stacked trees.  Each leaf
  still sums its rows in row order, and each held-out score still adds
  ``lr * v`` in tree order, so nothing changes by a bit.

Forest candidates (the ``max_features`` grid) are one-candidate groups
whose fold forests also grow in lockstep:
:meth:`RandomForestModel.fold_predict` grows every fold's trees through
one :func:`~repro.metamodels._kernels.grow_forest` call over the shared
dataset, in row-budget blocks that may span folds of equal size, and
labels each fold's held-out rows with one walk over that fold's trees.
Each fold keeps its own generator stream, so its trees and labels are
those of a forest fitted on the fold alone.  SVM candidates fit one
model per fold.  :func:`cross_val_accuracy` stays the plain
per-candidate loop: it is the oracle ``tests/test_tuning_equivalence.py``
pins :func:`grid_accuracies` against.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.metamodels.base import Metamodel
from repro.metamodels.boosting import GradientBoostingModel
from repro.metamodels.forest import RandomForestModel
from repro.metamodels.svm import SVMModel

__all__ = [
    "KFold",
    "cross_val_accuracy",
    "grid_accuracies",
    "tune_metamodel",
    "make_metamodel",
    "DEFAULT_GRIDS",
]


class KFold:
    """Shuffled k-fold splitter yielding (train_idx, test_idx) pairs."""

    def __init__(self, n_splits: int = 5, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        folds = np.array_split(order, self.n_splits)
        for k in range(self.n_splits):
            test = folds[k]
            train = np.concatenate([folds[i] for i in range(self.n_splits) if i != k])
            yield train, test


def cross_val_accuracy(
    factory: Callable[[], Metamodel],
    x: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    seed: int = 0,
) -> float:
    """Mean held-out accuracy of models built by ``factory``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    correct = 0
    total = 0
    for train, test in KFold(n_splits, seed).split(len(x)):
        model = factory().fit(x[train], y[train])
        predictions = model.predict(x[test])
        correct += int((predictions == y[test]).sum())
        total += len(test)
    return correct / total


def _cv_task(params: dict, stages: list, folds: list[int], *, kind: str,
             engine: str | None, n_splits: int, seed: int) -> list[int]:
    """Held-out correct counts of one candidate group over some folds.

    One count per entry of ``stages``: boosting groups share their
    chains across the group's ``n_rounds`` stages; other families are
    one-candidate groups with the single stage ``None``.  A forest
    candidate grows all its fold forests in one
    :meth:`~RandomForestModel.fold_predict` call; an SVM candidate fits
    one model per fold.  The dataset
    arrives through the execution-plan context (zero-copy shared memory
    in a pool worker) and the fold split is rebuilt from its
    seed, so a worker reaches the exact same train and test rows as an
    inline run; integer counts make the accuracy aggregation
    bit-identical however the folds are split into tasks.
    """
    from repro.experiments.parallel import plan_context

    context = plan_context()
    x, y = context["x"], context["y"]
    every = list(KFold(n_splits, seed).split(len(x)))
    splits = [every[k] for k in folds]
    if kind == "boosting":
        model = make_metamodel(kind, engine=engine, **params,
                               n_rounds=max(stages))
        labels = model.staged_fold_predict(x, y, splits, stages)
    elif kind == "forest":
        model = make_metamodel(kind, engine=engine, **params)
        labels = {None: model.fold_predict(x, y, splits)}
    else:
        labels = {None: [
            make_metamodel(kind, engine=engine, **params)
            .fit(x[train], y[train]).predict(x[test])
            for train, test in splits]}
    return [sum(int((predicted == y[test]).sum())
                for predicted, (_, test) in zip(labels[stage], splits))
            for stage in stages]


# ----------------------------------------------------------------------
# Default construction and tuning grids (caret-flavoured)
# ----------------------------------------------------------------------

def _forest_grid(m: int) -> list[dict]:
    # caret tunes mtry over a small spread around sqrt(M).
    mtries = sorted({max(1, int(np.sqrt(m))), max(1, m // 3), max(1, (2 * m) // 3)})
    return [{"max_features": k} for k in mtries]


def _boosting_grid(m: int) -> list[dict]:
    return [
        {"max_depth": depth, "n_rounds": rounds}
        for depth in (2, 4)
        for rounds in (60, 150)
    ]


def _svm_grid(m: int) -> list[dict]:
    return [{"c": c} for c in (0.25, 1.0, 4.0)]


DEFAULT_GRIDS: dict[str, Callable[[int], list[dict]]] = {
    "forest": _forest_grid,
    "boosting": _boosting_grid,
    "svm": _svm_grid,
}

#: ``n_rounds`` of a boosting candidate that does not set it.
_DEFAULT_ROUNDS = inspect.signature(GradientBoostingModel).parameters["n_rounds"].default

_CONSTRUCTORS: dict[str, Callable[..., Metamodel]] = {
    "forest": RandomForestModel,
    "boosting": GradientBoostingModel,
    "svm": SVMModel,
}


#: Families whose constructors take an ``engine`` argument.
_ENGINE_AWARE = frozenset({"forest", "boosting"})


def make_metamodel(kind: str, engine: str | None = None, **params) -> Metamodel:
    """Build a metamodel by family name: "forest", "boosting", "svm".

    ``engine`` selects the tree kernels (``"vectorized"`` /
    ``"reference"``) for the ensemble families and is ignored for
    families without an engine switch (SVM).
    """
    try:
        constructor = _CONSTRUCTORS[kind]
    except KeyError:
        raise KeyError(
            f"unknown metamodel {kind!r}; available: {sorted(_CONSTRUCTORS)}"
        ) from None
    if engine is not None and kind in _ENGINE_AWARE:
        params = {**params, "engine": engine}
    return constructor(**params)


def _candidate_groups(kind: str, candidates: list[dict]) -> list[tuple[dict, dict]]:
    """``(params, {candidate index: stage})`` groups, in grid order.

    Boosting candidates that differ only in ``n_rounds`` form one group
    whose stages are their round counts (a missing ``n_rounds`` is the
    constructor default); every other candidate is a group of its own
    with the single stage ``None``.
    """
    if kind != "boosting":
        return [(params, {index: None}) for index, params in enumerate(candidates)]
    groups: list[tuple[dict, dict]] = []
    for index, params in enumerate(candidates):
        rest = {key: value for key, value in params.items() if key != "n_rounds"}
        stage = params.get("n_rounds", _DEFAULT_ROUNDS)
        for shared, stages in groups:
            if shared == rest:
                stages[index] = stage
                break
        else:
            groups.append((rest, {index: stage}))
    return groups


def grid_accuracies(
    kind: str,
    x: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[dict],
    *,
    n_splits: int = 5,
    seed: int = 0,
    engine: str | None = None,
    jobs: int | None = 1,
) -> list[float]:
    """k-fold CV accuracy of every candidate, in grid order.

    Equal, float for float, to :func:`cross_val_accuracy` of each
    candidate built by :func:`make_metamodel` (pinned by
    ``tests/test_tuning_equivalence.py``), for every ``jobs``.  The
    work runs as (candidate group, fold subset) tasks through
    :func:`~repro.experiments.parallel.execute`: inline with one task
    per group at ``jobs <= 1``, otherwise ``min(n_splits, workers)``
    fold subsets per group fan out with the dataset published once
    through the shared-memory data plane.  Tasks return integer correct
    counts, so how the folds are split never changes a sum.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if len(x) < n_splits:
        raise ValueError(
            f"metamodel tuning runs {n_splits}-fold cross-validation and "
            f"needs at least {n_splits} training points, got {len(x)}; "
            "pass tune_metamodel=False to fit the default configuration")
    from repro.experiments.parallel import _resolve_jobs, execute

    workers = max(_resolve_jobs(jobs), 1)
    fold_sets = np.array_split(np.arange(n_splits), min(n_splits, workers))
    tasks, members = [], []
    for params, stages in _candidate_groups(kind, list(candidates)):
        for folds in fold_sets:
            tasks.append(dict(params=params, stages=sorted(set(stages.values())),
                              folds=folds.tolist(), kind=kind, engine=engine,
                              n_splits=n_splits, seed=seed))
            members.append(stages)
    counts = execute(_cv_task, tasks, jobs, shared={"x": x, "y": y})

    correct = [0] * len(candidates)
    for task, stages, task_counts in zip(tasks, members, counts):
        by_stage = dict(zip(task["stages"], task_counts))
        for index, stage in stages.items():
            correct[index] += by_stage[stage]
    return [c / len(x) for c in correct]


def tune_metamodel(
    kind: str,
    x: np.ndarray,
    y: np.ndarray,
    *,
    grid: Sequence[dict] | None = None,
    n_splits: int = 5,
    seed: int = 0,
    engine: str | None = None,
    jobs: int | None = 1,
) -> Metamodel:
    """Grid-search a metamodel with CV accuracy and refit on all data.

    Mirrors caret's default behaviour: evaluate a compact grid with
    :func:`grid_accuracies`, pick the most accurate configuration (the
    first in grid order on ties), train the final model on the full
    dataset.  Degenerate single-class data and one-candidate grids skip
    the search.  ``engine`` is threaded through to every fit; the
    chosen configuration and the refit model are the same for every
    ``engine`` and ``jobs``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise ValueError(
            f"tuning needs a 2-D x with one row per label in a 1-D y, got "
            f"shapes {x.shape} and {y.shape}")
    candidates = list(grid) if grid is not None else DEFAULT_GRIDS[kind](x.shape[1])
    if not candidates:
        raise ValueError(f"tuning grid for {kind!r} is empty")
    if len(np.unique(y)) < 2 or len(candidates) == 1:
        return make_metamodel(kind, engine=engine, **candidates[0]).fit(x, y)
    accuracies = grid_accuracies(kind, x, y, candidates, n_splits=n_splits,
                                 seed=seed, engine=engine, jobs=jobs)
    # argmax keeps the first of tied candidates, as caret does.
    best = int(np.argmax(accuracies))
    return make_metamodel(kind, engine=engine, **candidates[best]).fit(x, y)
