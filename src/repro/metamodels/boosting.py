"""Newton gradient boosting on logistic loss — the paper's "x" variant.

This is the algorithmic core of XGBoost (Chen & Guestrin 2016) at the
scale of the paper's experiments: each round fits a shallow CART tree to
the pseudo-response ``-g/h`` with hessian sample weights, then sets each
leaf to the regularised Newton step ``-G / (H + lambda)`` where ``G, H``
are the leaf's gradient/hessian sums.  Shrinkage, row subsampling and
column subsampling are supported; histogram building, sparsity handling
and distributed execution — irrelevant for N <= 3200 — are not.

One round loop (:meth:`GradientBoostingModel._rounds`) advances any
number of independent chains in lockstep: a fit is the one-chain case,
and cross-validated tuning runs one chain per fold
(:meth:`~GradientBoostingModel.staged_fold_predict`), growing each
round's trees of equal sample size as one block through the level-wise
kernel.  The Newton step reuses the training-row leaf assignments
recorded during growth (``tree.train_leaf_``) and reduces per-leaf
gradient/hessian sums with one ``np.bincount`` over inverse leaf
indices.  The vectorized and native engines compute the
:func:`~repro.metamodels._kernels.dense_ranks` of each chain's rows
once and reuse them every round, so no round re-sorts the unchanged
features.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.engines import resolve as _resolve_engine
from repro.metamodels._kernels import StackedEnsemble, _grow_block, dense_ranks
from repro.metamodels.tree import DecisionTreeRegressor

__all__ = ["GradientBoostingModel"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _log_odds(y: np.ndarray) -> float:
    """Log-odds of the (clipped) base rate: every chain's start score."""
    rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    return float(np.log(rate / (1.0 - rate)))


def _check_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError(f"x must be a non-empty 2-D array, got shape {x.shape}")
    if len(x) != len(y):
        raise ValueError(f"x and y disagree: {len(x)} vs {len(y)}")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError(
            "boosting fits binary labels: y must hold only 0 and 1 "
            "(the logistic loss is undefined elsewhere)")
    return x, y


class _Draw(NamedTuple):
    """One chain's round: its subsample and the tree's training inputs."""

    rows: np.ndarray | None  # sampled rows, None for all of them
    cols: np.ndarray
    x: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    ranks: np.ndarray | None


class GradientBoostingModel:
    """Second-order boosted trees with logistic loss.

    Parameters mirror the common XGBoost names: ``n_rounds``
    (nrounds), ``learning_rate`` (eta), ``max_depth``, ``reg_lambda``
    (L2 on leaf values), ``subsample``, ``colsample`` (per tree),
    ``min_child_weight`` (hessian floor per leaf).  ``engine`` selects
    the tree-growing and prediction kernels (``"vectorized"`` /
    ``"reference"`` / ``"native"``); fitted models and predictions are
    bit-identical across all three.  ``jobs``/``chunk_rows`` fan the stacked
    prediction walk out over worker processes against shared-memory
    query ranks — a pure throughput knob, bit-identical at every
    setting and irrelevant to fitting.
    """

    def __init__(
        self,
        n_rounds: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        colsample: float = 1.0,
        min_child_weight: float = 1.0,
        seed: int = 0,
        engine: str = "vectorized",
        jobs: int | None = 1,
        chunk_rows: int | None = None,
    ) -> None:
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if not 0.0 < colsample <= 1.0:
            raise ValueError(f"colsample must be in (0, 1], got {colsample}")
        engine = _resolve_engine(engine)
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.colsample = colsample
        self.min_child_weight = min_child_weight
        self.seed = seed
        self.engine = engine
        self.jobs = jobs
        self.chunk_rows = chunk_rows
        self.trees_: list[tuple[DecisionTreeRegressor, np.ndarray]] = []
        self.base_score_: float = 0.0
        self._stacked: StackedEnsemble | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingModel":
        x, y = _check_xy(x, y)
        self.base_score_ = _log_odds(y)
        self._stacked = None
        self.trees_ = [grown for (grown,) in self._rounds([x], [y])]
        return self

    def staged_fold_predict(self, x: np.ndarray, y: np.ndarray, splits,
                            stages) -> dict[int, list[np.ndarray]]:
        """Held-out labels of this configuration cut at each of ``stages``.

        One chain per ``(train, test)`` split of ``splits`` grows
        ``max(stages)`` rounds on its training rows, all chains in
        lockstep through :meth:`_rounds`.  Each chain's held-out raw
        score starts at its training log-odds and accumulates
        ``raw += learning_rate * tree.predict(test)`` in round order —
        the elementwise sums :meth:`decision_function` performs — so
        ``out[r][k]`` is bit-identical to ``predict(x[test_k])`` of an
        ``r``-round model fitted on ``x[train_k]``: a round-``r`` model
        is the round-``r`` prefix of any longer chain with its seed.
        """
        x, y = _check_xy(x, y)
        stages = sorted(set(stages))
        if not stages or stages[0] < 1 or stages[-1] > self.n_rounds:
            raise ValueError(
                f"stages must lie in [1, {self.n_rounds}], got {stages}")
        tests = [x[test] for _, test in splits]
        raws = [np.full(len(test), _log_odds(y[train]))
                for train, test in splits]
        chains = self._rounds([x[train] for train, _ in splits],
                              [y[train] for train, _ in splits])
        out: dict[int, list[np.ndarray]] = {}
        for done, grown in enumerate(chains, start=1):
            for raw, x_test, (tree, cols) in zip(raws, tests, grown):
                raw += self.learning_rate * tree.predict(
                    x_test if cols.size == x.shape[1] else x_test[:, cols])
            if done in stages:
                out[done] = [(_sigmoid(raw) > 0.5).astype(np.int64)
                             for raw in raws]
                if done == stages[-1]:
                    break
        return out

    def _rounds(self, xs: list[np.ndarray], ys: list[np.ndarray]):
        """The one round loop: a boosting chain per training set, in lockstep.

        A plain fit is the one-chain case; cross-validation runs one
        chain per fold.  Every chain owns a ``default_rng(seed)`` and
        draws its row/column subsamples in the same order a lone fit
        does, so chains never perturb each other.  Yields each chain's
        ``(tree, cols)`` after every round.
        """
        m = xs[0].shape[1]
        n_cols = max(1, int(round(self.colsample * m)))
        full_cols = n_cols >= m
        all_cols = np.arange(m)
        rngs = [np.random.default_rng(self.seed) for _ in xs]
        raws = [np.full(len(y), _log_odds(y)) for y in ys]
        n_rows = [max(2, int(round(self.subsample * len(x)))) for x in xs]
        # Features never change across rounds: rank each chain's rows
        # once and let every round's tree reuse the (gathered) integer
        # ranks — dense ranks order-embed any row/column subset.
        ranks = [dense_ranks(x) if self.engine != "reference" else None
                 for x in xs]
        for _ in range(self.n_rounds):
            draws = []
            for x, y, raw, rng, k, rk in zip(xs, ys, raws, rngs, n_rows,
                                             ranks):
                prob = _sigmoid(raw)
                grad = prob - y
                hess = np.maximum(prob * (1.0 - prob), 1e-12)
                rows = (rng.choice(len(x), size=k, replace=False)
                        if k < len(x) else None)
                cols = (np.sort(rng.choice(m, size=n_cols, replace=False))
                        if not full_cols else all_cols)
                if rows is None:
                    draws.append(_Draw(
                        rows, cols, x if full_cols else x[:, cols], grad,
                        hess, rk if rk is None or full_cols else rk[:, cols]))
                else:
                    draws.append(_Draw(
                        rows, cols, x[np.ix_(rows, cols)], grad[rows],
                        hess[rows], None if rk is None else rk[np.ix_(rows, cols)]))
            trees = self._grow_round(draws)

            grown = []
            for draw, tree, x, raw in zip(draws, trees, xs, raws):
                # Replace leaf means with the regularised Newton step:
                # one bincount over the leaf assignments recorded
                # during growth.
                leaves, inv = np.unique(tree.train_leaf_, return_inverse=True)
                g_sum = np.bincount(inv, weights=draw.grad)
                h_sum = np.bincount(inv, weights=draw.hess)
                tree.set_leaf_values(leaves, -g_sum / (h_sum + self.reg_lambda))
                # Growth partitions rows by the ``x <= thr`` rule
                # prediction walks, so a full-row tree's recorded leaves
                # are exactly its predictions on the training rows.
                raw += self.learning_rate * (
                    tree.value[tree.train_leaf_] if draw.rows is None
                    else tree.predict(x if full_cols else x[:, draw.cols]))
                grown.append((tree, draw.cols))
            yield grown

    def _grow_round(self, draws: list[_Draw]) -> list[DecisionTreeRegressor]:
        """One round's tree per chain, fit to ``-grad/hess`` weighted by ``hess``.

        The vectorized engine grows all chains whose trees sample the
        same number of rows as one level-synchronous block (trees of a
        block never share a node, so each comes out exactly as grown
        alone); the other engines run their own per-tree growers.
        """
        def new_tree() -> DecisionTreeRegressor:
            return DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=1,
                min_child_weight=self.min_child_weight, engine=self.engine)

        if self.engine != "vectorized":
            return [new_tree().fit(d.x, -d.grad / d.hess, sample_weight=d.hess,
                                   ranks=d.ranks)
                    for d in draws]
        trees: list = [None] * len(draws)
        sizes = [len(d.grad) for d in draws]
        for size in dict.fromkeys(sizes):
            chains = [c for c, s in enumerate(sizes) if s == size]
            block = [draws[c] for c in chains]
            grad, hess = (np.concatenate([d.grad for d in block]),
                          np.concatenate([d.hess for d in block]))
            grown = _grow_block(
                np.concatenate([d.x for d in block]), -grad / hess, hess,
                np.concatenate([d.ranks for d in block]),
                n_trees=len(block), n_samp=size, max_depth=self.max_depth,
                min_samples_leaf=1, min_child_weight=self.min_child_weight,
                max_features=None, rngs=[None] * len(block))
            for c, arrays in zip(chains, grown):
                tree = trees[c] = new_tree()
                (tree.feature, tree.threshold, tree.left, tree.right,
                 tree.value, tree.train_leaf_) = arrays
        return trees

    def _ensure_stacked(self) -> StackedEnsemble | None:
        """Build (once) the stacked prediction tables of a fitted model."""
        if (self.engine in ("vectorized", "native") and self.trees_
                and self._stacked is None):
            self._stacked = StackedEnsemble(
                [tree for tree, _ in self.trees_],
                columns=[cols for _, cols in self.trees_])
        return self._stacked

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds scale)."""
        if not self.trees_:
            raise RuntimeError("model is not fitted; call fit() first")
        x = np.asarray(x, dtype=float)
        if self.engine in ("vectorized", "native"):
            return self._ensure_stacked().leaf_value_sum(
                x, scale=self.learning_rate, init=self.base_score_,
                jobs=self.jobs, chunk_rows=self.chunk_rows,
                native=self.engine == "native")
        raw = np.full(len(x), self.base_score_)
        for tree, cols in self.trees_:
            raw += self.learning_rate * tree.predict(x[:, cols])
        return raw

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Calibrated-by-loss probability estimate ``P(y=1|x)``."""
        return _sigmoid(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard labels with the 0.5 probability threshold."""
        return (self.predict_proba(x) > 0.5).astype(np.int64)
