"""Random forest metamodel (Breiman 2001) — the paper's "f" variant.

Bootstrap-aggregated CART trees with per-node feature subsampling.
For a binary response the average of leaf means across trees estimates
``P(y = 1 | x)``, which is exactly what REDS needs: soft labels for the
"p" variants and hard labels via the 0.5 threshold otherwise.

Both engines consume the seed generator identically — all bootstrap
draws first, then one spawned child generator per tree — so fits are
bit-reproducible across engines while the vectorized engine grows
trees level-synchronously in row-budget blocks through
:func:`repro.metamodels._kernels.grow_forest` and predicts through one
:class:`~repro.metamodels._kernels.StackedEnsemble` walk instead of a
per-tree Python loop.

Cross-validated tuning goes through :meth:`RandomForestModel.fold_predict`,
the forest's counterpart of boosting's ``staged_fold_predict``: the
forests of all folds grow together through the same kernel, in blocks
that may span folds, and each fold's held-out rows take one walk over
that fold's flat trees.  No per-fold model is built.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.engines import resolve as _resolve_engine
from repro.metamodels._kernels import StackedEnsemble, grow_forest
from repro.metamodels.base import check_fit_data, check_query
from repro.metamodels.tree import DecisionTreeRegressor

__all__ = ["RandomForestModel"]


class RandomForestModel:
    """Random forest probability estimator.

    Parameters
    ----------
    n_trees:
        Ensemble size.
    max_features:
        Features tried per split: an int, ``"sqrt"`` (default, the
        classification convention) or ``"third"`` (the regression
        convention, M/3).
    min_samples_leaf:
        Leaf size (>= 1); 1 grows fully deep trees as in the reference
        implementation.
    max_depth:
        Depth cap per tree: None (default, no cap) or >= 1.
    seed:
        Seed of the internal generator (bootstraps + feature draws).
    engine:
        ``"vectorized"`` (block tree growth + stacked prediction,
        default) or ``"reference"`` (per-tree loops).  Fitted trees and
        predictions are bit-identical across both.
    jobs:
        Worker processes (None = all CPUs, default 1) for the
        vectorized fit: :func:`~repro.metamodels._kernels.grow_forest`
        fans contiguous tree ranges out over the plan engine, for
        :meth:`fit` and for :meth:`fold_predict` (every tree's stream
        is independent by the draw-then-spawn generator protocol).
        Fits are bit-identical for every ``jobs``, so this is purely a
        throughput knob.  Prediction runs in the calling process;
        :func:`~repro.metamodels.base.predict_chunked` fans it out.
    """

    def __init__(
        self,
        n_trees: int = 100,
        max_features: int | str = "sqrt",
        min_samples_leaf: int = 1,
        max_depth: int | None = None,
        seed: int = 0,
        engine: str = "vectorized",
        jobs: int | None = 1,
    ) -> None:
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be None or >= 1, got {max_depth}")
        engine = _resolve_engine(engine)
        self.n_trees = n_trees
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.seed = seed
        self.engine = engine
        self.jobs = jobs
        self.trees_: list[DecisionTreeRegressor] = []
        self.n_features_: int | None = None
        self._stacked: StackedEnsemble | None = None

    def _resolve_max_features(self, m: int) -> int:
        if isinstance(self.max_features, int):
            k = self.max_features
        elif self.max_features == "sqrt":
            k = int(np.sqrt(m))
        elif self.max_features == "third":
            k = m // 3
        else:
            raise ValueError(f"unknown max_features {self.max_features!r}")
        return min(max(k, 1), m)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestModel":
        x, y = check_fit_data(x, y)
        rng = np.random.default_rng(self.seed)
        n, m = x.shape
        self.n_features_ = m
        mtry = self._resolve_max_features(m)

        self.trees_ = []
        self._stacked = None
        if self.engine == "vectorized":
            for _, block in self._grow(x, y, [rng], None, mtry):
                for arrays in block:
                    tree = DecisionTreeRegressor(
                        max_depth=self.max_depth,
                        min_samples_leaf=self.min_samples_leaf,
                        max_features=mtry, rng=rng,
                    )
                    (tree.feature, tree.threshold, tree.left, tree.right,
                     tree.value, tree.train_leaf_) = arrays
                    self.trees_.append(tree)
        else:
            boot = [rng.integers(0, n, size=n) for _ in range(self.n_trees)]
            rngs = rng.spawn(self.n_trees)
            for t in range(self.n_trees):
                idx = boot[t]
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=mtry, rng=rngs[t], engine="reference",
                )
                tree.fit(x[idx], y[idx])
                self.trees_.append(tree)
        return self

    def _grow(self, x, y, rngs, rows, mtry) -> list:
        return grow_forest(
            x, y, rngs, rows=rows, n_trees=self.n_trees,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=mtry, jobs=self.jobs)

    def fold_predict(self, x: np.ndarray, y: np.ndarray,
                     splits) -> list[np.ndarray]:
        """Held-out labels of this configuration on every ``(train, test)`` split.

        ``out[k]`` is bit-identical to ``predict(x[test_k])`` of this
        forest fitted on ``x[train_k]``.  The vectorized engine grows
        every fold's forest in one :func:`grow_forest` call over the
        shared ``x`` (each fold keeps its own ``default_rng(seed)``
        stream), walks each block's trees once for the held-out rows of
        their folds, and sums each row's leaf values in tree order, the
        sum :meth:`predict_proba` computes.  The reference engine fits
        one forest per fold.
        """
        x, y = check_fit_data(x, y)
        if self.engine != "vectorized":
            return [copy.copy(self).fit(x[train], y[train]).predict(x[test])
                    for train, test in splits]
        mtry = self._resolve_max_features(x.shape[1])
        blocks = self._grow(
            x, y, [np.random.default_rng(self.seed) for _ in splits],
            [train for train, _ in splits], mtry)
        tests = [test for _, test in splits]
        lens = np.array([len(test) for test in tests])
        starts = np.cumsum(lens) - lens
        held = np.concatenate(tests)
        # leaf[t, j]: tree t's value at held-out row j, for the forest
        # of row j's fold.
        leaf = np.empty((self.n_trees, held.size))
        for first, block in blocks:
            fold, t = np.divmod(first + np.arange(len(block)), self.n_trees)
            # One (tree, held-out row) pair per row of the tree's fold;
            # col is the pair's row position in ``held``.
            count = lens[fold]
            pair0 = np.cumsum(count) - count
            col = (np.repeat(starts[fold] - pair0, count)
                   + np.arange(count.sum()))
            leaf[np.repeat(t, count), col] = block.walk(
                x[held[col]], np.repeat(np.arange(len(block)), count))
        total = np.zeros(held.size)
        for values in leaf:
            total += values
        labels = (total / self.n_trees > 0.5).astype(np.int64)
        return np.split(labels, starts[1:])

    def _ensure_stacked(self) -> StackedEnsemble | None:
        """Build (once) the stacked prediction tables of a fitted forest."""
        if (self.engine == "vectorized" and self.trees_
                and self._stacked is None):
            self._stacked = StackedEnsemble(self.trees_)
        return self._stacked

    def _leaf_sum(self, x: np.ndarray, cut: float | None = None) -> np.ndarray:
        """Sum of every tree's leaf value per row (``cut``: see predict)."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")
        x = check_query(x, self.n_features_)
        if self.engine == "vectorized":
            return self._ensure_stacked().leaf_value_sum(x, cut=cut)
        total = np.zeros(len(x))
        for tree in self.trees_:
            total += tree.predict(x)
        return total

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean leaf response across trees, an estimate of ``P(y=1|x)``."""
        return self._leaf_sum(x) / len(self.trees_)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard labels with the majority (0.5) threshold.

        Bit-identical to ``predict_proba(x) > 0.5``.  The vectorized
        engine settles rows early: a row stops walking once the leaf
        ranges of its remaining trees can no longer move its tree sum
        across ``T/2`` (:meth:`StackedEnsemble.leaf_value_sum` with
        ``cut``), and comes back as a sum of ``+/-inf`` that the same
        ``sum / T > 0.5`` expression turns into its label.
        """
        total = self._leaf_sum(x, cut=0.5 * len(self.trees_))
        return (total / len(self.trees_) > 0.5).astype(np.int64)
