"""Random forest metamodel (Breiman 2001) — the paper's "f" variant.

Bootstrap-aggregated CART trees with per-node feature subsampling.
For a binary response the average of leaf means across trees estimates
``P(y = 1 | x)``, which is exactly what REDS needs: soft labels for the
"p" variants and hard labels via the 0.5 threshold otherwise.

Both engines consume the seed generator identically — all bootstrap
draws first, then one spawned child generator per tree — so fits are
bit-reproducible across engines while the vectorized engine grows
whole blocks of trees level-synchronously through
:func:`repro.metamodels._kernels.grow_forest` and predicts through one
:class:`~repro.metamodels._kernels.StackedEnsemble` walk instead of a
per-tree Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.engines import resolve as _resolve_engine
from repro.metamodels._kernels import StackedEnsemble, grow_forest
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
        Leaf size; 1 grows fully deep trees as in the reference
        implementation.
    seed:
        Seed of the internal generator (bootstraps + feature draws).
    engine:
        ``"vectorized"`` (block tree growth + stacked prediction,
        default) or ``"reference"`` (per-tree loops).  Fitted trees and
        predictions are bit-identical across both.
    jobs:
        Worker processes (None = all CPUs, default 1) for prediction
        *and* for the vectorized fit: the stacked walk fans contiguous
        row chunks out over the plan engine against shared-memory
        query ranks, and :func:`~repro.metamodels._kernels.grow_forest`
        fans contiguous tree ranges the same way (every tree's stream
        is independent by the draw-then-spawn generator protocol).
        Fits and predictions are bit-identical for every
        ``jobs``/``chunk_rows`` setting, so this is purely a throughput
        knob.
    chunk_rows:
        Rows per prediction fan-out chunk (default: one chunk per
        worker).
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
        chunk_rows: int | None = None,
    ) -> None:
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        engine = _resolve_engine(engine)
        self.n_trees = n_trees
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.seed = seed
        self.engine = engine
        self.jobs = jobs
        self.chunk_rows = chunk_rows
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
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) != len(y):
            raise ValueError(f"x and y disagree: {len(x)} vs {len(y)}")
        rng = np.random.default_rng(self.seed)
        n, m = x.shape
        self.n_features_ = m
        mtry = self._resolve_max_features(m)

        self.trees_ = []
        self._stacked = None
        if self.engine == "vectorized":
            grown = grow_forest(
                x, y, n_trees=self.n_trees, max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=mtry, rng=rng, jobs=self.jobs,
            )
            for arrays in grown:
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

    def _ensure_stacked(self) -> StackedEnsemble | None:
        """Build (once) the stacked prediction tables of a fitted forest."""
        if (self.engine == "vectorized" and self.trees_
                and self._stacked is None):
            self._stacked = StackedEnsemble(self.trees_)
        return self._stacked

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean leaf response across trees, an estimate of ``P(y=1|x)``."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")
        x = np.asarray(x, dtype=float)
        if self.engine == "vectorized":
            total = self._ensure_stacked().leaf_value_sum(
                x, jobs=self.jobs, chunk_rows=self.chunk_rows)
        else:
            total = np.zeros(len(x))
            for tree in self.trees_:
                total += tree.predict(x)
        return total / len(self.trees_)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard labels with the majority (0.5) threshold."""
        return (self.predict_proba(x) > 0.5).astype(np.int64)
