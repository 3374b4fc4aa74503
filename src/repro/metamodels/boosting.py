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
(:meth:`~GradientBoostingModel.staged_fold_predict`).  The chains are
stacked, not looped over:

* every chain's raw score, gradient and hessian is one slice of one
  vector, so a round takes one sigmoid;
* a round's trees of equal sample size grow as one block through the
  level-wise kernel (the reference engine runs its own per-tree
  grower instead), and the round's trees come back as one
  set of flat arrays with the trees as views of them (:class:`_Round`);
* the Newton step is one ``np.bincount`` over block-global leaf ids,
  reusing the training-row leaves recorded during growth, and the
  training scores update with one gather over those leaves;
* rows a tree did not train on (held-out folds, subsampled rows) take
  one level-wise walk of every chain's rows through the stacked node
  tables.

Work that does not change between rounds is done once: the vectorized
engine computes the :func:`~repro.metamodels._kernels.dense_ranks` of
each chain's rows once, and a block whose chains train on all rows and
all columns stacks its inputs and builds its
:class:`~repro.metamodels._kernels.BlockLayout` (column-flat values and
ranks, NaN map, root-level scan layout) once per round loop.  Every
step keeps the per-tree order of floating-point operations, so fits are
bit-identical to growing and updating each tree alone.
"""

from __future__ import annotations

import numpy as np

from repro.engines import resolve as _resolve_engine
from repro.metamodels._kernels import (
    BlockLayout,
    StackedEnsemble,
    _grow_block,
    dense_ranks,
    walk_flat,
)
from repro.metamodels.base import check_fit_data, check_query
from repro.metamodels.tree import _NO_FEATURE, DecisionTreeRegressor

__all__ = ["GradientBoostingModel"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _log_odds(y: np.ndarray) -> float:
    """Log-odds of the (clipped) base rate: every chain's start score."""
    rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    return float(np.log(rate / (1.0 - rate)))


def _check_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x, y = check_fit_data(x, y)
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError(
            "boosting fits binary labels: y must hold only 0 and 1 "
            "(the logistic loss is undefined elsewhere)")
    return x, y


class _Round:
    """One boosting round: every chain's tree, stacked in chain order.

    ``feature``/``threshold``/``left``/``right``/``value`` hold all trees'
    flat arrays back to back — chain ``c``'s tree spans
    ``offsets[c]:offsets[c + 1]`` and numbers its children locally — and
    ``train_leaf`` their training-row leaves back to back, ``sizes[c]``
    rows per chain.  :meth:`tree` hands out views, so leaf values the
    Newton step writes here are the trees' own.
    """

    def __init__(self, arrays, offsets: np.ndarray, sizes: np.ndarray,
                 cols: list[np.ndarray]) -> None:
        (self.feature, self.threshold, self.left, self.right, self.value,
         self.train_leaf) = arrays
        self.offsets = offsets
        self.sizes = sizes
        self.cols = cols

    @classmethod
    def stack(cls, parts, sizes, cols) -> "_Round":
        """Concatenate per-chain ``(feature, ..., train_leaf)`` tuples."""
        offsets = np.cumsum([0] + [len(part[0]) for part in parts])
        return cls([np.concatenate(a) for a in zip(*parts)], offsets,
                   sizes, cols)

    def newton(self, grad: np.ndarray, hess: np.ndarray,
               reg_lambda: float) -> np.ndarray:
        """Set every leaf to its regularised Newton step ``-G / (H + lambda)``.

        One ``np.bincount`` over block-global leaf ids sums each leaf's
        rows in row order, exactly as a per-tree bincount over its
        ``np.unique`` leaves would.  Only leaves hold training rows, and
        every hessian is positive, so ``H > 0`` selects exactly them;
        internal nodes keep their grown values.  Returns the global leaf
        id of every training row.
        """
        gid = self.train_leaf + np.repeat(self.offsets[:-1], self.sizes)
        g_sum = np.bincount(gid, weights=grad, minlength=self.offsets[-1])
        h_sum = np.bincount(gid, weights=hess, minlength=self.offsets[-1])
        leaf = h_sum > 0
        self.value[leaf] = -g_sum[leaf] / (h_sum[leaf] + reg_lambda)
        return gid

    def walk(self, x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Leaf value of every row ``x[i]`` in chain ``owner[i]``'s tree.

        One level-wise descent of all chains' rows through the stacked
        node tables, taking the same ``x <= thr`` branches as
        :meth:`DecisionTreeRegressor.apply` (tree features map back to
        the chain's drawn columns of ``x``).
        """
        feature = self.feature
        if self.cols[0].size < x.shape[1]:
            tree_of = np.repeat(np.arange(len(self.cols)),
                                np.diff(self.offsets))
            feature = np.where(feature != _NO_FEATURE,
                               np.stack(self.cols)[tree_of, feature],
                               _NO_FEATURE)
        return walk_flat((feature, self.threshold, self.left, self.right,
                          self.value), self.offsets, x, owner)

    def tree(self, c: int, tree: DecisionTreeRegressor) -> DecisionTreeRegressor:
        """Point an unfitted ``tree`` at chain ``c``'s views."""
        lo, hi = self.offsets[c], self.offsets[c + 1]
        start = int(self.sizes[:c].sum())
        tree.feature, tree.threshold, tree.left, tree.right, tree.value = (
            a[lo:hi] for a in (self.feature, self.threshold, self.left,
                               self.right, self.value))
        tree.train_leaf_ = self.train_leaf[start:start + self.sizes[c]]
        return tree


class GradientBoostingModel:
    """Second-order boosted trees with logistic loss.

    Parameters mirror the common XGBoost names: ``n_rounds``
    (nrounds), ``learning_rate`` (eta), ``max_depth``, ``reg_lambda``
    (L2 on leaf values), ``subsample``, ``colsample`` (per tree),
    ``min_child_weight`` (hessian floor per leaf).  ``engine`` selects
    the tree-growing and prediction kernels (``"vectorized"`` or
    ``"reference"``); fitted models and predictions are bit-identical
    across both.  Prediction runs in the calling process;
    :func:`~repro.metamodels.base.predict_chunked` fans it out.
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
        self.trees_: list[tuple[DecisionTreeRegressor, np.ndarray]] = []
        self.n_features_: int | None = None
        self.base_score_: float = 0.0
        self._stacked: StackedEnsemble | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingModel":
        x, y = _check_xy(x, y)
        self.n_features_ = x.shape[1]
        self.base_score_ = _log_odds(y)
        self._stacked = None
        self.trees_ = [(rnd.tree(0, self._new_tree()), rnd.cols[0])
                       for rnd in self._rounds([x], [y])]
        return self

    def staged_fold_predict(self, x: np.ndarray, y: np.ndarray, splits,
                            stages) -> dict[int, list[np.ndarray]]:
        """Held-out labels of this configuration cut at each of ``stages``.

        One chain per ``(train, test)`` split of ``splits`` grows
        ``max(stages)`` rounds on its training rows, all chains in
        lockstep through :meth:`_rounds`.  Each chain's held-out raw
        score starts at its training log-odds and accumulates
        ``raw += learning_rate * tree.predict(test)`` in round order —
        the elementwise sums :meth:`decision_function` performs, here
        for every chain's held-out rows at once — so ``out[r][k]`` is
        bit-identical to ``predict(x[test_k])`` of an ``r``-round model
        fitted on ``x[train_k]``: a round-``r`` model is the round-``r``
        prefix of any longer chain with its seed.
        """
        x, y = _check_xy(x, y)
        stages = sorted(set(stages))
        if not stages or stages[0] < 1 or stages[-1] > self.n_rounds:
            raise ValueError(
                f"stages must lie in [1, {self.n_rounds}], got {stages}")
        tests = [test for _, test in splits]
        x_test = x[np.concatenate(tests)]
        owner = np.repeat(np.arange(len(tests)), [len(t) for t in tests])
        cuts = np.cumsum([len(t) for t in tests])[:-1]
        raw = np.concatenate([np.full(len(test), _log_odds(y[train]))
                              for train, test in splits])
        chains = self._rounds([x[train] for train, _ in splits],
                              [y[train] for train, _ in splits])
        out: dict[int, list[np.ndarray]] = {}
        for done, rnd in enumerate(chains, start=1):
            raw += self.learning_rate * rnd.walk(x_test, owner)
            if done in stages:
                out[done] = np.split(
                    (_sigmoid(raw) > 0.5).astype(np.int64), cuts)
                if done == stages[-1]:
                    break
        return out

    def _rounds(self, xs: list[np.ndarray], ys: list[np.ndarray]):
        """The one round loop: a boosting chain per training set, in lockstep.

        A plain fit is the one-chain case; cross-validation runs one
        chain per fold.  Every chain owns a ``default_rng(seed)`` and
        draws its row/column subsamples in the same order a lone fit
        does, so chains never perturb each other.  All chains' raw
        scores, gradients and hessians live in one stacked vector, so a
        round takes one sigmoid, grows its trees (:meth:`_grow_round`),
        sets every leaf with one Newton step and updates every training
        score with one gather — or, when rows are subsampled, one walk.
        Yields each round's :class:`_Round`.
        """
        m = xs[0].shape[1]
        n_cols = max(1, int(round(self.colsample * m)))
        full_cols = n_cols >= m
        all_cols = np.arange(m)
        lens = [len(x) for x in xs]
        sizes = np.array([min(n, max(2, int(round(self.subsample * n))))
                          for n in lens])
        sub = sizes < lens
        # A chain on a row subsample updates its other rows by a walk.
        subsampled = bool(sub.any())
        rngs = [np.random.default_rng(self.seed) for _ in xs]
        y = np.concatenate(ys)
        raw = np.concatenate([np.full(len(yc), _log_odds(yc)) for yc in ys])
        if subsampled:
            x_all = np.concatenate(xs)
            owner = np.repeat(np.arange(len(xs)), lens)
            row_start = np.cumsum([0] + lens)
        # Features never change across rounds: rank each chain's rows
        # once and let every round's tree reuse the (gathered) integer
        # ranks — dense ranks order-embed any row/column subset.
        ranks = [dense_ranks(x) if self.engine == "vectorized" else None
                 for x in xs]
        blocks = self._blocks(xs, ranks, sizes, sub, full_cols)
        draws = [(None, all_cols)] * len(xs)
        for _ in range(self.n_rounds):
            prob = _sigmoid(raw)
            grad = prob - y
            hess = np.maximum(prob * (1.0 - prob), 1e-12)
            if subsampled or not full_cols:
                draws = [
                    (rng.choice(n, size=k, replace=False) if s else None,
                     all_cols if full_cols
                     else np.sort(rng.choice(m, size=n_cols, replace=False)))
                    for rng, n, k, s in zip(rngs, lens, sizes, sub)]
            if subsampled:
                take = np.concatenate([
                    start + (rows if rows is not None else np.arange(n))
                    for start, n, (rows, _) in zip(row_start, lens, draws)])
                grad, hess = grad[take], hess[take]
            rnd = self._grow_round(xs, ranks, draws, sizes, grad, hess,
                                   blocks)
            gid = rnd.newton(grad, hess, self.reg_lambda)
            # Growth partitions rows by the ``x <= thr`` rule prediction
            # walks, so full-row trees' recorded leaves are exactly their
            # predictions on the training rows.
            raw += self.learning_rate * (
                rnd.walk(x_all, owner) if subsampled else rnd.value[gid])
            yield rnd

    def _new_tree(self) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth, min_samples_leaf=1,
            min_child_weight=self.min_child_weight, engine=self.engine)

    def _blocks(self, xs, ranks, sizes, sub, full_cols) -> list[tuple]:
        """The vectorized engine's blocks: chains of equal sample size.

        Each is ``(chains, xb, ranks, layout)``.  A block whose chains
        train on all their rows and all columns sees the same inputs
        every round, so its stacked values, ranks and
        :class:`~repro.metamodels._kernels.BlockLayout` are built here
        once; any other block holds ``None`` for all three and gathers
        its inputs every round.
        """
        if self.engine != "vectorized":
            return []
        blocks = []
        for size in dict.fromkeys(sizes.tolist()):
            chains = np.flatnonzero(sizes == size)
            if full_cols and not sub[chains].any():
                xb = np.concatenate([xs[c] for c in chains])
                rb = np.concatenate([ranks[c] for c in chains])
                blocks.append((chains, xb, rb, BlockLayout(xb, rb)))
            else:
                blocks.append((chains, None, None, None))
        return blocks

    def _grow_round(self, xs, ranks, draws, sizes, grad, hess,
                    blocks) -> _Round:
        """One round's tree per chain, fit to ``-grad/hess`` weighted by ``hess``.

        ``grad``/``hess`` hold every chain's ``sizes[c]`` sampled rows in
        chain order.  The vectorized engine grows each block's trees as one
        level-synchronous :func:`_grow_block` call (trees of a block
        never share a node, so each comes out exactly as grown alone);
        the reference engine grows each tree alone.
        """
        cols = [c for _, c in draws]
        bounds = np.cumsum(np.concatenate(([0], sizes)))

        def inputs(c):
            (rows, cl), x, rk = draws[c], xs[c], ranks[c]
            if rows is not None:
                return (x[np.ix_(rows, cl)],
                        None if rk is None else rk[np.ix_(rows, cl)])
            if cl.size == x.shape[1]:
                return x, rk
            return x[:, cl], None if rk is None else rk[:, cl]

        if self.engine != "vectorized":
            parts = []
            for c in range(len(xs)):
                x, rk = inputs(c)
                g, h = grad[bounds[c]:bounds[c + 1]], hess[bounds[c]:bounds[c + 1]]
                tree = self._new_tree().fit(x, -g / h, sample_weight=h, ranks=rk)
                parts.append((tree.feature, tree.threshold, tree.left,
                              tree.right, tree.value, tree.train_leaf_))
            return _Round.stack(parts, sizes, cols)
        parts: list = [None] * len(xs)
        for chains, xb, rb, layout in blocks:
            if layout is None:
                xb, rb = (np.concatenate(a) for a in zip(*map(inputs, chains)))
            if len(chains) == len(xs):
                gb, hb = grad, hess
            else:
                gb, hb = (np.concatenate([a[bounds[c]:bounds[c + 1]]
                                          for c in chains])
                          for a in (grad, hess))
            grown = _grow_block(
                xb, -gb / hb, hb, rb, layout=layout,
                n_trees=len(chains), n_samp=int(sizes[chains[0]]),
                max_depth=self.max_depth, min_samples_leaf=1,
                min_child_weight=self.min_child_weight, max_features=None,
                rngs=[None] * len(chains))
            if len(chains) == len(xs):
                return _Round(grown.arrays, grown.offsets, sizes, cols)
            for c, tree in zip(chains, grown):
                parts[c] = tree
        return _Round.stack(parts, sizes, cols)

    def _ensure_stacked(self) -> StackedEnsemble | None:
        """Build (once) the stacked prediction tables of a fitted model."""
        if (self.engine == "vectorized" and self.trees_
                and self._stacked is None):
            self._stacked = StackedEnsemble(
                [tree for tree, _ in self.trees_],
                columns=[cols for _, cols in self.trees_])
        return self._stacked

    def _raw(self, x: np.ndarray, cut: float | None = None) -> np.ndarray:
        """Raw additive score per row (``cut``: see predict)."""
        if not self.trees_:
            raise RuntimeError("model is not fitted; call fit() first")
        x = check_query(x, self.n_features_)
        if self.engine == "vectorized":
            return self._ensure_stacked().leaf_value_sum(
                x, scale=self.learning_rate, init=self.base_score_, cut=cut)
        raw = np.full(len(x), self.base_score_)
        for tree, cols in self.trees_:
            raw += self.learning_rate * tree.predict(x[:, cols])
        return raw

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds scale)."""
        return self._raw(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Calibrated-by-loss probability estimate ``P(y=1|x)``."""
        return _sigmoid(self.decision_function(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard labels with the 0.5 probability threshold.

        Bit-identical to ``predict_proba(x) > 0.5``.  The vectorized
        engine settles rows early: a row stops walking once the scaled
        leaf ranges of its remaining rounds can no longer move its raw
        score across 0 (:meth:`StackedEnsemble.leaf_value_sum` with
        ``cut``), and comes back as a score of ``+/-inf`` that the same
        ``_sigmoid(raw) > 0.5`` expression turns into its label.
        """
        return (_sigmoid(self._raw(x, cut=0.0)) > 0.5).astype(np.int64)
