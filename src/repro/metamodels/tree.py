"""Weighted CART regression tree — the shared building block.

One tree implementation serves both ensemble metamodels:

* the random forest grows deep trees on bootstrap samples with feature
  subsampling, averaging leaf means of the binary response (which makes
  the forest output a probability estimate);
* Newton boosting fits shallow trees to the pseudo-response ``-g/h``
  with hessian sample weights, then replaces the leaf values with the
  regularised Newton step (see :mod:`repro.metamodels.boosting`).

Splits minimise the weighted sum of squared errors, found by the classic
sorted-scan with prefix sums; for a binary response this is equivalent
to Gini-impurity splitting, so nothing is lost relative to a dedicated
classification tree.

Two engines grow the same tree breadth-first:

* ``engine="vectorized"`` (default) — the sort-once level-wise kernel
  of :mod:`repro.metamodels._kernels`: each column is float-sorted once
  per fit into dense integer ranks, every level's splits are found by
  one padded radix-sorted prefix-sum scan over all (node, feature)
  pairs at once, and rows partition into children arithmetically;
* ``engine="reference"`` — the pinned per-node scan that re-argsorts
  every candidate feature at every node.

Both produce bit-identical flat arrays (feature, threshold, children,
value — pinned by ``tests/test_tree_equivalence.py``), which make batch
prediction a handful of vectorised index operations per tree level
instead of a Python recursion per row.
"""

from __future__ import annotations

import numpy as np

from repro.engines import resolve as _resolve_engine
from repro.metamodels._kernels import draw_candidates, grow_tree

__all__ = ["DecisionTreeRegressor"]

_NO_FEATURE = -1


class DecisionTreeRegressor:
    """CART regression tree with sample weights and feature subsampling.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or hit
        ``min_samples_leaf``.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features examined per split; ``None`` uses all.  When
        set, a fresh random subset is drawn at every node (the random
        forest convention), which requires ``rng``.
    min_child_weight:
        Minimum total sample weight in each child (used as the hessian
        floor by boosting).
    rng:
        Random generator for feature subsampling.  Both engines draw
        each level's candidate subsets with one batched call
        (:func:`~repro.metamodels._kernels.draw_candidates`), so fits
        are bit-reproducible across engines.
    engine:
        ``"vectorized"`` (sort-once level-wise kernel, default) or
        ``"reference"`` (per-node re-sorting scan).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        min_child_weight: float = 0.0,
        rng: np.random.Generator | None = None,
        engine: str = "vectorized",
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_features is not None and rng is None:
            raise ValueError("feature subsampling (max_features) requires rng")
        engine = _resolve_engine(engine)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_child_weight = min_child_weight
        self.rng = rng
        self.engine = engine
        # Flat representation, filled by fit().
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        #: Leaf node of each training row, recorded during fit() so
        #: boosting's Newton step never re-walks the training data.
        self.train_leaf_: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None,
            ranks: np.ndarray | None = None) -> "DecisionTreeRegressor":
        """Fit the tree.

        ``ranks`` optionally passes the precomputed
        :func:`~repro.metamodels._kernels.dense_ranks` of ``x`` so
        repeated fits on the same inputs (boosting rounds) skip the
        sort-once step; it is ignored by the reference engine, which
        re-sorts per node anyway.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError(f"x and y disagree: {len(x)} vs {len(y)}")
        if len(x) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if sample_weight is None:
            weight = np.ones(len(y))
        else:
            weight = np.asarray(sample_weight, dtype=float)
            if (weight < 0).any() or weight.sum() <= 0:
                raise ValueError("sample weights must be non-negative with positive sum")

        if self.engine == "vectorized":
            arrays = grow_tree(
                x, y, weight,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                min_child_weight=self.min_child_weight,
                max_features=self.max_features,
                rng=self.rng,
                ranks=ranks,
            )
        else:
            arrays = self._grow_reference(x, y, weight)
        (self.feature, self.threshold, self.left, self.right,
         self.value, self.train_leaf_) = arrays
        return self

    def _grow_reference(self, x: np.ndarray, y: np.ndarray, weight: np.ndarray):
        """Breadth-first per-node builder (the pinned reference engine).

        Nodes are processed level by level in FIFO order, which numbers
        each level's nodes contiguously — what lets the level-wise
        kernel produce bit-identical arrays.  Candidate feature subsets
        for all of a level's split-eligible nodes are drawn with one
        batched :func:`~repro.metamodels._kernels.draw_candidates` call
        (the kernel issues the identical call), so fits with feature
        subsampling are bit-reproducible across engines.
        """
        n, m = x.shape
        subsample = self.max_features is not None and self.max_features < m
        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        train_leaf = np.empty(n, dtype=np.int64)

        def new_node() -> int:
            features.append(_NO_FEATURE)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            values.append(0.0)
            return len(features) - 1

        root = new_node()
        level: list[tuple[int, np.ndarray]] = [(root, np.arange(n))]
        depth = 0
        while level:
            eligible: list[tuple[int, np.ndarray]] = []
            for node, idx in level:
                y_node = y[idx]
                w_node = weight[idx]
                w_sum = w_node.sum()
                values[node] = (float(np.average(y_node, weights=w_node))
                                if w_sum > 0 else 0.0)
                if (
                    (self.max_depth is not None and depth >= self.max_depth)
                    or len(idx) < 2 * self.min_samples_leaf
                    or np.all(y_node == y_node[0])
                ):
                    train_leaf[idx] = node
                else:
                    eligible.append((node, idx))

            cand = (draw_candidates(self.rng, len(eligible), m,
                                    self.max_features)
                    if subsample and eligible else None)

            next_level: list[tuple[int, np.ndarray]] = []
            for j, (node, idx) in enumerate(eligible):
                candidates = cand[j] if cand is not None else np.arange(m)
                split = self._best_split(x[idx], y[idx], weight[idx],
                                         candidates)
                if split is None:
                    train_leaf[idx] = node
                    continue
                feat, thr = split
                go_left = x[idx, feat] <= thr
                left_id = new_node()
                right_id = new_node()
                features[node] = feat
                thresholds[node] = thr
                lefts[node] = left_id
                rights[node] = right_id
                next_level.append((left_id, idx[go_left]))
                next_level.append((right_id, idx[~go_left]))
            level = next_level
            depth += 1

        return (
            np.array(features, dtype=np.int64),
            np.array(thresholds, dtype=float),
            np.array(lefts, dtype=np.int64),
            np.array(rights, dtype=np.int64),
            np.array(values, dtype=float),
            train_leaf,
        )

    def _best_split(self, x: np.ndarray, y: np.ndarray, w: np.ndarray,
                    candidates: np.ndarray) -> tuple[int, float] | None:
        """Weighted-SSE-optimal (feature, threshold) or None.

        Scans candidate features with the sorted prefix-sum trick: for a
        split after sorted position k, the SSE reduction is
        ``Sl^2/Wl + Sr^2/Wr - S^2/W`` with ``S`` the weighted response
        sums — only the first two terms vary, so we maximise those.
        """
        n, m = x.shape
        best_gain = 1e-12  # require a strictly positive improvement
        best: tuple[int, float] | None = None
        min_leaf = self.min_samples_leaf
        for feat in candidates:
            order = np.argsort(x[:, feat], kind="stable")
            xs = x[order, feat]
            ws = w[order]
            wys = ws * y[order]

            cum_w = np.cumsum(ws)
            cum_wy = np.cumsum(wys)
            total_w = cum_w[-1]
            total_wy = cum_wy[-1]
            if total_w <= 0:
                continue

            # Split positions: after index k (0-based), left has k+1 points.
            pos = np.arange(min_leaf - 1, n - min_leaf)
            if len(pos) == 0:
                continue
            # Exclude splits between equal feature values.
            distinct = xs[pos] < xs[pos + 1]
            pos = pos[distinct]
            if len(pos) == 0:
                continue

            wl = cum_w[pos]
            wr = total_w - wl
            if self.min_child_weight > 0:
                ok = (wl >= self.min_child_weight) & (wr >= self.min_child_weight)
                pos, wl, wr = pos[ok], wl[ok], wr[ok]
                if len(pos) == 0:
                    continue
            sl = cum_wy[pos]
            sr = total_wy - sl
            # Explicit multiplications, not `** 2`: scalar float64 pow
            # takes the C `pow` path, which can be an ulp away from the
            # multiply the array path uses — the engines must agree.
            gain = sl * sl / np.maximum(wl, 1e-300) \
                + sr * sr / np.maximum(wr, 1e-300)
            gain -= total_wy * total_wy / total_w

            k = int(np.argmax(gain))
            if gain[k] > best_gain:
                thr = float(0.5 * (xs[pos[k]] + xs[pos[k] + 1]))
                # A usable threshold must partition the node: midpoints
                # that fall outside [min, max) (NaN from inf-straddling
                # values, or +/-inf from overflowing huge ones) would
                # leave one child empty and the other equal to its
                # parent — growth would never terminate.  A NaN column
                # maximum means NaN rows exist, and those always land in
                # the right child, so only `min <= thr` matters then.
                if not (xs[0] <= thr and (thr < xs[-1] or np.isnan(xs[-1]))):
                    continue
                best_gain = float(gain[k])
                best = (int(feat), thr)
        return best

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.feature is None:
            raise RuntimeError("tree is not fitted; call fit() first")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf index for each row of ``x`` (vectorised level-wise walk)."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        node = np.zeros(len(x), dtype=np.int64)
        active = self.feature[node] != _NO_FEATURE
        while active.any():
            rows = np.nonzero(active)[0]
            cur = node[rows]
            feat = self.feature[cur]
            go_left = x[rows, feat] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
            active[rows] = self.feature[node[rows]] != _NO_FEATURE
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf mean response for each row of ``x``."""
        return self.value[self.apply(x)]

    @property
    def n_nodes(self) -> int:
        self._check_fitted()
        return len(self.feature)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (root-only tree has depth 0)."""
        self._check_fitted()
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            splitting = frontier[self.feature[frontier] != _NO_FEATURE]
            if not splitting.size:
                return depth
            frontier = np.concatenate(
                (self.left[splitting], self.right[splitting]))
            depth += 1
