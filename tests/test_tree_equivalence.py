"""Engine-equivalence suite for the metamodel tree kernels.

Pins the contract that makes ``engine="vectorized"`` safe everywhere:
for trees, forests and boosting, the fitted flat arrays (feature,
threshold, left, right, value), the training-row leaf assignments and
all predictions are bit-identical to ``engine="reference"`` — including
sample weights, ``min_child_weight``, heavily tied feature values,
feature subsampling (shared generator stream) and degenerate one-class
data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metamodels import (
    DecisionTreeRegressor,
    GradientBoostingModel,
    RandomForestModel,
)
from repro.metamodels._kernels import (
    _FOREST_BLOCK_ROWS,
    StackedEnsemble,
    dense_ranks,
)

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "train_leaf_")


def assert_same_tree(tv, tr, context=""):
    for name in TREE_ARRAYS:
        a, b = getattr(tv, name), getattr(tr, name)
        assert np.array_equal(a, b), f"{context}: {name} differs"


def fit_both(x, y, w=None, **kw):
    tv = DecisionTreeRegressor(engine="vectorized", **kw).fit(x, y, w)
    tr = DecisionTreeRegressor(engine="reference", **kw).fit(x, y, w)
    return tv, tr


class TestTreeEquivalence:
    @pytest.mark.parametrize("trial", range(12))
    def test_randomized_fits_bit_equal(self, trial):
        r = np.random.default_rng(trial)
        n = int(r.integers(2, 400))
        m = int(r.integers(1, 8))
        x = r.normal(size=(n, m))
        if trial % 2:
            x = np.round(x, 1)  # heavy ties
        y = r.normal(size=n)
        w = r.random(n) + 1e-3
        if trial % 3 == 0:
            w[r.random(n) < 0.2] = 0.0  # zero-weight rows
            if w.sum() == 0:
                w[0] = 1.0
        for kw in ({}, {"max_depth": 4}, {"min_samples_leaf": 3},
                   {"min_child_weight": 0.5}):
            tv, tr = fit_both(x, y, w, **kw)
            assert_same_tree(tv, tr, f"trial {trial} {kw}")
            xq = r.normal(size=(40, m))
            assert np.array_equal(tv.predict(xq), tr.predict(xq))
            assert np.array_equal(tv.apply(xq), tr.apply(xq))

    @pytest.mark.parametrize("trial", range(8))
    def test_feature_subsampling_same_stream(self, trial):
        r = np.random.default_rng(100 + trial)
        n, m = int(r.integers(20, 300)), int(r.integers(2, 9))
        x = np.round(r.normal(size=(n, m)), 1)
        y = (r.random(n) < 0.5).astype(float)
        k = max(1, m // 2)
        tv = DecisionTreeRegressor(
            engine="vectorized", max_features=k,
            rng=np.random.default_rng(trial)).fit(x, y)
        tr = DecisionTreeRegressor(
            engine="reference", max_features=k,
            rng=np.random.default_rng(trial)).fit(x, y)
        assert_same_tree(tv, tr, f"subsampled trial {trial}")

    def test_one_class_data_is_a_root_leaf(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        for y in (np.zeros(50), np.ones(50)):
            tv, tr = fit_both(x, y)
            assert_same_tree(tv, tr)
            assert tv.n_nodes == 1
            assert tv.depth == 0
            assert np.array_equal(tv.train_leaf_, np.zeros(50, dtype=np.int64))

    def test_constant_features_are_a_root_leaf(self):
        x = np.ones((30, 4))
        y = np.arange(30.0)
        tv, tr = fit_both(x, y)
        assert_same_tree(tv, tr)
        assert tv.n_nodes == 1

    def test_single_row(self):
        tv, tr = fit_both(np.array([[1.0, 2.0]]), np.array([3.0]))
        assert_same_tree(tv, tr)

    def test_precomputed_ranks_change_nothing(self):
        r = np.random.default_rng(5)
        x = np.round(r.normal(size=(120, 4)), 1)
        y = r.normal(size=120)
        w = r.random(120) + 0.01
        plain = DecisionTreeRegressor().fit(x, y, w)
        ranked = DecisionTreeRegressor().fit(x, y, w, ranks=dense_ranks(x))
        assert_same_tree(plain, ranked)

    def test_inf_straddling_feature_terminates_and_matches(self):
        # The -inf/+inf midpoint is NaN; such degenerate thresholds
        # would leave a child empty (and growth would never terminate),
        # so both engines must skip them identically.
        x = np.array([[-np.inf], [np.inf], [np.inf], [-np.inf]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        tv, tr = fit_both(x, y)
        assert_same_tree(tv, tr)
        assert tv.n_nodes == 1  # the only candidate threshold is NaN
        assert np.isfinite(tv.threshold).all()

    def test_overflowing_midpoint_terminates_and_matches(self):
        big = 1.7e308
        x = np.array([[-big], [-big / 2], [big / 2], [big]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tv, tr = fit_both(x, y)
        assert_same_tree(tv, tr)
        assert np.isfinite(tv.threshold[tv.feature != -1]).all()
        xq = np.array([[-np.inf], [-1.0], [0.0], [1.0], [np.inf]])
        assert np.array_equal(tv.predict(xq), tr.predict(xq))

    def test_inf_feature_values_with_finite_splits(self):
        # +/-inf feature values are legal inputs; splits between finite
        # values must still work and agree across engines.
        r = np.random.default_rng(9)
        x = r.normal(size=(100, 3))
        x[:5, 0] = np.inf
        x[5:10, 0] = -np.inf
        y = (r.random(100) < 0.5).astype(float)
        tv, tr = fit_both(x, y)
        assert_same_tree(tv, tr)
        xq = r.normal(size=(50, 3))
        xq[0, 0] = np.inf
        xq[1, 0] = -np.inf
        assert np.array_equal(tv.predict(xq), tr.predict(xq))

    def test_nan_feature_values_still_split_and_match(self):
        # NaN rows always fall in the right child (x <= thr is False);
        # a column with a few NaNs must still split on its finite part,
        # identically across engines.
        r = np.random.default_rng(12)
        x = r.normal(size=(60, 2))
        x[:4, 0] = np.nan
        y = (x[:, 0] > 0.0).astype(float)
        y[:4] = 1.0
        for kw in ({}, {"max_depth": 2}):
            tv, tr = fit_both(x, y, **kw)
            assert_same_tree(tv, tr, f"nan {kw}")
        assert tv.n_nodes > 1  # the NaN column still splits
        xq = r.normal(size=(30, 2))
        xq[0, 0] = np.nan
        assert np.array_equal(tv.predict(xq), tr.predict(xq))

    def test_stacked_trees_keep_their_own_nan_ranks(self):
        # Boosting's fold chains grow as one block with per-chain rank
        # matrices, so a NaN in one tree shares its rank with a finite
        # value in another: tree A's NaN rank is 3, tree B's best split
        # sits just before its rank-3 value.  Each tree must come out
        # exactly as grown alone.
        from repro.metamodels._kernels import _grow_block, grow_tree

        xa = np.array([0.1, 0.2, 0.3] + [np.nan] * 7)[:, None]
        ya = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        xb = np.arange(10, dtype=float)[:, None]
        yb = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1], dtype=float)
        kw = dict(max_depth=1, min_samples_leaf=1, min_child_weight=0.0,
                  max_features=None)
        # Non-unit weights take the weighted scan boosting uses.
        alone = [grow_tree(x, y, np.full(10, 0.5), rng=None, **kw)
                 for x, y in ((xa, ya), (xb, yb))]
        stacked = _grow_block(
            np.vstack((xa, xb)), np.concatenate((ya, yb)), np.full(20, 0.5),
            np.vstack((dense_ranks(xa), dense_ranks(xb))), n_trees=2,
            n_samp=10, rngs=[None, None], **kw)
        for single, block in zip(alone, stacked):
            for a, b in zip(single, block):
                assert np.array_equal(a, b, equal_nan=True)
        assert stacked[1][1][0] == 2.5  # tree B splits between 2 and 3

    def test_all_nan_column_is_ignored(self):
        r = np.random.default_rng(13)
        x = r.normal(size=(40, 2))
        x[:, 1] = np.nan
        y = (x[:, 0] > 0.0).astype(float)
        tv, tr = fit_both(x, y)
        assert_same_tree(tv, tr)
        assert np.all(tv.feature[tv.feature != -1] == 0)

    def test_train_leaf_matches_apply_on_training_data(self):
        r = np.random.default_rng(7)
        x = np.round(r.normal(size=(200, 5)), 1)
        y = r.normal(size=200)
        tv, tr = fit_both(x, y)
        assert np.array_equal(tv.train_leaf_, tv.apply(x))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hypothesis_fits_bit_equal(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        # A tiny value alphabet forces tied feature values and tied
        # gains — the hard cases for stable-order and tie-break parity.
        vals = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0])
        x = np.array(data.draw(
            st.lists(st.lists(vals, min_size=m, max_size=m),
                     min_size=n, max_size=n), label="x"))
        y = np.array(data.draw(
            st.lists(st.sampled_from([0.0, 1.0, 0.5, -2.0]),
                     min_size=n, max_size=n), label="y"))
        w = np.array(data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                     min_size=n, max_size=n), label="w"))
        if w.sum() <= 0:
            w[0] = 1.0
        mcw = data.draw(st.sampled_from([0.0, 1.0]), label="mcw")
        msl = data.draw(st.integers(1, 3), label="msl")
        tv, tr = fit_both(x.reshape(n, m), y, w,
                          min_child_weight=mcw, min_samples_leaf=msl)
        assert_same_tree(tv, tr, "hypothesis")


class TestForestEquivalence:
    @pytest.mark.parametrize("trial", range(4))
    def test_forest_fit_and_predict_bit_equal(self, trial):
        r = np.random.default_rng(trial)
        n, m = int(r.integers(30, 200)), int(r.integers(2, 7))
        x = np.round(r.normal(size=(n, m)), 1) if trial % 2 \
            else r.normal(size=(n, m))
        # trial 3 exercises the non-binary-response (non-exact-sums) path
        y = r.normal(size=n) if trial == 3 else (r.random(n) < 0.5).astype(float)
        for kw in ({}, {"max_depth": 3}, {"min_samples_leaf": 4},
                   {"max_features": "third"}):
            fv = RandomForestModel(n_trees=9, seed=trial,
                                   engine="vectorized", **kw).fit(x, y)
            fr = RandomForestModel(n_trees=9, seed=trial,
                                   engine="reference", **kw).fit(x, y)
            for t, (tv, tr) in enumerate(zip(fv.trees_, fr.trees_)):
                assert_same_tree(tv, tr, f"trial {trial} {kw} tree {t}")
            xq = r.normal(size=(80, m))
            assert np.array_equal(fv.predict_proba(xq), fr.predict_proba(xq))
            assert np.array_equal(fv.predict(xq), fr.predict(xq))

    def test_forest_block_boundary(self):
        # More trees than one growth block, so block-synchronous growth
        # and the per-tree spawned streams are both exercised: a block
        # holds _FOREST_BLOCK_ROWS // n trees, 16 at n = 2048.
        n = 2048
        assert 19 > _FOREST_BLOCK_ROWS // n
        r = np.random.default_rng(0)
        x = np.round(r.normal(size=(n, 3)), 1)
        y = (r.random(n) < 0.4).astype(float)
        fv = RandomForestModel(n_trees=19, seed=1, engine="vectorized").fit(x, y)
        fr = RandomForestModel(n_trees=19, seed=1, engine="reference").fit(x, y)
        for t, (tv, tr) in enumerate(zip(fv.trees_, fr.trees_)):
            assert_same_tree(tv, tr, f"tree {t}")

    def test_same_seed_same_forest_across_calls(self):
        r = np.random.default_rng(2)
        x = r.normal(size=(80, 4))
        y = (r.random(80) < 0.5).astype(float)
        a = RandomForestModel(n_trees=5, seed=9).fit(x, y)
        b = RandomForestModel(n_trees=5, seed=9).fit(x, y)
        xq = r.normal(size=(30, 4))
        assert np.array_equal(a.predict_proba(xq), b.predict_proba(xq))


class TestBoostingEquivalence:
    @pytest.mark.parametrize("kw", [
        {},
        {"max_depth": 2},
        {"subsample": 0.7, "colsample": 0.6},
        {"reg_lambda": 0.0, "min_child_weight": 0.0},
    ])
    def test_boosting_fit_and_predict_bit_equal(self, kw):
        r = np.random.default_rng(3)
        n, m = 150, 5
        x = np.round(r.normal(size=(n, m)), 1)
        y = (r.random(n) < 0.5).astype(float)
        gv = GradientBoostingModel(n_rounds=10, seed=3,
                                   engine="vectorized", **kw).fit(x, y)
        gr = GradientBoostingModel(n_rounds=10, seed=3,
                                   engine="reference", **kw).fit(x, y)
        assert gv.base_score_ == gr.base_score_
        for t, ((tv, cv), (tr, cr)) in enumerate(zip(gv.trees_, gr.trees_)):
            assert np.array_equal(cv, cr)
            assert_same_tree(tv, tr, f"{kw} round {t}")
        xq = r.normal(size=(120, m))
        assert np.array_equal(gv.decision_function(xq), gr.decision_function(xq))
        assert np.array_equal(gv.predict_proba(xq), gr.predict_proba(xq))
        assert np.array_equal(gv.predict(xq), gr.predict(xq))


class TestStackedEnsemble:
    def _deep_trees(self, seed=0, n=300, m=6, n_trees=5):
        r = np.random.default_rng(seed)
        x = np.round(r.normal(size=(n, m)), 1)
        y = r.normal(size=n)
        trees = []
        for t in range(n_trees):
            idx = r.integers(0, n, size=n)
            trees.append(DecisionTreeRegressor().fit(x[idx], y[idx]))
        return trees, r

    def test_stacked_equals_per_tree_sum(self):
        trees, r = self._deep_trees()
        xq = r.normal(size=(500, 6))
        stacked = StackedEnsemble(trees)
        expect = np.zeros(500)
        for tree in trees:
            expect += tree.predict(xq)
        assert np.array_equal(stacked.leaf_value_sum(xq), expect)

    def test_stacked_scale_and_init(self):
        trees, r = self._deep_trees(seed=1)
        xq = r.normal(size=(200, 6))
        stacked = StackedEnsemble(trees)
        expect = np.full(200, -0.3)
        for tree in trees:
            expect += 0.1 * tree.predict(xq)
        got = stacked.leaf_value_sum(xq, scale=0.1, init=-0.3)
        assert np.array_equal(got, expect)

    def test_stacked_column_remap(self):
        r = np.random.default_rng(4)
        x = r.normal(size=(150, 6))
        y = r.normal(size=150)
        cols = [np.array([0, 2, 5]), np.array([1, 3, 4])]
        trees = [DecisionTreeRegressor(max_depth=3).fit(x[:, c], y)
                 for c in cols]
        stacked = StackedEnsemble(trees, columns=cols)
        xq = r.normal(size=(70, 6))
        expect = np.zeros(70)
        for tree, c in zip(trees, cols):
            expect += tree.predict(xq[:, c])
        assert np.array_equal(stacked.leaf_value_sum(xq), expect)

    def test_heap_and_pointer_layouts_agree(self):
        # Shallow ensembles use the complete-heap walk, deep ones the
        # pointer walk; force both over the same shallow trees.
        r = np.random.default_rng(6)
        x = np.round(r.normal(size=(200, 4)), 1)
        y = r.normal(size=200)
        trees = [DecisionTreeRegressor(max_depth=3).fit(x, y + t)
                 for t in range(4)]
        xq = r.normal(size=(300, 4))
        heap = StackedEnsemble(trees)
        assert heap._heap is not None
        pointer = StackedEnsemble(trees)
        pointer._heap = None
        assert np.array_equal(heap.leaf_value_sum(xq),
                              pointer.leaf_value_sum(xq))
        cut = float(np.median(heap.leaf_value_sum(xq)))
        assert np.array_equal(heap.leaf_value_sum(xq, cut=cut),
                              pointer.leaf_value_sum(xq, cut=cut))

    def test_root_only_ensemble(self):
        x = np.ones((10, 2))
        y = np.full(10, 3.0)
        trees = [DecisionTreeRegressor().fit(x, y)]
        stacked = StackedEnsemble(trees)
        out = stacked.leaf_value_sum(np.zeros((5, 2)))
        assert np.array_equal(out, np.full(5, 3.0))

    def test_queries_outside_training_range(self):
        trees, r = self._deep_trees(seed=8)
        xq = np.concatenate([
            r.normal(size=(50, 6)) * 100.0,
            np.full((2, 6), 1e300),
            np.full((2, 6), -1e300),
        ])
        stacked = StackedEnsemble(trees)
        expect = np.zeros(len(xq))
        for tree in trees:
            expect += tree.predict(xq)
        assert np.array_equal(stacked.leaf_value_sum(xq), expect)


def assert_hard_labels_exact(vec, ref, xq):
    """Vectorized ``predict`` equals the reference ``predict`` and the
    vectorized ``predict_proba(xq) > 0.5``; soft outputs stay bit-equal
    to the reference."""
    proba = vec.predict_proba(xq)
    assert np.array_equal(proba, ref.predict_proba(xq))
    if isinstance(vec, GradientBoostingModel):
        assert np.array_equal(vec.decision_function(xq),
                              ref.decision_function(xq))
    hard = vec.predict(xq)
    assert hard.dtype == np.int64
    assert np.array_equal(hard, (proba > 0.5).astype(np.int64))
    assert np.array_equal(hard, ref.predict(xq))
    return hard, proba


def fit_family(family, x, y, **kw):
    """``(vectorized, reference)`` fits of one forest or boosting model."""
    cls = RandomForestModel if family == "forest" else GradientBoostingModel
    return (cls(engine="vectorized", **kw).fit(x, y),
            cls(engine="reference", **kw).fit(x, y))


class TestSettledLabels:
    """Hard labels settle early (the walk drops rows the remaining trees
    cannot flip) and must still equal the full walk's labels exactly,
    above all where a row's sum lands on the cut itself."""

    def _noisy(self, seed=0, n=160, m=3):
        r = np.random.default_rng(seed)
        x = r.random((n, m))
        y = ((x[:, 0] > 0.5) ^ (r.random(n) < 0.3)).astype(float)
        return x, y, r

    @pytest.mark.parametrize("n_trees", [4, 10])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_forest_sum_exactly_half_is_label_zero(self, n_trees, max_depth):
        # Distinct inputs and full depth give pure 0/1 leaves, so an even
        # forest sums to exactly T/2 wherever its trees split evenly.
        x, y, r = self._noisy(seed=n_trees)
        fv, fr = fit_family("forest", x, y, n_trees=n_trees, seed=1,
                            max_depth=max_depth)
        xq = r.random((3000, 3))
        hard, proba = assert_hard_labels_exact(fv, fr, xq)
        if max_depth is None:
            tie = proba == 0.5
            assert tie.any() and not hard[tie].any()

    @pytest.mark.parametrize("n_rounds", [1, 5])
    def test_boosting_raw_score_exactly_zero_is_label_zero(self, n_rounds):
        # A constant column admits no split and balanced labels give a
        # zero base score and zero Newton steps: every raw score is 0.
        x = np.ones((40, 1))
        y = np.tile([0.0, 1.0], 20)
        gv, gr = fit_family("boosting", x, y, n_rounds=n_rounds, seed=0)
        xq = np.array([[0.0], [1.0], [2.0], [np.nan]])
        assert not gv.decision_function(xq).any()
        hard, _ = assert_hard_labels_exact(gv, gr, xq)
        assert not hard.any()

    @pytest.mark.parametrize("family", ["forest", "boosting"])
    def test_single_tree(self, family):
        x, y, r = self._noisy(seed=2)
        kw = {"n_trees": 1} if family == "forest" else {"n_rounds": 1}
        vec, ref = fit_family(family, x, y, seed=4, **kw)
        assert_hard_labels_exact(vec, ref, r.random((500, 3)))

    @pytest.mark.parametrize("family", ["forest", "boosting"])
    def test_nan_and_huge_query_rows(self, family):
        x, y, r = self._noisy(seed=3)
        kw = {"n_trees": 12} if family == "forest" else {"n_rounds": 30}
        vec, ref = fit_family(family, x, y, seed=5, **kw)
        xq = r.random((400, 3))
        xq[::7, 0] = np.nan
        xq[1::7, 1] = 1e300
        xq[2::7, 2] = -1e300
        xq[3::7] = np.nan
        xq[4::7] = 1e300
        xq[5::7] = -1e300
        assert_hard_labels_exact(vec, ref, xq)

    @pytest.mark.parametrize("family", ["forest", "boosting"])
    @pytest.mark.parametrize("n", [4095, 4097, 8191, 8193])
    def test_row_chunk_edges(self, family, n):
        x, y, r = self._noisy(seed=6)
        kw = {"n_trees": 16} if family == "forest" else {"n_rounds": 40}
        vec, ref = fit_family(family, x, y, seed=6, **kw)
        assert_hard_labels_exact(vec, ref, r.random((n, 3)))

    @pytest.mark.parametrize("family", ["forest", "boosting"])
    def test_predict_chunked_jobs_two(self, family):
        from repro.metamodels.base import predict_chunked

        x, y, r = self._noisy(seed=7)
        kw = {"n_trees": 20} if family == "forest" else {"n_rounds": 40}
        vec, ref = fit_family(family, x, y, seed=7, **kw)
        xq = r.random((5000, 3))
        hard, proba = assert_hard_labels_exact(vec, ref, xq)
        assert np.array_equal(predict_chunked(vec, xq, jobs=2), hard)
        assert np.array_equal(predict_chunked(vec, xq, soft=True, jobs=2),
                              proba)

    @pytest.mark.parametrize("heap", [True, False])
    def test_settled_rows_are_decided_and_the_rest_exact(self, heap):
        # Most rows settle; those that do carry the sign of their full
        # sum's side of the cut, and every other sum is bit-identical.
        x, y, r = self._noisy(seed=8, n=300)
        forest = RandomForestModel(n_trees=40, seed=8,
                                   max_depth=6 if heap else None).fit(x, y)
        stacked = StackedEnsemble(forest.trees_)
        assert (stacked._heap is not None) == heap
        xq = r.random((6000, 3))
        full = stacked.leaf_value_sum(xq)
        cut = 20.0
        got = stacked.leaf_value_sum(xq, cut=cut)
        settled = np.isinf(got)
        assert settled.mean() > 0.5
        assert np.array_equal(got[~settled], full[~settled])
        assert (full[got == np.inf] > cut + 1e-6).all()
        assert (full[got == -np.inf] < cut - 1e-6).all()
        # Rows settle one by one, so uneven row blocks join to the
        # one-call walk.
        edges = [0, 1, 1000, 2999, 6000]
        joined = [stacked.leaf_value_sum(xq[a:b], cut=cut)
                  for a, b in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(joined), got)


class TestChunkedPrediction:
    """Multi-process chunked prediction/labeling must be bit-identical
    to the single-chunk path for every worker count and query size —
    each worker labels one contiguous chunk, so ``jobs`` and the row
    count set the chunk edges, and neither may change a bit."""

    def _data(self, seed=0, n=250, m=5, n_query=3000):
        r = np.random.default_rng(seed)
        x = r.random((n, m))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0.7).astype(float)
        xq = r.random((n_query, m))
        return x, y, xq

    # ``n_query=None`` queries the default 3000 rows.
    @pytest.mark.parametrize("jobs,n_query", [
        (2, None), (3, 700), (2, 123), (2, 4096)])
    def test_forest_proba_bit_equal_across_chunkings(self, jobs, n_query):
        from repro.metamodels.base import predict_chunked

        x, y, xq = self._data(n_query=n_query or 3000)
        base = RandomForestModel(n_trees=15, seed=3).fit(x, y)
        fanned = RandomForestModel(n_trees=15, seed=3, jobs=jobs).fit(x, y)
        assert np.array_equal(
            predict_chunked(fanned, xq, soft=True, jobs=jobs),
            base.predict_proba(xq))
        assert np.array_equal(predict_chunked(fanned, xq, jobs=jobs),
                              base.predict(xq))

    @pytest.mark.parametrize("jobs,n_query", [(2, None), (3, 511)])
    def test_boosting_decision_bit_equal_across_chunkings(self, jobs,
                                                          n_query):
        from repro.metamodels.base import predict_chunked

        x, y, xq = self._data(seed=1, n_query=n_query or 3000)
        model = GradientBoostingModel(n_rounds=25, seed=3).fit(x, y)
        assert np.array_equal(
            predict_chunked(model, xq, soft=True, jobs=jobs),
            model.predict_proba(xq))
        assert np.array_equal(predict_chunked(model, xq, jobs=jobs),
                              model.predict(xq))

    def test_predict_chunked_generic_labeling(self):
        from repro.metamodels.base import predict_chunked

        x, y, xq = self._data(seed=4)
        for model in (RandomForestModel(n_trees=10, seed=1).fit(x, y),
                      GradientBoostingModel(n_rounds=20, seed=1).fit(x, y)):
            hard = model.predict(xq)
            soft = model.predict_proba(xq)
            for jobs in (1, 2, 3, None):
                assert np.array_equal(
                    predict_chunked(model, xq, jobs=jobs), hard)
                assert np.array_equal(
                    predict_chunked(model, xq, soft=True, jobs=jobs), soft)

    def test_reds_labels_bit_equal_across_jobs(self):
        from repro.core.reds import reds

        x, y, _ = self._data(seed=5)

        def sd(x_new, y_new):
            return float(y_new.sum())

        base = reds(x, y, sd, metamodel="boosting", n_new=4000, tune=False,
                    rng=np.random.default_rng(9), jobs=1)
        for jobs in (2, 3, None):
            fanned = reds(x, y, sd, metamodel="boosting", n_new=4000,
                          tune=False, rng=np.random.default_rng(9),
                          jobs=jobs)
            assert np.array_equal(base.x_new, fanned.x_new)
            assert np.array_equal(base.y_new, fanned.y_new)
            assert base.sd_output == fanned.sd_output

    def test_reds_soft_labels_bit_equal_across_jobs(self):
        from repro.core.reds import reds

        x, y, _ = self._data(seed=6)

        def sd(x_new, y_new):
            return float(y_new.sum())

        base = reds(x, y, sd, metamodel="forest", n_new=3000,
                    soft_labels=True, tune=False,
                    rng=np.random.default_rng(11), jobs=1)
        fanned = reds(x, y, sd, metamodel="forest", n_new=3000,
                      soft_labels=True, tune=False,
                      rng=np.random.default_rng(11), jobs=2)
        assert np.array_equal(base.y_new, fanned.y_new)

    def test_serial_executor_chunking_also_bit_equal(self):
        """The walk's row blocks alone (no processes) change nothing."""
        x, y, xq = self._data(seed=8)
        model = RandomForestModel(n_trees=8, seed=2).fit(x, y)
        stacked = StackedEnsemble(model.trees_)
        expect = stacked.leaf_value_sum(xq)
        got = stacked.leaf_value_sum(xq, chunk=100)
        assert np.array_equal(got, expect)


class TestDenseRanks:
    def test_ranks_embed_order_with_ties(self):
        r = np.random.default_rng(0)
        x = np.round(r.normal(size=(100, 3)), 1)
        ranks = dense_ranks(x)
        assert ranks.dtype == np.uint16
        for j in range(3):
            order = np.argsort(x[:, j], kind="stable")
            xv, rv = x[order, j], ranks[order, j]
            assert np.all(np.diff(rv.astype(int)) >= 0)
            same_val = np.diff(xv) == 0
            assert np.array_equal(np.diff(rv.astype(int)) == 0, same_val)

    def test_sample_sort_matches_value_sort(self):
        r = np.random.default_rng(1)
        x = np.round(r.normal(size=(80, 2)), 1)
        ranks = dense_ranks(x)
        idx = r.integers(0, 80, size=80)
        by_rank = np.argsort(ranks[idx], axis=0, kind="stable")
        by_value = np.argsort(x[idx], axis=0, kind="stable")
        assert np.array_equal(by_rank, by_value)
