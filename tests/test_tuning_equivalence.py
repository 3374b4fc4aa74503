"""Tuning equivalence: the grouped metamodel search matches plain CV.

``grid_accuracies`` shares boosting rounds across ``n_rounds`` stages
and grows all fold chains of a group in lockstep; it grows all fold
forests of a forest candidate together.  None of it may change a
bit: every candidate's accuracy must equal :func:`cross_val_accuracy`
of that candidate (exact float equality), and the configuration
``tune_metamodel`` picks, with its refit model, must be the same for
every engine and every ``jobs``.
"""

import numpy as np
import pytest

from repro.data import get_model
from repro.experiments.harness import make_train_data
from repro.metamodels._kernels import BlockLayout, _grow_block, dense_ranks
from repro.metamodels.boosting import GradientBoostingModel, _log_odds, _sigmoid
from repro.metamodels.forest import RandomForestModel
from repro.metamodels.tree import DecisionTreeRegressor
from repro.metamodels.tuning import (
    DEFAULT_GRIDS,
    KFold,
    cross_val_accuracy,
    grid_accuracies,
    make_metamodel,
    tune_metamodel,
)


def _borehole(n: int, seed: int):
    return make_train_data(get_model("borehole"), n, seed)


def _with_nans(n: int, seed: int):
    # Each fold chain ranks its own NaNs; the block kernel keeps them
    # apart (see test_stacked_trees_keep_their_own_nan_ranks).
    x, y = _borehole(n, seed)
    x = x.copy()
    x[np.random.default_rng(seed).random(n) < 0.15, 1] = np.nan
    return x, y


def _positives_in_one_fold(n: int, seed: int):
    # Every positive sits in the first KFold test fold, so that fold's
    # chain trains on negatives only: its root is pure in every round
    # while the other four chains of its block stay eligible.
    x, y = _borehole(n, seed)
    test = next(KFold(5, seed=0).split(n))[1]
    only = np.zeros(n)
    only[test] = y[test]
    return x, only


def _linear(n: int, seed: int):
    r = np.random.default_rng(seed)
    x = r.random((n, 5))
    return x, (x[:, 0] + 0.5 * x[:, 1] > 0.7).astype(float)


_SMALL = [{"max_depth": d, "n_rounds": r} for d in (2, 3) for r in (8, 20)]

#: name -> (dataset, grid); ``None`` is the default boosting grid.
CASES = {
    "default-n400": (lambda: _borehole(400, seed=0), None),
    # 203 rows: fold training sets of 162 and 163, two lockstep blocks.
    "n203": (lambda: _borehole(203, seed=1), _SMALL),
    "subsample": (lambda: _borehole(160, seed=2), [
        {"max_depth": d, "n_rounds": r, "subsample": 0.7, "colsample": 0.5}
        for d in (2, 3) for r in (6, 15)]),
    "duplicate-unsorted-rounds": (lambda: _borehole(150, seed=3), [
        {"max_depth": 2, "n_rounds": 12}, {"max_depth": 2, "n_rounds": 4},
        {"max_depth": 3, "n_rounds": 9}, {"max_depth": 2, "n_rounds": 12},
        {"max_depth": 3, "n_rounds": 2}, {"max_depth": 2, "n_rounds": 4}]),
    "nan-column": (lambda: _with_nans(150, seed=9), _SMALL),
    "pure-root-fold": (lambda: _positives_in_one_fold(200, seed=10), _SMALL),
    # Unequal folds draw different columns per chain: the stacked walk
    # must map each tree's features through its own chain's draw.
    "subsample-unequal-folds": (lambda: _borehole(163, seed=12), [
        {"max_depth": d, "n_rounds": r, "subsample": 0.7, "colsample": 0.5}
        for d in (2, 3) for r in (6, 15)]),
    # Formerly test_tuning_fanned_folds_pick_identical_model.
    "fanned-folds": (lambda: _linear(200, seed=7), [
        {"max_depth": 2, "n_rounds": 15}, {"max_depth": 3, "n_rounds": 15}]),
}


def _config(model) -> tuple:
    return (model.max_depth, model.n_rounds, model.subsample,
            model.colsample, model.seed)


@pytest.fixture(scope="module")
def baseline():
    """Per case: data, grid, query rows and the vectorized jobs=1 fit."""
    cache = {}

    def get(case: str):
        if case not in cache:
            make, grid = CASES[case]
            x, y = make()
            grid = grid or DEFAULT_GRIDS["boosting"](x.shape[1])
            xq = np.random.default_rng(99).random((500, x.shape[1]))
            model = tune_metamodel("boosting", x, y, grid=grid)
            cache[case] = (x, y, grid, xq, model)
        return cache[case]

    return get


class TestTuningEquivalence:
    @pytest.mark.parametrize("case", CASES)
    def test_accuracies_equal_the_oracle(self, case, baseline):
        x, y, grid, _, _ = baseline(case)
        oracle = [cross_val_accuracy(
            lambda p=params: make_metamodel("boosting", **p), x, y)
            for params in grid]
        assert grid_accuracies("boosting", x, y, grid) == oracle

    @pytest.mark.parametrize("engine,jobs", [
        ("vectorized", 2), ("reference", 1)])
    @pytest.mark.parametrize("case", CASES)
    def test_choice_and_refit_identical(self, case, engine, jobs, baseline):
        x, y, grid, xq, base = baseline(case)
        model = tune_metamodel("boosting", x, y, grid=grid, engine=engine,
                               jobs=jobs)
        assert _config(model) == _config(base)
        assert np.array_equal(model.predict_proba(xq), base.predict_proba(xq))

    def test_tie_goes_to_the_first_candidate(self):
        x, y = _borehole(120, seed=5)
        # Without subsampling the seed draws nothing: an exact tie
        # between two groups.
        grid = [{"max_depth": 2, "n_rounds": 5, "seed": 1},
                {"max_depth": 2, "n_rounds": 5, "seed": 2}]
        first, second = grid_accuracies("boosting", x, y, grid)
        assert first == second
        assert tune_metamodel("boosting", x, y, grid=grid).seed == 1
        assert tune_metamodel("boosting", x, y, grid=grid[::-1]).seed == 2

    def test_tie_within_a_round_group_goes_to_the_first(self):
        x, _ = _linear(150, seed=6)
        y = (x[:, 0] > 0.5).astype(float)
        grid = [{"max_depth": 1, "n_rounds": 8}, {"max_depth": 1, "n_rounds": 4}]
        first, second = grid_accuracies("boosting", x, y, grid)
        assert first == second
        assert tune_metamodel("boosting", x, y, grid=grid).n_rounds == 8
        assert tune_metamodel("boosting", x, y, grid=grid[::-1]).n_rounds == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind,grid", [
        ("forest", [{"n_trees": 8, "max_features": k} for k in (1, 3)]),
        ("svm", [{"c": c} for c in (0.25, 4.0)]),
    ], ids=["forest", "svm"])
    def test_one_candidate_groups_equal_the_oracle(self, kind, grid, jobs):
        x, y = _borehole(90, seed=8)
        oracle = [cross_val_accuracy(
            lambda p=params: make_metamodel(kind, **p), x, y)
            for params in grid]
        assert grid_accuracies(kind, x, y, grid, jobs=jobs) == oracle


_FOREST_SMALL = [{"n_trees": 20, "max_features": k} for k in (2, 5)]

#: name -> (dataset, grid); ``None`` is the default forest grid.
FOREST_CASES = {
    "default-n400": (lambda: _borehole(400, seed=0), None),
    # 203 rows: fold training sets of 162 and 163, so the fold forests
    # grow in two separate runs of blocks.
    "n203": (lambda: _borehole(203, seed=1), _FOREST_SMALL),
    "nan-column": (lambda: _with_nans(150, seed=9), _FOREST_SMALL),
    # The first fold's forest trains on one class: every root is pure.
    "pure-root-fold": (lambda: _positives_in_one_fold(200, seed=10),
                       _FOREST_SMALL),
    # max_features = m: no feature subsampling, no candidate draws.
    "all-features": (lambda: _borehole(160, seed=4), [
        {"n_trees": 20, "max_features": k} for k in (8, 3)]),
}


def _forest_config(model) -> tuple:
    return (model.n_trees, model.max_features, model.min_samples_leaf,
            model.max_depth, model.seed)


@pytest.fixture(scope="module")
def forest_baseline():
    """Per forest case: data, grid, query rows and the vectorized fit."""
    cache = {}

    def get(case: str):
        if case not in cache:
            make, grid = FOREST_CASES[case]
            x, y = make()
            grid = grid or DEFAULT_GRIDS["forest"](x.shape[1])
            xq = np.random.default_rng(98).random((500, x.shape[1]))
            model = tune_metamodel("forest", x, y, grid=grid)
            cache[case] = (x, y, grid, xq, model)
        return cache[case]

    return get


class TestForestTuningEquivalence:
    """Forest candidates grow all fold forests in row-budget blocks that
    span folds; every accuracy must still equal the per-fold loop."""

    @pytest.mark.parametrize("case", FOREST_CASES)
    def test_accuracies_equal_the_oracle(self, case, forest_baseline):
        x, y, grid, _, _ = forest_baseline(case)
        oracle = [cross_val_accuracy(
            lambda p=params: make_metamodel("forest", **p), x, y)
            for params in grid]
        assert grid_accuracies("forest", x, y, grid) == oracle

    @pytest.mark.parametrize("engine,jobs", [
        ("vectorized", 2), ("reference", 1)])
    @pytest.mark.parametrize("case", FOREST_CASES)
    def test_choice_and_refit_identical(self, case, engine, jobs,
                                        forest_baseline):
        x, y, grid, xq, base = forest_baseline(case)
        model = tune_metamodel("forest", x, y, grid=grid, engine=engine,
                               jobs=jobs)
        assert _forest_config(model) == _forest_config(base)
        assert np.array_equal(model.predict_proba(xq), base.predict_proba(xq))

    @pytest.mark.parametrize("engine,jobs", [
        ("vectorized", 1), ("vectorized", 2), ("reference", 1)])
    def test_fold_predict_equals_per_fold_fits(self, engine, jobs):
        # jobs=2 fans tree ranges of all fold forests out over workers.
        x, y = _borehole(203, seed=13)
        splits = list(KFold(5, seed=3).split(len(x)))
        model = RandomForestModel(n_trees=30, max_features=3, seed=7,
                                  engine=engine, jobs=jobs)
        labels = model.fold_predict(x, y, splits)
        for (train, test), got in zip(splits, labels):
            want = RandomForestModel(n_trees=30, max_features=3, seed=7) \
                .fit(x[train], y[train]).predict(x[test])
            assert np.array_equal(got, want)


class TestRoundInvariants:
    """The stacked round loop's shortcuts: a root layout reused across
    rounds, a Newton step written through views of stacked arrays and
    subsampled scores updated by a walk of the stacked trees."""

    def test_pure_root_fold_case_has_a_pure_chain(self):
        x, y = CASES["pure-root-fold"][0]()
        folds = list(KFold(5, seed=0).split(len(x)))
        assert y[folds[0][0]].max() == 0.0
        assert all(0.0 < y[train].mean() < 1.0 for train, _ in folds[1:])

    def test_cached_root_is_not_reused_when_a_root_turns_pure(self):
        x, y = _borehole(120, seed=11)
        xb, rb = np.vstack((x, x)), np.vstack((dense_ranks(x),) * 2)
        layout = BlockLayout(xb, rb)
        kw = dict(n_trees=2, n_samp=len(x), max_depth=3, min_samples_leaf=1,
                  min_child_weight=0.5, max_features=None, rngs=[None] * 2)
        weight = np.full(2 * len(x), 0.25)
        mixed = np.concatenate((y, 1.0 - y))
        # A large constant: a wrongly scanned pure root would find
        # rounding-noise gains above MIN_GAIN and split.
        pure = np.concatenate((y, np.full(len(x), 1e7 + 0.1)))
        for yb in (mixed, pure, mixed):
            grown = _grow_block(xb, yb, weight, rb, layout=layout, **kw)
            fresh = _grow_block(xb, yb, weight, rb, **kw)
            for t in range(2):
                for a, b in zip(grown[t], fresh[t]):
                    assert np.array_equal(a, b)
            assert layout.root is not None
            assert (grown[1][0].tolist() == [-1]) == (yb is pure)

    @pytest.mark.parametrize("n,kw", [
        (400, dict(n_rounds=150, max_depth=4)),
        # Subsampled rows update their scores by the stacked walk.
        (200, dict(n_rounds=30, max_depth=3, subsample=0.7, colsample=0.5,
                   seed=4)),
    ], ids=["full-scale", "subsample"])
    def test_fit_matches_per_tree_boosting(self, n, kw):
        x, y = _borehole(n, seed=0)
        oracle = _per_tree_boosting(x, y, **kw)
        for engine in ("vectorized", "reference"):
            model = GradientBoostingModel(engine=engine, **kw).fit(x, y)
            assert len(model.trees_) == len(oracle)
            for (tree, cols), (want, want_cols) in zip(model.trees_, oracle):
                assert np.array_equal(cols, want_cols)
                for attr in ("feature", "threshold", "left", "right",
                             "value", "train_leaf_"):
                    assert np.array_equal(getattr(tree, attr),
                                          getattr(want, attr)), attr


def _per_tree_boosting(x, y, *, n_rounds, max_depth, subsample=1.0,
                       colsample=1.0, seed=0):
    """Newton boosting one tree at a time, the Newton step per tree.

    The oracle of the stacked round loop: each leaf's value is set
    from its own rows' ``np.unique`` + ``bincount`` sums, internal
    nodes keep their grown values, and the training scores update from
    the tree's own recorded leaves, or from ``tree.predict`` when rows
    are subsampled.
    """
    n, m = x.shape
    rng = np.random.default_rng(seed)
    k = max(2, int(round(subsample * n)))
    n_cols = max(1, int(round(colsample * m)))
    raw = np.full(n, _log_odds(y))
    trees = []
    for _ in range(n_rounds):
        prob = _sigmoid(raw)
        grad = prob - y
        hess = np.maximum(prob * (1.0 - prob), 1e-12)
        rows = rng.choice(n, size=k, replace=False) if k < n else np.arange(n)
        cols = (np.sort(rng.choice(m, size=n_cols, replace=False))
                if n_cols < m else np.arange(m))
        g, h = grad[rows], hess[rows]
        tree = DecisionTreeRegressor(
            max_depth=max_depth, min_child_weight=1.0, engine="reference",
        ).fit(x[np.ix_(rows, cols)], -g / h, sample_weight=h)
        leaves, inv = np.unique(tree.train_leaf_, return_inverse=True)
        tree.value[leaves] = (-np.bincount(inv, weights=g)
                              / (np.bincount(inv, weights=h) + 1.0))
        raw += 0.1 * (tree.value[tree.train_leaf_] if k >= n
                      else tree.predict(x[:, cols]))
        trees.append((tree, cols))
    return trees
