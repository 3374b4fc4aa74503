"""Tuning equivalence: the grouped metamodel search matches plain CV.

``grid_accuracies`` shares boosting rounds across ``n_rounds`` stages
and grows all fold chains of a group in lockstep.  Neither may change a
bit: every candidate's accuracy must equal :func:`cross_val_accuracy`
of that candidate (exact float equality), and the configuration
``tune_metamodel`` picks, with its refit model, must be the same for
every engine and every ``jobs``.
"""

import numpy as np
import pytest

from repro.data import get_model
from repro.engines import HAVE_NUMBA
from repro.experiments.harness import make_train_data
from repro.metamodels.tuning import (
    DEFAULT_GRIDS,
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
        ("vectorized", 2), ("reference", 1), ("native", 1)])
    @pytest.mark.parametrize("case", CASES)
    def test_choice_and_refit_identical(self, case, engine, jobs, baseline):
        if engine == "native" and not HAVE_NUMBA:
            pytest.skip("without numba 'native' resolves to the baseline's "
                        "engine; the pure-Python kernels are pinned below")
        x, y, grid, xq, base = baseline(case)
        model = tune_metamodel("boosting", x, y, grid=grid, engine=engine,
                               jobs=jobs)
        assert _config(model) == _config(base)
        assert np.array_equal(model.predict_proba(xq), base.predict_proba(xq))

    def test_pure_python_native_kernels(self, monkeypatch):
        monkeypatch.setenv("REDS_NATIVE_PUREPY", "1")
        x, y = _borehole(60, seed=4)
        grid = [{"max_depth": 2, "n_rounds": 3}, {"max_depth": 3, "n_rounds": 2},
                {"max_depth": 2, "n_rounds": 1}]
        xq = np.random.default_rng(5).random((200, x.shape[1]))
        base = tune_metamodel("boosting", x, y, grid=grid, engine="vectorized")
        native = tune_metamodel("boosting", x, y, grid=grid, engine="native")
        assert native.engine == "native"
        assert (grid_accuracies("boosting", x, y, grid, engine="native")
                == grid_accuracies("boosting", x, y, grid))
        assert _config(native) == _config(base)
        assert np.array_equal(native.predict_proba(xq), base.predict_proba(xq))

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
