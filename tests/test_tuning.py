"""Tests for k-fold CV and caret-style metamodel tuning."""

import numpy as np
import pytest

from repro.metamodels import KFold, cross_val_accuracy, make_metamodel, tune_metamodel
from repro.metamodels.tuning import DEFAULT_GRIDS
from tests.conftest import planted_box_data


class TestKFold:
    def test_rejects_too_few_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(3))

    def test_partitions_everything_exactly_once(self):
        seen = np.zeros(53, dtype=int)
        for _, test in KFold(5, seed=1).split(53):
            seen[test] += 1
        assert (seen == 1).all()

    def test_train_and_test_disjoint(self):
        for train, test in KFold(4, seed=2).split(40):
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 40

    def test_reproducible(self):
        a = [t.tolist() for _, t in KFold(3, seed=7).split(30)]
        b = [t.tolist() for _, t in KFold(3, seed=7).split(30)]
        assert a == b

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in KFold(5, seed=0).split(52)]
        assert max(sizes) - min(sizes) <= 1


class TestCrossVal:
    def test_perfect_model_scores_one(self):
        x, y, _ = planted_box_data(200, 2, seed=0)

        class Oracle:
            def fit(self, x, y):
                return self
            def predict(self, grid):
                inside = ((grid[:, :2] >= 0.2) & (grid[:, :2] <= 0.6)).all(axis=1)
                return inside.astype(int)
            def predict_proba(self, grid):
                return self.predict(grid).astype(float)

        assert cross_val_accuracy(Oracle, x, y) == pytest.approx(1.0)

    def test_accuracy_between_zero_and_one(self):
        x, y, _ = planted_box_data(150, 3, seed=1)
        acc = cross_val_accuracy(
            lambda: make_metamodel("forest", n_trees=5, seed=0), x, y)
        assert 0.0 <= acc <= 1.0


class TestTuning:
    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            make_metamodel("neural-net")

    @pytest.mark.parametrize("kind", ["forest", "boosting", "svm"])
    def test_default_grids_nonempty(self, kind):
        assert len(DEFAULT_GRIDS[kind](10)) >= 2

    def test_tune_returns_fitted_model(self):
        x, y, _ = planted_box_data(120, 3, seed=2)
        model = tune_metamodel("svm", x, y)
        assert model.predict(x).shape == (120,)

    def test_tune_single_class_shortcut(self, rng):
        x = rng.random((60, 2))
        model = tune_metamodel("svm", x, np.zeros(60))
        assert (model.predict(x) == 0).all()

    def test_custom_grid_used(self):
        x, y, _ = planted_box_data(120, 2, seed=3)
        model = tune_metamodel("forest", x, y,
                               grid=[{"n_trees": 3, "seed": 0}])
        assert model.n_trees == 3

    def test_tuning_picks_sensible_svm_c(self):
        """A vanishing C underfits imbalanced overlapping classes; the
        grid search must prefer the workable C."""
        gen = np.random.default_rng(0)
        x = np.vstack([gen.normal(-0.5, 0.4, (90, 2)), gen.normal(0.5, 0.4, (30, 2))])
        y = np.repeat([0, 1], [90, 30])
        model = tune_metamodel("svm", x, y, grid=[{"c": 1e-4}, {"c": 10.0}])
        assert model.c == 10.0

    def test_empty_grid_rejected(self):
        # Two classes: the search runs, and must not fall back to the
        # default configuration.
        x, y, _ = planted_box_data(80, 2, seed=4)
        assert len(np.unique(y)) == 2
        with pytest.raises(ValueError, match="empty"):
            tune_metamodel("boosting", x, y, grid=[])

    def test_fewer_points_than_folds_rejected(self):
        x = np.random.default_rng(5).random((4, 2))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError,
                           match="metamodel tuning.*tune_metamodel=False"):
            tune_metamodel("boosting", x, y)

    @pytest.mark.parametrize("kind", ["forest", "boosting", "svm"])
    @pytest.mark.parametrize("case", ["1-D x", "short y"], ids=["1d-x", "short-y"])
    def test_misshapen_data_rejected_before_the_grid(self, kind, case):
        x, y, _ = planted_box_data(60, 3, seed=6)
        if case == "1-D x":
            x = x[:, 0]
        else:
            y = y[:-1]
        with pytest.raises(ValueError, match="tuning needs a 2-D x"):
            tune_metamodel(kind, x, y)
