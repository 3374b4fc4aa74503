"""Tests for the random forest and Newton boosting metamodels."""

import numpy as np
import pytest

from repro.metamodels import GradientBoostingModel, RandomForestModel
from tests.conftest import planted_box_data


class TestRandomForest:
    def test_rejects_bad_n_trees(self):
        with pytest.raises(ValueError):
            RandomForestModel(n_trees=0)

    def test_rejects_unfitted_predict(self, rng):
        with pytest.raises(RuntimeError):
            RandomForestModel().predict_proba(rng.random((3, 2)))

    @pytest.mark.parametrize("engine", ["turbo", "native"])
    def test_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="vectorized.*reference"):
            RandomForestModel(engine=engine)

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("bad", [
        {"min_samples_leaf": 0}, {"max_depth": 0}])
    def test_rejects_bad_tree_params_at_construction(self, engine, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            RandomForestModel(n_trees=3, engine=engine, **bad)

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("case,match", [
        ("empty x", "non-empty 2-D"),
        ("NaN in y", "NaN or inf"),
    ], ids=["empty-x", "nan-y"])
    def test_rejects_unusable_training_data(self, engine, case, match):
        x, y, _ = planted_box_data(40, 3, seed=2)
        y = y.astype(float)
        if case == "empty x":
            x, y = x[:0], y[:0]
        else:
            y[3] = np.nan
        with pytest.raises(ValueError, match=match):
            RandomForestModel(n_trees=3, engine=engine).fit(x, y)

    def test_fits_a_continuous_response(self):
        # Non-binary finite responses stay legal: the forest regresses.
        x, _, _ = planted_box_data(60, 2, seed=3)
        model = RandomForestModel(n_trees=4, seed=0).fit(x, 3.0 * x[:, 0])
        assert model.predict_proba(x).max() > 1.0

    def test_probability_range(self, rng):
        x, y, _ = planted_box_data(300, 4)
        p = RandomForestModel(n_trees=20, seed=0).fit(x, y).predict_proba(rng.random((50, 4)))
        assert (p >= 0).all() and (p <= 1).all()

    def test_reproducible_with_seed(self, rng):
        x, y, _ = planted_box_data(200, 3)
        grid = rng.random((40, 3))
        a = RandomForestModel(n_trees=10, seed=5).fit(x, y).predict_proba(grid)
        b = RandomForestModel(n_trees=10, seed=5).fit(x, y).predict_proba(grid)
        np.testing.assert_array_equal(a, b)

    def test_learns_planted_box(self):
        x, y, box = planted_box_data(800, 4, seed=1)
        model = RandomForestModel(n_trees=50, seed=0).fit(x, y)
        grid = np.random.default_rng(9).random((2000, 4))
        accuracy = (model.predict(grid) == box.contains(grid)).mean()
        assert accuracy > 0.9

    def test_mtry_string_options(self, rng):
        x, y, _ = planted_box_data(100, 9)
        for option in ("sqrt", "third", 4):
            RandomForestModel(n_trees=3, max_features=option, seed=0).fit(x, y)

    def test_mtry_invalid_string(self, rng):
        x, y, _ = planted_box_data(50, 3)
        with pytest.raises(ValueError):
            RandomForestModel(n_trees=2, max_features="log2").fit(x, y)

    def test_probability_estimates_calibrated_on_noisy_labels(self):
        """Forest leaf averaging approximates P(y=1|x) on noisy data.

        Calibration is judged on region averages: pointwise leaf means
        chase local label-noise clumps, but the average prediction over
        each regime must approach the true rate.
        """
        gen = np.random.default_rng(0)
        x = gen.random((3000, 1))
        prob = np.where(x[:, 0] < 0.5, 0.2, 0.8)
        y = (gen.random(3000) < prob).astype(int)
        model = RandomForestModel(n_trees=60, min_samples_leaf=40, seed=0).fit(x, y)
        grid_low = np.linspace(0.05, 0.40, 50).reshape(-1, 1)
        grid_high = np.linspace(0.60, 0.95, 50).reshape(-1, 1)
        assert model.predict_proba(grid_low).mean() == pytest.approx(0.2, abs=0.1)
        assert model.predict_proba(grid_high).mean() == pytest.approx(0.8, abs=0.1)


class TestGradientBoosting:
    @pytest.mark.parametrize("bad", [
        {"n_rounds": 0},
        {"learning_rate": 0.0},
        {"learning_rate": 1.5},
        {"subsample": 0.0},
        {"colsample": 1.5},
    ])
    def test_rejects_bad_params(self, bad):
        with pytest.raises(ValueError):
            GradientBoostingModel(**bad)

    def test_rejects_unfitted(self, rng):
        with pytest.raises(RuntimeError):
            GradientBoostingModel().predict(rng.random((3, 2)))

    @pytest.mark.parametrize("label", ["scaled", "soft"])
    def test_rejects_non_binary_labels(self, rng, label):
        # The logistic loss is defined for 0/1 labels only.
        x = rng.random((40, 2))
        y = 3.0 * x[:, 0] if label == "scaled" else np.full(40, 0.3)
        with pytest.raises(ValueError, match="binary"):
            GradientBoostingModel(n_rounds=2).fit(x, y)

    def test_base_score_is_log_odds(self):
        x = np.random.default_rng(0).random((100, 2))
        y = np.zeros(100)
        y[:25] = 1
        model = GradientBoostingModel(n_rounds=1).fit(x, y)
        assert model.base_score_ == pytest.approx(np.log(0.25 / 0.75), abs=1e-6)

    def test_learns_planted_box(self):
        x, y, box = planted_box_data(800, 4, seed=2)
        model = GradientBoostingModel(n_rounds=100, max_depth=3, seed=0).fit(x, y)
        grid = np.random.default_rng(9).random((2000, 4))
        accuracy = (model.predict(grid) == box.contains(grid)).mean()
        assert accuracy > 0.9

    def test_more_rounds_reduce_training_loss(self):
        x, y, _ = planted_box_data(400, 3, seed=3)
        def logloss(model):
            p = np.clip(model.predict_proba(x), 1e-9, 1 - 1e-9)
            return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        few = GradientBoostingModel(n_rounds=5, seed=0).fit(x, y)
        many = GradientBoostingModel(n_rounds=80, seed=0).fit(x, y)
        assert logloss(many) < logloss(few)

    def test_subsampling_and_colsample_run(self):
        x, y, _ = planted_box_data(200, 5, seed=4)
        model = GradientBoostingModel(
            n_rounds=10, subsample=0.7, colsample=0.6, seed=0).fit(x, y)
        assert model.predict_proba(x).shape == (200,)

    def test_regularisation_shrinks_leaf_values(self):
        x, y, _ = planted_box_data(300, 2, seed=5)
        gentle = GradientBoostingModel(n_rounds=1, reg_lambda=0.0, seed=0).fit(x, y)
        strong = GradientBoostingModel(n_rounds=1, reg_lambda=100.0, seed=0).fit(x, y)
        spread = lambda m: np.ptp(m.decision_function(x))
        assert spread(strong) < spread(gentle)

    def test_probabilities_in_range(self, rng):
        x, y, _ = planted_box_data(200, 3, seed=6)
        p = GradientBoostingModel(n_rounds=30, seed=0).fit(x, y).predict_proba(
            rng.random((100, 3)))
        assert (p > 0).all() and (p < 1).all()

    def test_reproducible_with_seed(self, rng):
        x, y, _ = planted_box_data(150, 3, seed=7)
        grid = rng.random((30, 3))
        a = GradientBoostingModel(n_rounds=20, subsample=0.8, seed=2).fit(x, y)
        b = GradientBoostingModel(n_rounds=20, subsample=0.8, seed=2).fit(x, y)
        np.testing.assert_array_equal(a.predict_proba(grid), b.predict_proba(grid))


class TestFittedWidth:
    """Both families, under both engines, label only inputs of the
    width they were fitted on."""

    @pytest.fixture(scope="class")
    def data(self):
        x, y, _ = planted_box_data(120, 8, seed=8)
        return x, y

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("family", ["forest", "boosting"])
    @pytest.mark.parametrize("width", [7, 9])
    def test_rejects_other_widths(self, data, family, engine, width):
        x, y = data
        model = (RandomForestModel(n_trees=4, seed=0, engine=engine)
                 if family == "forest"
                 else GradientBoostingModel(n_rounds=4, engine=engine))
        model.fit(x, y)
        query = np.random.default_rng(1).random((10, width))
        methods = ["predict", "predict_proba"]
        if family == "boosting":
            methods.append("decision_function")
        for method in methods:
            with pytest.raises(ValueError, match="8 columns the model was fitted on"):
                getattr(model, method)(query)
        assert model.predict(x[:10]).shape == (10,)
