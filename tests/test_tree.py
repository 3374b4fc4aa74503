"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.metamodels.tree import DecisionTreeRegressor


class TestValidation:
    def test_rejects_unfitted_predict(self, rng):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(rng.random((3, 2)))

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(rng.random((5, 2)), np.zeros(4))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)

    def test_rejects_negative_weights(self, rng):
        tree = DecisionTreeRegressor()
        with pytest.raises(ValueError):
            tree.fit(rng.random((4, 1)), np.zeros(4), sample_weight=np.array([1, -1, 1, 1]))

    def test_max_features_requires_rng(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=2)


class TestFitting:
    def test_constant_target_single_leaf(self, rng):
        tree = DecisionTreeRegressor().fit(rng.random((30, 3)), np.full(30, 0.7))
        assert tree.n_nodes == 1
        np.testing.assert_allclose(tree.predict(rng.random((5, 3))), 0.7)

    def test_recovers_single_split(self):
        """A step function in one feature is learned exactly."""
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (x[:, 0] > 0.53).astype(float)
        tree = DecisionTreeRegressor().fit(x, y)
        grid = np.array([[0.1], [0.5], [0.6], [0.9]])
        np.testing.assert_allclose(tree.predict(grid), [0, 0, 1, 1])

    def test_split_threshold_at_midpoint(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.threshold[0] == pytest.approx(0.5)

    def test_represents_xor_at_full_depth(self, rng):
        """Greedy splitting sees no first-cut gain on XOR, but an
        unrestricted tree still carves the four quadrants out."""
        x = rng.random((600, 2))
        y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5)).astype(float)
        tree = DecisionTreeRegressor().fit(x, y)
        assert ((tree.predict(x) > 0.5) == (y > 0.5)).mean() > 0.99

    def test_max_depth_respected(self, rng):
        x = rng.random((500, 4))
        y = rng.random(500)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf_respected(self, rng):
        x = rng.random((100, 2))
        y = rng.random(100)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(x, y)
        leaves = tree.apply(x)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 10

    def test_sample_weights_shift_leaf_means(self):
        x = np.zeros((4, 1))  # unsplittable: one leaf
        y = np.array([0.0, 0.0, 1.0, 1.0])
        heavy_ones = DecisionTreeRegressor().fit(
            x, y, sample_weight=np.array([1.0, 1.0, 9.0, 9.0]))
        assert heavy_ones.predict(np.zeros((1, 1)))[0] == pytest.approx(0.9)

    def test_zero_weight_points_ignored_in_values(self):
        x = np.zeros((3, 1))
        y = np.array([0.0, 1.0, 1.0])
        tree = DecisionTreeRegressor().fit(
            x, y, sample_weight=np.array([1.0, 0.0, 0.0]))
        assert tree.predict(np.zeros((1, 1)))[0] == pytest.approx(0.0)

    def test_duplicate_feature_values_never_split_between(self):
        x = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tree = DecisionTreeRegressor().fit(x, y)
        # Only a split between 1.0 and 2.0 is legal.
        if tree.n_nodes > 1:
            assert 1.0 < tree.threshold[0] < 2.0


class TestPrediction:
    def test_apply_returns_leaves(self, rng):
        x = rng.random((200, 3))
        y = rng.random(200)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        leaves = tree.apply(x)
        assert (tree.feature[leaves] == -1).all()

    def test_predictions_bounded_by_training_targets(self, rng):
        x = rng.random((300, 4))
        y = rng.random(300)
        tree = DecisionTreeRegressor(max_depth=5).fit(x, y)
        pred = tree.predict(rng.random((100, 4)))
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_training_fit_is_exact_with_full_depth(self, rng):
        """Distinct inputs + unlimited depth => zero training error."""
        x = rng.random((64, 2))
        y = rng.random(64)
        tree = DecisionTreeRegressor().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), y, atol=1e-12)


class TestProperties:
    @given(
        data=hnp.arrays(np.float64, st.tuples(st.integers(5, 60), st.integers(1, 4)),
                        elements=st.floats(0, 1, allow_nan=False)),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_training_mse_never_worse_than_constant(self, data, seed):
        """Any tree at least matches the best constant predictor."""
        gen = np.random.default_rng(seed)
        y = gen.random(len(data))
        tree = DecisionTreeRegressor(max_depth=3).fit(data, y)
        mse_tree = np.mean((tree.predict(data) - y) ** 2)
        mse_const = np.mean((y.mean() - y) ** 2)
        assert mse_tree <= mse_const + 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_leaf_values_are_leaf_means(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.random((80, 3))
        y = gen.random(80)
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        leaves = tree.apply(x)
        for leaf in np.unique(leaves):
            expected = y[leaves == leaf].mean()
            assert tree.value[leaf] == pytest.approx(expected)
