"""Tests for PRIM with bumping and its Pareto front."""

import numpy as np
import pytest

from repro.subgroup.bumping import pareto_front, prim_bumping
from repro.subgroup.prim import prim_peel
from tests.conftest import planted_box_data


class TestParetoFront:
    def test_single_point(self):
        assert pareto_front(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_dominated_point_removed(self):
        points = np.array([[0.9, 0.9], [0.5, 0.5]])
        assert pareto_front(points).tolist() == [0]

    def test_incomparable_points_kept(self):
        points = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        assert sorted(pareto_front(points).tolist()) == [0, 1, 2]

    def test_duplicates_all_kept(self):
        points = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert len(pareto_front(points)) == 2

    def test_strict_dominance_definition(self):
        """Equal on all measures = no dominance (Definition 1)."""
        points = np.array([[0.5, 0.5], [0.5, 0.6]])
        assert pareto_front(points).tolist() == [1]


class TestParetoSweepEquivalence:
    """The sort-and-sweep front vs the pairwise-scan reference."""

    def test_randomized_identical_indices(self):
        from repro.subgroup.bumping import _pareto_front_reference

        gen = np.random.default_rng(123)
        for trial in range(60):
            n = int(gen.integers(1, 200))
            points = gen.random((n, 2))
            if trial % 2 == 0:
                # Heavy duplication/ties: the regime the keep-all-
                # duplicates and strict-dominance rules care about.
                points = np.round(points, 1)
            np.testing.assert_array_equal(
                pareto_front(points), _pareto_front_reference(points))

    def test_higher_dimensions_fall_back_to_reference(self):
        gen = np.random.default_rng(7)
        points = np.round(gen.random((50, 3)), 1)
        from repro.subgroup.bumping import _pareto_front_reference

        np.testing.assert_array_equal(
            pareto_front(points), _pareto_front_reference(points))


class TestBumping:
    def test_returns_nondominated_sorted_by_recall(self):
        x, y, _ = planted_box_data(600, 3, noise=0.1, seed=30)
        result = prim_bumping(x, y, n_repeats=10, rng=np.random.default_rng(0))
        assert len(result) >= 1
        assert (np.diff(result.recalls) <= 1e-12).all()

    def test_trajectory_anchored_at_full_recall(self):
        """The front starts at the unrestricted-box anchor (Figure 5's A)."""
        x, y, _ = planted_box_data(600, 3, noise=0.1, seed=30)
        result = prim_bumping(x, y, n_repeats=10, rng=np.random.default_rng(0))
        assert result.recalls[0] == pytest.approx(1.0)
        assert result.precisions[0] <= y.mean() + 1e-9

    def test_front_is_pareto_optimal_beyond_anchor(self):
        x, y, _ = planted_box_data(600, 3, noise=0.1, seed=31)
        result = prim_bumping(x, y, n_repeats=10, rng=np.random.default_rng(1))
        # Skip the anchor box (index 0) if it was inserted: the rest
        # must be mutually non-dominated.
        start = 1 if result.boxes[0].n_restricted == 0 else 0
        points = np.column_stack([result.precisions, result.recalls])[start:]
        assert len(pareto_front(points)) == len(points)

    def test_chosen_is_highest_precision(self):
        x, y, _ = planted_box_data(600, 3, seed=32)
        result = prim_bumping(x, y, n_repeats=8, rng=np.random.default_rng(2))
        assert result.precisions[result.chosen] == result.precisions.max()

    def test_feature_subsets_leave_other_dims_unrestricted(self):
        x, y, _ = planted_box_data(400, 6, n_active=2, seed=33)
        result = prim_bumping(x, y, n_repeats=6, n_features=2,
                              rng=np.random.default_rng(3))
        for box in result.boxes:
            assert box.n_restricted <= 2

    def test_mismatched_validation_rejected(self, rng):
        x, y, _ = planted_box_data(100, 2, seed=34)
        with pytest.raises(ValueError):
            prim_bumping(x, y, x_val=rng.random((10, 2)))

    def test_reproducible_with_seeded_rng(self):
        x, y, _ = planted_box_data(300, 3, seed=35)
        a = prim_bumping(x, y, n_repeats=5, rng=np.random.default_rng(9))
        b = prim_bumping(x, y, n_repeats=5, rng=np.random.default_rng(9))
        assert [bx.key() for bx in a.boxes] == [bx.key() for bx in b.boxes]

    def test_beats_or_matches_single_prim_on_front(self):
        """The bumping front must contain a box at least as precise as
        plain PRIM's chosen box at comparable recall (on train data)."""
        x, y, _ = planted_box_data(800, 4, noise=0.1, seed=36)
        plain = prim_peel(x, y)
        front = prim_bumping(x, y, n_repeats=20, rng=np.random.default_rng(4))
        assert front.precisions.max() >= plain.val_means[plain.chosen] - 0.05

