"""Tests for the quality-measure layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    box_consistency,
    n_irrelevant,
    n_restricted,
    pairwise_consistency,
    peeling_trajectory,
    pr_auc,
    precision,
    precision_recall,
    recall,
    trajectory_of,
    wracc_score,
)
from repro.subgroup.box import Hyperbox


def _box(lo, hi):
    return Hyperbox(np.array(lo, dtype=float), np.array(hi, dtype=float))


class TestPrecisionRecall:
    def setup_method(self):
        # 6 points on a line, 3 positives at the left end.
        self.x = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        self.y = np.array([1, 1, 1, 0, 0, 0], dtype=float)

    def test_perfect_box(self):
        box = _box([0.0], [0.35])
        assert precision_recall(box, self.x, self.y) == (1.0, 1.0)

    def test_partial_box(self):
        box = _box([0.0], [0.75])
        prec, rec = precision_recall(box, self.x, self.y)
        assert prec == pytest.approx(3 / 4)
        assert rec == pytest.approx(1.0)

    def test_empty_box_has_zero_precision(self):
        box = _box([2.0], [3.0])
        assert precision(box, self.x, self.y) == 0.0

    def test_recall_with_no_positives(self):
        box = _box([0.0], [1.0])
        assert recall(box, self.x, np.zeros(6)) == 0.0

    def test_full_box_precision_is_base_rate(self):
        assert precision(Hyperbox.unrestricted(1), self.x, self.y) == pytest.approx(0.5)


class TestWRAcc:
    def test_full_box_zero(self, rng):
        x = rng.random((50, 2))
        y = rng.integers(0, 2, 50).astype(float)
        assert wracc_score(Hyperbox.unrestricted(2), x, y) == pytest.approx(0.0)

    def test_maximum_is_quarter(self):
        """WRAcc is bounded by 0.25 (half the data, all positives, base 0.5)."""
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (x[:, 0] < 0.5).astype(float)
        box = _box([0.0], [0.499])
        assert wracc_score(box, x, y) == pytest.approx(0.25, abs=0.01)


class TestRestrictedCounts:
    def test_n_restricted(self):
        box = _box([0.1, -np.inf, -np.inf], [0.9, 0.5, np.inf])
        assert n_restricted(box) == 2

    def test_n_irrelevant(self):
        box = _box([0.1, 0.1, 0.1], [0.9, 0.9, 0.9])
        assert n_irrelevant(box, relevant=(0,)) == 2
        assert n_irrelevant(box, relevant=(0, 1, 2)) == 0

    def test_n_irrelevant_ignores_unrestricted(self):
        box = _box([0.1, -np.inf], [0.9, np.inf])
        assert n_irrelevant(box, relevant=()) == 1


class TestPRAUC:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pr_auc(np.zeros((3, 3)))

    def test_empty_trajectory(self):
        assert pr_auc(np.empty((0, 2))) == 0.0

    def test_single_point_rectangle(self):
        # (recall, precision) = (0.5, 0.8) -> rectangle 0.4.
        assert pr_auc(np.array([[0.5, 0.8]])) == pytest.approx(0.4)

    def test_two_point_trapezoid(self):
        # From (1.0, 0.2) to (0.5, 0.8): integral of recall over
        # precision = 0.75 * 0.6 = 0.45.
        trajectory = np.array([[1.0, 0.2], [0.5, 0.8]])
        assert pr_auc(trajectory) == pytest.approx(0.45)

    def test_higher_precision_reach_scores_more(self):
        shallow = np.array([[1.0, 0.2], [0.8, 0.5]])
        deep = np.array([[1.0, 0.2], [0.8, 0.5], [0.7, 0.9]])
        assert pr_auc(deep) > pr_auc(shallow)

    def test_duplicate_precisions_use_best_recall(self):
        trajectory = np.array([[0.3, 0.5], [0.9, 0.5], [1.0, 0.2]])
        # At precision 0.5, recall 0.9 wins: area = (0.9+1)/2 * 0.3.
        assert pr_auc(trajectory) == pytest.approx(0.285)

    def test_order_invariance(self, rng):
        trajectory = rng.random((20, 2))
        shuffled = trajectory[rng.permutation(20)]
        assert pr_auc(trajectory) == pytest.approx(pr_auc(shuffled))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_unit_square(self, seed):
        trajectory = np.random.default_rng(seed).random((15, 2))
        assert 0.0 <= pr_auc(trajectory) <= 1.0

    def test_trajectory_of_convenience(self):
        x = np.array([[0.1], [0.9]])
        y = np.array([1.0, 0.0])
        boxes = [Hyperbox.unrestricted(1), _box([0.0], [0.5])]
        points, auc = trajectory_of(boxes, x, y)
        assert points.shape == (2, 2)
        assert auc == pr_auc(points)


class TestPeelingTrajectory:
    def test_full_box_first_point(self):
        x = np.array([[0.2], [0.8]])
        y = np.array([1.0, 0.0])
        points = peeling_trajectory([Hyperbox.unrestricted(1)], x, y)
        np.testing.assert_allclose(points[0], [1.0, 0.5])

    @staticmethod
    def _scalar(boxes, x, y):
        """The per-box reference: one scalar precision_recall per box."""
        points = np.empty((len(boxes), 2))
        for i, box in enumerate(boxes):
            prec, rec = precision_recall(box, x, y)
            points[i] = (rec, prec)
        return points

    @pytest.mark.parametrize("labels", ["binary", "soft", "no positives"])
    def test_bit_equal_to_scalar_loop(self, labels):
        """Mixed boxes — nested, empty and categorical — on one test set."""
        gen = np.random.default_rng(8)
        x = gen.random((500, 3))
        x[:, 2] = np.floor(x[:, 2] * 4)
        if labels == "soft":
            y = gen.random(500)
        elif labels == "binary":
            y = (x[:, 0] > 0.4).astype(float)
        else:
            y = np.zeros(500)
        boxes = [Hyperbox.unrestricted(3)]
        for k in range(1, 12):
            boxes.append(boxes[-1].replace(0, lower=k / 30).replace(
                1, upper=1 - k / 40))
        boxes.append(_box([2.0, 0.0, -np.inf], [3.0, 1.0, np.inf]))  # empty
        boxes.append(Hyperbox.unrestricted(3).with_cats(2, {1.0, 3.0}))
        boxes.append(boxes[5].with_cats(2, {0.0}))
        points = peeling_trajectory(boxes, x, y)
        assert points.tobytes() == self._scalar(boxes, x, y).tobytes()

    def test_no_boxes(self):
        x = np.random.default_rng(1).random((10, 2))
        assert peeling_trajectory([], x, np.ones(10)).shape == (0, 2)


class TestConsistency:
    def test_identical_boxes(self):
        box = _box([0.2, 0.2], [0.8, 0.8])
        assert box_consistency(box, box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = _box([0.0], [0.2])
        b = _box([0.5], [0.9])
        assert box_consistency(a, b) == 0.0

    def test_hand_computed_overlap(self):
        a = _box([0.0], [0.6])
        b = _box([0.4], [1.0])
        # Vo = 0.2, Vu = 0.6 + 0.6 - 0.2 = 1.0.
        assert box_consistency(a, b) == pytest.approx(0.2)

    def test_infinite_bounds_clipped_to_reference(self):
        a = Hyperbox.unrestricted(1).replace(0, lower=0.5)
        b = Hyperbox.unrestricted(1)
        # a has volume 0.5, b volume 1, overlap 0.5 -> 0.5 / 1.0.
        assert box_consistency(a, b) == pytest.approx(0.5)

    def test_discrete_levels_used(self):
        levels = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        a = _box([0.0], [0.4])   # covers 0.1, 0.3 -> 2/5
        b = _box([0.2], [0.6])   # covers 0.3, 0.5 -> 2/5, overlap covers 0.3
        value = box_consistency(a, b, discrete_levels={0: levels})
        assert value == pytest.approx((1 / 5) / (3 / 5))

    def test_pairwise_average(self):
        a = _box([0.0], [0.5])
        b = _box([0.0], [0.5])
        c = _box([0.5], [1.0])
        # pairs: (a,b)=1, (a,c)=0, (b,c)=0 -> 1/3.
        assert pairwise_consistency([a, b, c]) == pytest.approx(1 / 3)

    def test_pairwise_needs_two(self):
        with pytest.raises(ValueError):
            pairwise_consistency([_box([0.0], [1.0])])

    def test_symmetry(self, rng):
        a = _box([0.1, 0.2], [0.5, 0.9])
        b = _box([0.3, 0.1], [0.8, 0.6])
        assert box_consistency(a, b) == pytest.approx(box_consistency(b, a))

    @given(
        lo=st.floats(0.0, 0.5), width=st.floats(0.01, 0.5),
        lo2=st.floats(0.0, 0.5), width2=st.floats(0.01, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_unit_interval(self, lo, width, lo2, width2):
        a = _box([lo], [lo + width])
        b = _box([lo2], [lo2 + width2])
        value = box_consistency(a, b)
        assert 0.0 <= value <= 1.0
