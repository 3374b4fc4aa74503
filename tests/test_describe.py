"""Tests for scenario descriptions and coverage summaries."""

import numpy as np
import pytest

from repro.subgroup.box import Hyperbox
from repro.subgroup.describe import (
    describe_box,
    describe_trajectory,
    summarize_box,
)


def _box(lo, hi):
    return Hyperbox(np.array(lo, dtype=float), np.array(hi, dtype=float))


class TestDescribeBox:
    def test_unrestricted(self):
        assert describe_box(Hyperbox.unrestricted(3)) == "IF TRUE THEN y = 1"

    def test_interval_condition(self):
        box = _box([0.2, -np.inf], [0.6, np.inf])
        assert describe_box(box) == "IF 0.2 <= a1 <= 0.6 THEN y = 1"

    def test_one_sided_conditions(self):
        box = _box([-np.inf, 0.3], [0.7, np.inf])
        text = describe_box(box)
        assert "a1 <= 0.7" in text
        assert "a2 >= 0.3" in text

    def test_custom_names(self):
        box = _box([0.1], [0.9])
        text = describe_box(box, input_names=["tau"])
        assert "tau" in text and "a1" not in text

    def test_wrong_name_count(self):
        with pytest.raises(ValueError):
            describe_box(_box([0.1], [0.9]), input_names=["a", "b"])

    def test_native_domain_scaling(self):
        box = _box([0.5, -np.inf], [1.0, np.inf])
        domain = np.array([[0.0, 0.0], [10.0, 1.0]])
        text = describe_box(box, domain=domain)
        assert "5 <= a1 <= 10" in text

    def test_domain_keeps_infinities(self):
        box = _box([-np.inf, 0.5], [np.inf, np.inf])
        domain = np.array([[0.0, 0.0], [10.0, 2.0]])
        text = describe_box(box, domain=domain)
        assert "a2 >= 1" in text
        assert "a1" not in text

    def test_bad_domain_shape(self):
        with pytest.raises(ValueError):
            describe_box(_box([0.1], [0.9]), domain=np.zeros((3, 1)))


class TestSummarize:
    def test_counts(self):
        x = np.array([[0.1], [0.3], [0.5], [0.9]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        summary = summarize_box(_box([0.0], [0.4]), x, y)
        assert summary.n_covered == 2
        assert summary.n_positive_covered == 2
        assert summary.precision == 1.0
        assert summary.recall == 1.0
        assert summary.n_restricted == 1


class TestDescribeTrajectory:
    def test_header_and_rows(self, rng):
        x = rng.random((100, 2))
        y = (x[:, 0] < 0.5).astype(float)
        boxes = [Hyperbox.unrestricted(2), _box([-np.inf, -np.inf], [0.5, np.inf])]
        text = describe_trajectory(boxes, x, y)
        assert "precision" in text
        assert len(text.splitlines()) == 3

    def test_thinning_long_trajectories(self, rng):
        x = rng.random((50, 1))
        y = (x[:, 0] < 0.5).astype(float)
        boxes = [Hyperbox.unrestricted(1)] * 40
        text = describe_trajectory(boxes, x, y, max_rows=10)
        assert len(text.splitlines()) <= 11

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            describe_trajectory([], rng.random((5, 1)), np.zeros(5))

