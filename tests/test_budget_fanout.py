"""Bit-identity of every fanned-out path under the global worker budget.

The planner hands ``jobs`` leases down to trajectory evaluation, batched
box evaluation, forest fitting and the active-learning loop; none of
those knobs may change a single bit of any result.  Each test runs the
same computation serially and fanned out and compares exactly.
"""

import numpy as np
import pytest

from repro.core.active import active_reds
from repro.experiments import parallel
from repro.metamodels.base import predict_chunked
from repro.metamodels.boosting import GradientBoostingModel
from repro.metamodels.forest import RandomForestModel
from repro.metrics.trajectory import peeling_trajectory
from repro.subgroup._kernels import evaluate_boxes
from repro.subgroup.box import Hyperbox
from repro.subgroup.bumping import prim_bumping


def _boxes(count: int, dim: int, rng: np.random.Generator) -> list:
    out = []
    for _ in range(count):
        lower = rng.random(dim) * 0.4
        upper = lower + 0.2 + rng.random(dim) * 0.4
        out.append(Hyperbox(lower, np.minimum(upper, 1.0)))
    return out


def _dataset(n: int, dim: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    y = (x[:, 0] + 0.3 * x[:, 1] > 0.6).astype(float)
    return x, y, rng


class TestTrajectoryFanout:
    def test_fanned_trajectory_is_bit_identical(self):
        x, y, rng = _dataset(600, 4)
        boxes = _boxes(13, 4, rng)
        serial = peeling_trajectory(boxes, x, y, jobs=1)
        for jobs in (2, 3, None):
            fanned = peeling_trajectory(boxes, x, y, jobs=jobs)
            np.testing.assert_array_equal(serial, fanned)

    def test_single_box_stays_serial(self):
        x, y, rng = _dataset(50, 3)
        boxes = _boxes(1, 3, rng)
        np.testing.assert_array_equal(
            peeling_trajectory(boxes, x, y, jobs=1),
            peeling_trajectory(boxes, x, y, jobs=4))


def _same_evaluation(a, b):
    np.testing.assert_array_equal(a.masks, b.masks)
    np.testing.assert_array_equal(a.n_inside, b.n_inside)
    np.testing.assert_array_equal(a.y_sums, b.y_sums)
    np.testing.assert_array_equal(a.y_means, b.y_means)
    assert a.n_total == b.n_total
    assert a.y_total == b.y_total
    assert a.base_rate == b.base_rate


def _same_bumping(a, b):
    assert [box.key() for box in a.boxes] == [box.key() for box in b.boxes]
    np.testing.assert_array_equal(a.precisions, b.precisions)
    np.testing.assert_array_equal(a.recalls, b.recalls)
    assert a.chosen == b.chosen


class TestEvaluateBoxesFanout:
    def test_binary_labels(self):
        x, y, rng = _dataset(500, 4)
        boxes = _boxes(11, 4, rng)
        serial = evaluate_boxes(boxes, x, y, jobs=1)
        for jobs in (2, 3):
            _same_evaluation(serial, evaluate_boxes(boxes, x, y, jobs=jobs))

    def test_soft_labels(self):
        x, _, rng = _dataset(400, 3)
        y = rng.random(400)  # not all 0/1: the pairwise-sum regime
        boxes = _boxes(9, 3, rng)
        serial = evaluate_boxes(boxes, x, y, jobs=1)
        _same_evaluation(serial, evaluate_boxes(boxes, x, y, jobs=2))


class TestForestFitFanout:
    def test_fanned_fit_grows_identical_trees(self):
        x, y, _ = _dataset(250, 5)
        serial = RandomForestModel(n_trees=11, seed=3, jobs=1).fit(x, y)
        fanned = RandomForestModel(n_trees=11, seed=3, jobs=2).fit(x, y)
        assert len(serial.trees_) == len(fanned.trees_) == 11
        for a, b in zip(serial.trees_, fanned.trees_):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.threshold, b.threshold)
            np.testing.assert_array_equal(a.value, b.value)
        q = np.random.default_rng(7).random((100, 5))
        np.testing.assert_array_equal(serial.predict_proba(q),
                                      fanned.predict_proba(q))


class TestBumpingFanout:
    """The per-round bumping repeats fan out without changing a bit.

    The repeat randomness (bootstrap rows, feature subsets) is drawn
    up front from one rng stream, so scheduling cannot reorder it; the
    pooled box set — and hence the Pareto front — must match the serial
    loop exactly for every ``jobs``.
    """

    def test_fanned_repeats_are_bit_identical(self):
        x, y, _ = _dataset(300, 5)
        runs = {}
        for jobs in (1, 2, 3, None):
            runs[jobs] = prim_bumping(
                x, y, n_repeats=9, n_features=3,
                rng=np.random.default_rng(21), jobs=jobs)
        serial = runs[1]
        for fanned in runs.values():
            _same_bumping(serial, fanned)

    def test_categorical_repeats_fan_out_identically(self):
        rng = np.random.default_rng(8)
        x = rng.random((350, 4))
        x[:, 3] = np.floor(x[:, 3] * 3)
        y = ((x[:, 0] > 0.4) & (x[:, 3] != 1.0)).astype(float)
        serial = prim_bumping(x, y, n_repeats=8, n_features=3,
                              rng=np.random.default_rng(4),
                              cat_cols=(3,), jobs=1)
        fanned = prim_bumping(x, y, n_repeats=8, n_features=3,
                              rng=np.random.default_rng(4),
                              cat_cols=(3,), jobs=3)
        _same_bumping(serial, fanned)
        assert any(box.cat_restriction(3) is not None for box in serial.boxes)


def _step_oracle(x: np.ndarray) -> np.ndarray:
    return (x[:, 0] > 0.5).astype(float)


def _summarise_sd(x: np.ndarray, y: np.ndarray):
    # Deterministic stand-in for subgroup discovery: enough to compare
    # the relabelled sample the loop hands to it.
    return (x.shape, float(x.sum()), float(y.sum()))


class TestActiveLearningFanout:
    def _run(self, jobs, soft):
        return active_reds(
            _step_oracle, 3, _summarise_sd,
            initial=30, budget=70, batch=20,
            metamodel="forest", candidate_pool=150, n_new=200,
            soft_labels=soft, rng=np.random.default_rng(11), jobs=jobs)

    def test_fanned_loop_matches_serial(self):
        for soft in (False, True):
            serial = self._run(1, soft)
            fanned = self._run(2, soft)
            np.testing.assert_array_equal(serial.x, fanned.x)
            np.testing.assert_array_equal(serial.y, fanned.y)
            assert serial.acquisition_history == fanned.acquisition_history
            assert serial.sd_output == fanned.sd_output


def _chunk_uneven(monkeypatch) -> list:
    """Make every ``run_chunked`` fan-out call its module-level chunk
    worker in this process over uneven ``[start, stop)`` ranges, with the
    context and shared arrays its caller built.  Returns the list of
    ``(worker name, edges)`` calls made."""
    calls = []

    def run_uneven(worker, n_rows, *, jobs=1, context=None, shared=None):
        edges = sorted({0, 1, n_rows // 3, n_rows - 1, n_rows})
        calls.append((worker.__name__, edges))
        merged = {**(context or {}), **(shared or {})}
        return [worker(merged, start, stop)
                for start, stop in zip(edges, edges[1:])]

    monkeypatch.setattr(parallel, "run_chunked", run_uneven)
    return calls


class TestChunkWorkers:
    """Every chunk worker joins uneven chunks into the one-chunk result.

    ``run_chunked`` gives each worker one contiguous chunk, so only
    ``jobs`` and the row count set the chunk edges.  These tests cut
    edges no worker count would (a one-row chunk at each end) and run
    the chunks in process, so the property holds for any split.
    """

    @pytest.mark.parametrize("family", ["forest", "boosting"])
    def test_label_chunks(self, monkeypatch, family):
        x, y, rng = _dataset(200, 4)
        model = (RandomForestModel(n_trees=9, seed=1) if family == "forest"
                 else GradientBoostingModel(n_rounds=20, seed=1)).fit(x, y)
        xq = rng.random((1001, 4))
        hard, soft = model.predict(xq), model.predict_proba(xq)
        calls = _chunk_uneven(monkeypatch)
        np.testing.assert_array_equal(predict_chunked(model, xq, jobs=2),
                                      hard)
        np.testing.assert_array_equal(
            predict_chunked(model, xq, soft=True, jobs=2), soft)
        assert [name for name, _ in calls] == ["_label_chunk"] * 2

    def test_evaluate_boxes_chunks(self, monkeypatch):
        x, y, rng = _dataset(300, 4)
        boxes = _boxes(10, 4, rng)
        soft_y = rng.random(300)
        serial = [evaluate_boxes(boxes, x, labels, jobs=1)
                  for labels in (y, soft_y)]
        calls = _chunk_uneven(monkeypatch)
        for labels, expect in zip((y, soft_y), serial):
            _same_evaluation(expect, evaluate_boxes(boxes, x, labels, jobs=2))
        assert [name for name, _ in calls] == ["_evaluate_boxes_chunk"] * 2

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_bumping_chunks(self, monkeypatch, engine):
        x, y, _ = _dataset(250, 5)

        def run():
            return prim_bumping(x, y, n_repeats=7, n_features=3,
                                rng=np.random.default_rng(21),
                                engine=engine)

        serial = run()
        calls = _chunk_uneven(monkeypatch)
        _same_bumping(serial, run())
        assert calls == [("_bumping_chunk", [0, 1, 2, 6, 7])]

    def test_forest_chunks(self, monkeypatch):
        x, y, _ = _dataset(250, 5)
        serial = RandomForestModel(n_trees=10, seed=3).fit(x, y)
        calls = _chunk_uneven(monkeypatch)
        chunked = RandomForestModel(n_trees=10, seed=3, jobs=2).fit(x, y)
        assert calls == [("_forest_chunk", [0, 1, 3, 9, 10])]
        for a, b in zip(serial.trees_, chunked.trees_, strict=True):
            for name in ("feature", "threshold", "left", "right", "value"):
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name))
