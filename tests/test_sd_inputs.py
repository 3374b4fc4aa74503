"""Bad inputs at the subgroup-discovery entry points raise ``ValueError``.

Before the shared check, a NaN input made the engines disagree (the
vectorized peel returned ``a1 >= 0.614`` where the masking reference
restricted four inputs), a NaN label returned the unrestricted box, a
too-narrow validation set was accepted, a short ``y_val`` raised
``IndexError`` from inside the peel, and empty grids or zero bumping
repeats either crashed or silently returned a default.  A zero-row
validation set returned the unrestricted box as ``chosen``, and a
bumping ``n_features`` outside ``1..M`` was silently clamped into it,
and so was a BestInterval ``depth`` below 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hyperparams import (optimize_alpha, optimize_bi_depth,
                                    optimize_bumping_features)
from repro.subgroup import best_interval, prim_bumping, prim_peel
from repro.subgroup.best_interval import beam_search, make_refiner


@pytest.fixture
def data():
    x = np.random.default_rng(0).random((200, 4))
    return x, (x[:, 0] > 0.6).astype(float)


def _with_nan(array, index):
    array = array.copy()
    array[index] = np.nan
    return array


ENTRY_POINTS = {
    "prim_peel": lambda x, y: prim_peel(x, y),
    "prim_bumping": lambda x, y: prim_bumping(x, y, n_repeats=3),
    "best_interval": lambda x, y: best_interval(x, y),
    "optimize_alpha": lambda x, y: optimize_alpha(x, y),
    "optimize_bumping_features":
        lambda x, y: optimize_bumping_features(x, y, alpha=0.1, n_repeats=2),
    "optimize_bi_depth": lambda x, y: optimize_bi_depth(x, y),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_input_is_rejected(data, entry):
    x, y = data
    with pytest.raises(ValueError, match=rf"x column 2 holds NaN.*{entry}"):
        ENTRY_POINTS[entry](_with_nan(x, (5, 2)), y)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_label_is_rejected(data, entry):
    x, y = data
    with pytest.raises(ValueError, match=rf"y holds NaN.*{entry}"):
        ENTRY_POINTS[entry](x, _with_nan(y, 3))


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("case,match", [
    ("narrow", "x_val must be a 2-D array with the 4 columns"),
    ("short y_val", "x_val and y_val disagree"),
    ("nan x_val", "x_val column 1 holds NaN"),
    ("nan y_val", "y_val holds NaN"),
    ("empty", "x_val has no rows"),
])
def test_bad_validation_data_is_rejected(data, engine, case, match):
    x, y = data
    x_val, y_val = x, y
    if case == "narrow":
        x_val = x[:, :3]
    elif case == "short y_val":
        y_val = y[:-5]
    elif case == "nan x_val":
        x_val = _with_nan(x, (9, 1))
    elif case == "empty":
        x_val, y_val = x[:0], y[:0]
    else:
        y_val = _with_nan(y, 9)
    with pytest.raises(ValueError, match=match):
        prim_peel(x, y, x_val=x_val, y_val=y_val, engine=engine)
    with pytest.raises(ValueError, match=match):
        prim_bumping(x, y, x_val=x_val, y_val=y_val, n_repeats=2,
                     engine=engine)


def test_labels_must_match_rows(data):
    x, y = data
    with pytest.raises(ValueError, match="x and y disagree"):
        prim_peel(x, y[:-1])
    with pytest.raises(ValueError, match="x and y disagree"):
        prim_bumping(x, y[:, None], n_repeats=2)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_empty_alpha_grid_is_rejected(data, engine):
    with pytest.raises(ValueError, match="non-empty alpha grid"):
        optimize_alpha(*data, grid=(), engine=engine)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_zero_bumping_repeats_are_rejected(data, engine):
    with pytest.raises(ValueError, match="n_repeats must be >= 1, got 0"):
        prim_bumping(*data, n_repeats=0, engine=engine)
    with pytest.raises(ValueError, match="n_repeats must be >= 1, got 0"):
        optimize_bumping_features(*data, alpha=0.1, n_repeats=0,
                                  engine=engine)



@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("n_features", [0, -1, 5, 9])
def test_bumping_feature_count_outside_the_columns_is_rejected(
        data, engine, n_features):
    with pytest.raises(ValueError,
                       match=rf"n_features must be in \[1, 4\].*{n_features}"):
        prim_bumping(*data, n_repeats=2, n_features=n_features,
                     engine=engine)


def test_bumping_feature_count_at_the_edges_is_accepted(data):
    for n_features in (1, 4):
        result = prim_bumping(*data, n_repeats=2, n_features=n_features,
                              rng=np.random.default_rng(0))
        assert len(result.boxes) >= 1


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("depth", [0, -1])
def test_best_interval_depth_below_one_is_rejected(data, engine, depth):
    # Before, depth <= 0 was clamped to 1: depth=0 returned a box that
    # restricts one input.
    with pytest.raises(ValueError, match=rf"depth must be >= 1.*{depth}"):
        best_interval(*data, depth=depth, engine=engine)
    refiner = make_refiner(*data, engine)
    with pytest.raises(ValueError, match=rf"depth must be >= 1.*{depth}"):
        beam_search(refiner, depth, beam_size=1)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("max_iterations", [-1, -5])
def test_best_interval_negative_iteration_cap_is_rejected(data, engine,
                                                          max_iterations):
    # Before, a negative cap returned the unrestricted box as if the
    # search had converged.
    match = rf"max_iterations must be >= 0.*{max_iterations}"
    with pytest.raises(ValueError, match=match):
        best_interval(*data, max_iterations=max_iterations, engine=engine)
    refiner = make_refiner(*data, engine)
    with pytest.raises(ValueError, match=match):
        beam_search(refiner, 2, beam_size=1, max_iterations=max_iterations)


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_best_interval_depth_none_and_one_are_accepted(data, engine):
    one = best_interval(*data, depth=1, engine=engine)
    assert one.box.n_restricted == 1
    every = best_interval(*data, depth=None, engine=engine)
    assert every.wracc >= one.wracc
    assert best_interval(*data, max_iterations=0, engine=engine
                         ).box.n_restricted == 0
