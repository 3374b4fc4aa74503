"""Categorical scenario dimensions, end to end.

Locks the categorical stack: peel/paste candidate enumeration over
category levels, rule rendering of category sets, batched membership of
mixed boxes, and bit-exact reference-vs-vectorized equivalence on mixed
numeric+categorical data for both PRIM and BestInterval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.methods import discover
from repro.data import get_lever_model, make_dataset
from repro.subgroup import (
    Hyperbox,
    SortedDataset,
    best_cat_subset,
    best_interval,
    best_interval_for_dim,
    cat_mask,
    contains_many,
    evaluate_boxes,
    prim_peel,
)
from repro.subgroup.describe import describe_box
from repro.subgroup.prim import _best_peel


def mixed_data(n: int = 600, seed: int = 0):
    """Planted mixed box: a1 in [0.2, 0.7], a3 in {0, 2} of 4 levels."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 4))
    x[:, 2] = np.floor(x[:, 2] * 4)
    x[:, 3] = np.floor(x[:, 3] * 3)
    y = ((x[:, 0] >= 0.2) & (x[:, 0] <= 0.7)
         & np.isin(x[:, 2], (0.0, 2.0))).astype(float)
    return x, y


# ----------------------------------------------------------------------
# Peel candidate enumeration
# ----------------------------------------------------------------------

class TestPeelCandidates:
    def test_reference_enumerates_one_candidate_per_level(self):
        # 3 levels present, strongly separated response: the best peel
        # must remove exactly the worst whole level.
        x = np.column_stack([np.repeat([0.0, 1.0, 2.0], 10)])
        y = np.concatenate([np.ones(10), np.zeros(10), np.ones(10)])
        step = _best_peel(x, y, np.arange(30), alpha=0.05,
                          cat_cols=frozenset({0}))
        assert step.new_cats == (0.0, 2.0)
        assert step.new_lower is None and step.new_upper is None
        np.testing.assert_array_equal(step.keep_mask, x[:, 0] != 1.0)

    def test_single_level_cannot_be_peeled(self):
        x = np.zeros((25, 1))
        y = np.ones(25)
        assert _best_peel(x, y, np.arange(25), alpha=0.05,
                          cat_cols=frozenset({0})) is None

    def test_peeling_removes_categories_one_at_a_time(self):
        x, y = mixed_data()
        result = prim_peel(x, y, min_support=10, cat_cols=(2, 3))
        # Consecutive boxes differ by at most one category on column 2.
        sizes = []
        for box in result.boxes:
            allowed = box.cat_restriction(2)
            sizes.append(4 if allowed is None else len(allowed))
        assert all(a - b in (0, 1) for a, b in zip(sizes, sizes[1:]))
        chosen = result.chosen_box.cat_restriction(2)
        assert chosen == frozenset({0.0, 2.0})

    def test_categorical_dim_keeps_infinite_bounds(self):
        x, y = mixed_data()
        result = prim_peel(x, y, min_support=10, cat_cols=(2, 3))
        for box in result.boxes:
            for j in (2, 3):
                if box.cat_restriction(j) is not None:
                    assert np.isinf(box.lower[j]) and np.isinf(box.upper[j])


class TestPasteCandidates:
    def test_paste_readmits_over_peeled_category(self):
        x, y = mixed_data()
        with_paste = prim_peel(x, y, min_support=10, cat_cols=(2, 3),
                               paste=True)
        no_paste = prim_peel(x, y, min_support=10, cat_cols=(2, 3))
        # Pasting never hurts the train mean of the chosen box.
        inside_p = with_paste.chosen_box.contains(x)
        inside_n = no_paste.chosen_box.contains(x)
        assert y[inside_p].mean() >= y[inside_n].mean()


# ----------------------------------------------------------------------
# best_cat_subset / BestInterval refinement
# ----------------------------------------------------------------------

class TestBestCatSubset:
    def test_selects_positive_weight_levels(self):
        np.testing.assert_array_equal(
            best_cat_subset([0.5, -1.0, 2.0, 0.0]),
            [True, False, True, False])

    def test_all_nonpositive_keeps_argmax_level(self):
        np.testing.assert_array_equal(
            best_cat_subset([-3.0, -1.0, -2.0]),
            [False, True, False])

    def test_refine_recovers_planted_subset(self):
        x, y = mixed_data()
        box = Hyperbox.unrestricted(4)
        refined = best_interval_for_dim(x, y, box, 2, categorical=True)
        assert refined.cat_restriction(2) == frozenset({0.0, 2.0})

    def test_sorted_dataset_cat_allowed_matches_reference(self):
        x, y = mixed_data()
        dataset = SortedDataset(x, y)
        base_rate = float(y.mean())
        mask = np.ones(len(x), dtype=bool)
        allowed = dataset.cat_allowed(2, mask)
        reference = best_interval_for_dim(
            x, y, Hyperbox.unrestricted(4), 2, base_rate, categorical=True)
        assert frozenset(allowed) == reference.cat_restriction(2)


# ----------------------------------------------------------------------
# Engine equivalence on mixed data
# ----------------------------------------------------------------------

class TestEngineEquivalence:
    @pytest.mark.parametrize("soft", [False, True])
    def test_prim_engines_bit_identical(self, soft):
        x, y = mixed_data(seed=7)
        if soft:
            rng = np.random.default_rng(1)
            y = np.clip(y * 0.9 + rng.random(len(y)) * 0.1, 0.0, 1.0)
        ref = prim_peel(x, y, min_support=10, cat_cols=(2, 3),
                        engine="reference")
        vec = prim_peel(x, y, min_support=10, cat_cols=(2, 3),
                        engine="vectorized")
        assert [b.key() for b in ref.boxes] == [b.key() for b in vec.boxes]
        np.testing.assert_array_equal(ref.train_means, vec.train_means)
        np.testing.assert_array_equal(ref.val_means, vec.val_means)
        assert ref.chosen == vec.chosen

    @pytest.mark.parametrize("beam_size", [1, 3])
    def test_bi_engines_bit_identical(self, beam_size):
        x, y = mixed_data(seed=11)
        ref = best_interval(x, y, beam_size=beam_size, cat_cols=(2, 3),
                            engine="reference")
        vec = best_interval(x, y, beam_size=beam_size, cat_cols=(2, 3),
                            engine="vectorized")
        assert ref.box.key() == vec.box.key()
        assert ref.wracc == vec.wracc

    def test_discover_engines_agree_on_lever_model(self):
        model = get_lever_model("portfolio")
        x, y = make_dataset(model, 400, np.random.default_rng(2))
        results = {
            engine: discover("BI", x, y, seed=0, engine=engine,
                             cat_levels=model.cat_levels_map)
            for engine in ("reference", "vectorized")
        }
        assert (results["reference"].chosen_box.key()
                == results["vectorized"].chosen_box.key())
        # Purely categorical ground truth: tech in {1, 3}, contract 0.
        chosen = results["vectorized"].chosen_box
        assert chosen.cat_restriction(3) == frozenset({1.0, 3.0})
        assert chosen.cat_restriction(4) == frozenset({0.0})


# ----------------------------------------------------------------------
# Membership / batched kernels
# ----------------------------------------------------------------------

class TestMixedMembership:
    def test_contains_many_matches_per_row_contains(self):
        x, y = mixed_data(seed=3)
        boxes = [
            Hyperbox.unrestricted(4),
            Hyperbox.unrestricted(4).with_cats(2, {0.0, 2.0}),
            Hyperbox.unrestricted(4).replace(0, lower=0.2, upper=0.7)
            .with_cats(3, {1.0}),
        ]
        batched = contains_many(boxes, x)
        for row, box in zip(batched, boxes):
            np.testing.assert_array_equal(row, box.contains(x))

    def test_evaluate_boxes_counts_mixed_boxes(self):
        x, y = mixed_data(seed=5)
        box = (Hyperbox.unrestricted(4)
               .replace(0, lower=0.2, upper=0.7)
               .with_cats(2, {0.0, 2.0}))
        evaluation = evaluate_boxes([box], x, y)
        inside = box.contains(x)
        assert evaluation.n_inside[0] == inside.sum()
        assert evaluation.y_sums[0] == y[inside].sum()
        np.testing.assert_array_equal(evaluation.masks[0], inside)

    def test_cat_mask_is_isin(self, rng):
        column = np.floor(rng.random(50) * 5)
        allowed = frozenset({0.0, 3.0})
        np.testing.assert_array_equal(
            cat_mask(column, allowed), np.isin(column, (0.0, 3.0)))


# ----------------------------------------------------------------------
# rendering and restricting mixed boxes
# ----------------------------------------------------------------------

class TestDescribeRoundTrip:
    def box(self):
        return (Hyperbox.unrestricted(3)
                .replace(0, lower=0.25, upper=0.75)
                .with_cats(2, {0.0, 2.0}))

    def test_describe_renders_category_sets(self):
        text = describe_box(self.box(), input_names=("rain", "cost", "mode"))
        assert "mode in {0, 2}" in text
        assert "0.25 <= rain <= 0.75" in text

    def test_with_cats_none_clears_restriction(self):
        cleared = self.box().with_cats(2, None)
        assert cleared.cat_restriction(2) is None
        assert 2 not in cleared.restricted_dims

    def test_category_sets_are_canonical(self):
        """Clearing the only set gives ``cats=None``, and a -0.0 code is
        stored as 0.0: equal boxes are spelt alike."""
        cleared = Hyperbox.unrestricted(3).with_cats(2, {1.0}).with_cats(2, None)
        assert cleared.cats is None
        assert cleared.key() == Hyperbox.unrestricted(3).key()
        (code,) = Hyperbox.unrestricted(3).with_cats(1, {-0.0}).cats[1]
        assert code == 0.0 and not np.signbit(code)

    def test_volume_counts_level_fraction(self):
        box = self.box()
        levels = {2: np.arange(4, dtype=float)}
        assert box.volume(discrete_levels=levels) == pytest.approx(0.25)
