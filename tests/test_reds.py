"""Tests for the REDS algorithm (Algorithm 4)."""

import numpy as np
import pytest

from repro.core.reds import reds
from repro.metrics import trajectory_of
from repro.subgroup.prim import prim_peel
from tests.conftest import planted_box_data


def _prim_sd(x, y):
    return prim_peel(x, y, alpha=0.1, min_support=20)


class TestInterface:
    def test_rejects_mismatched_data(self, rng):
        with pytest.raises(ValueError):
            reds(rng.random((10, 2)), np.zeros(5), _prim_sd, rng=rng)

    def test_rejects_bad_l(self, rng):
        x, y, _ = planted_box_data(50, 2)
        with pytest.raises(ValueError):
            reds(x, y, _prim_sd, n_new=0, rng=rng)

    def test_rejects_pool_width_mismatch(self, rng):
        x, y, _ = planted_box_data(50, 2)
        with pytest.raises(ValueError):
            reds(x, y, _prim_sd, pool=rng.random((100, 3)), rng=rng)

    @pytest.mark.parametrize("case,match", [
        ("non-binary y", "binary labels"),
        ("non-binary y, instance", "binary labels"),
        ("NaN in y", "y holds NaN or inf"),
        ("inf in x", "x column 1 holds NaN or inf"),
    ], ids=["non-binary", "non-binary-instance", "nan-y", "inf-x"])
    def test_rejects_unusable_training_data(self, rng, case, match):
        from repro.metamodels import RandomForestModel
        x, y, _ = planted_box_data(100, 2, seed=7)
        x, y = x.copy(), y.astype(float)
        metamodel = "forest"
        if case.startswith("non-binary"):
            y = 2 * y
            if case.endswith("instance"):
                metamodel = RandomForestModel(n_trees=3)
        elif case == "NaN in y":
            y[3] = np.nan
        else:
            x[5, 1] = np.inf
        with pytest.raises(ValueError, match=match):
            reds(x, y, _prim_sd, metamodel=metamodel, n_new=100, tune=False,
                 rng=rng)

    @pytest.mark.parametrize("case,match", [
        ("nan", "pool column 1 holds NaN or inf"),
        ("inf", "pool column 0 holds NaN or inf"),
        ("1-D", "pool must be a 2-D array with the 2 columns"),
        ("empty", "pool holds no rows"),
    ])
    def test_rejects_unusable_pool(self, rng, case, match):
        x, y, _ = planted_box_data(100, 2, seed=7)
        pool = rng.random((200, 2))
        if case == "nan":
            pool[4, 1] = np.nan
        elif case == "inf":
            pool[9, 0] = -np.inf
        elif case == "1-D":
            pool = pool[0]
        else:
            pool = pool[:0]
        with pytest.raises(ValueError, match=match):
            reds(x, y, _prim_sd, metamodel="forest", pool=pool, tune=False,
                 rng=rng)

    @pytest.mark.parametrize("draw,match", [
        (lambda n, m, g: g.random((n, m + 1)),
         "sampler's output must be a 2-D array with the 2 columns"),
        (lambda n, m, g: np.full((n, m), np.nan),
         "sampler's output column 0 holds NaN or inf"),
        (lambda n, m, g: g.random((0, m)), "sampler's output holds no rows"),
    ], ids=["wide", "nan", "empty"])
    def test_rejects_unusable_sampler_output(self, rng, draw, match):
        x, y, _ = planted_box_data(100, 2, seed=7)
        with pytest.raises(ValueError, match=match):
            reds(x, y, _prim_sd, metamodel="forest", sampler=draw,
                 n_new=100, tune=False, rng=rng)

    def test_result_fields(self, rng):
        x, y, _ = planted_box_data(150, 2, seed=1)
        result = reds(x, y, _prim_sd, metamodel="forest", n_new=500,
                      tune=False, rng=rng)
        assert result.x_new.shape == (500, 2)
        assert result.y_new.shape == (500,)
        assert result.train_time >= 0
        assert result.label_time >= 0
        assert result.sd_time >= 0

    def test_hard_labels_binary(self, rng):
        x, y, _ = planted_box_data(150, 2, seed=2)
        result = reds(x, y, _prim_sd, metamodel="forest", n_new=300,
                      tune=False, rng=rng)
        assert set(np.unique(result.y_new)) <= {0.0, 1.0}

    def test_soft_labels_in_unit_interval(self, rng):
        x, y, _ = planted_box_data(150, 2, seed=3)
        result = reds(x, y, _prim_sd, metamodel="forest", n_new=300,
                      soft_labels=True, tune=False, rng=rng)
        assert (result.y_new >= 0).all() and (result.y_new <= 1).all()
        assert len(np.unique(result.y_new)) > 2  # genuinely soft

    def test_pool_used_verbatim(self, rng):
        x, y, _ = planted_box_data(150, 2, seed=4)
        pool = rng.random((250, 2))
        result = reds(x, y, _prim_sd, metamodel="forest", pool=pool,
                      tune=False, rng=rng)
        np.testing.assert_array_equal(result.x_new, pool)

    def test_custom_sampler_used(self, rng):
        x, y, _ = planted_box_data(150, 2, seed=5)
        def half_cube(n, m, gen):
            return gen.random((n, m)) * 0.5
        result = reds(x, y, _prim_sd, metamodel="forest", n_new=200,
                      sampler=half_cube, tune=False, rng=rng)
        assert result.x_new.max() <= 0.5

    def test_prefitted_instance_accepted(self, rng):
        from repro.metamodels import RandomForestModel
        x, y, _ = planted_box_data(150, 2, seed=6)
        result = reds(x, y, _prim_sd, metamodel=RandomForestModel(n_trees=5),
                      n_new=100, rng=rng)
        assert result.metamodel.n_trees == 5


class TestStatisticalBehaviour:
    def test_reds_improves_prim_on_small_data(self):
        """The paper's core claim on a controlled example: with few
        simulations, PRIM on metamodel-relabelled data finds (on
        average over repetitions) a better box than PRIM on the raw
        data."""
        x_test, y_test, _ = planted_box_data(5000, 4, noise=0.0, seed=8)

        plain_scores, reds_scores = [], []
        for seed in range(5):
            x, y, _ = planted_box_data(150, 4, noise=0.05, seed=100 + seed)
            plain = prim_peel(x, y, alpha=0.1)
            plain_scores.append(trajectory_of(plain.boxes, x_test, y_test)[1])
            relabelled = reds(x, y, _prim_sd, metamodel="boosting",
                              n_new=5000, tune=False,
                              rng=np.random.default_rng(seed))
            reds_scores.append(
                trajectory_of(relabelled.sd_output.boxes, x_test, y_test)[1])
        assert np.mean(reds_scores) > np.mean(plain_scores)

    def test_soft_labels_match_prop1_variance_claim(self, rng):
        """Proposition 1: soft labels have no more variance than hard
        Bernoulli labels with the same mean."""
        p = rng.random(10_000) * 0.8 + 0.1
        hard = (rng.random(10_000) < p).astype(float)
        assert p.var() <= hard.var()
