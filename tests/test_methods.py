"""Tests for the method-name registry and the unified discover() API."""

import numpy as np
import pytest

from repro.core.methods import DiscoveryResult, discover, parse_method
from tests.conftest import planted_box_data


class TestParsing:
    @pytest.mark.parametrize("name,sd,optimize", [
        ("P", "prim", False),
        ("Pc", "prim", True),
        ("PB", "bumping", False),
        ("PBc", "bumping", True),
        ("BI", "bi", False),
        ("BIc", "bi", True),
    ])
    def test_plain_methods(self, name, sd, optimize):
        spec = parse_method(name)
        assert spec.sd == sd
        assert spec.optimize is optimize
        assert not spec.is_reds

    def test_bi5_beam(self):
        assert parse_method("BI5").beam_size == 5
        assert parse_method("BI").beam_size == 1

    @pytest.mark.parametrize("name,metamodel,soft,optimize,sd", [
        ("RPf", "forest", False, False, "prim"),
        ("RPx", "boosting", False, False, "prim"),
        ("RPs", "svm", False, False, "prim"),
        ("RPxp", "boosting", True, False, "prim"),
        ("RPfp", "forest", True, False, "prim"),
        ("RPcxp", "boosting", True, True, "prim"),
        ("RBIcxp", "boosting", True, True, "bi"),
        ("RBIcfp", "forest", True, True, "bi"),
    ])
    def test_reds_methods(self, name, metamodel, soft, optimize, sd):
        spec = parse_method(name)
        assert spec.is_reds
        assert spec.metamodel == metamodel
        assert spec.soft_labels is soft
        assert spec.optimize is optimize
        assert spec.sd == sd

    @pytest.mark.parametrize("bad", ["", "X", "RP", "RPz", "Rx", "BIC", "pc", "RPxq"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_method(bad)

    def test_family(self):
        assert parse_method("PB").family == "prim"
        assert parse_method("RBIcxp").family == "bi"


class TestDiscover:
    @pytest.mark.parametrize("name", ["P", "BI"])
    def test_plain_methods_run(self, name):
        x, y, _ = planted_box_data(300, 3, seed=0)
        result = discover(name, x, y, seed=0)
        assert isinstance(result, DiscoveryResult)
        assert result.chosen_box.dim == 3
        assert result.runtime > 0

    def test_bumping_runs_with_few_repeats(self):
        x, y, _ = planted_box_data(300, 3, seed=1)
        result = discover("PB", x, y, seed=0, n_repeats=5)
        assert len(result.boxes) >= 1

    def test_reds_prim_runs(self):
        x, y, _ = planted_box_data(200, 3, seed=2)
        result = discover("RPf", x, y, seed=0, n_new=1000, tune_metamodel=False)
        assert result.hyperparams["L"] == 1000
        assert result.hyperparams["metamodel"] == "forest"

    def test_reds_bi_runs(self):
        x, y, _ = planted_box_data(200, 3, seed=3)
        result = discover("RBIcxp", x, y, seed=0, n_new=800, tune_metamodel=False)
        assert len(result.boxes) == 1
        assert "m" in result.hyperparams

    def test_optimized_alpha_recorded(self):
        x, y, _ = planted_box_data(250, 2, seed=4)
        result = discover("Pc", x, y, seed=0)
        from repro.core.hyperparams import ALPHA_GRID
        assert result.hyperparams["alpha"] in ALPHA_GRID

    def test_default_alpha_used_without_c(self):
        x, y, _ = planted_box_data(250, 2, seed=5)
        result = discover("P", x, y, seed=0, alpha=0.13)
        assert result.hyperparams["alpha"] == 0.13

    def test_trajectory_nested_for_prim(self):
        x, y, _ = planted_box_data(300, 3, seed=6)
        result = discover("P", x, y, seed=0)
        assert len(result.boxes) > 2
        assert result.boxes[0].n_restricted == 0

    def test_seed_reproducibility(self):
        x, y, _ = planted_box_data(200, 3, seed=7)
        a = discover("RPx", x, y, seed=11, n_new=500, tune_metamodel=False)
        b = discover("RPx", x, y, seed=11, n_new=500, tune_metamodel=False)
        assert a.chosen_box.key() == b.chosen_box.key()

    def test_custom_sampler_propagates(self):
        x, y, _ = planted_box_data(200, 2, seed=8)
        calls = []
        def sampler(n, m, rng):
            calls.append(n)
            return rng.random((n, m))
        discover("RPf", x, y, seed=0, n_new=300, sampler=sampler,
                 tune_metamodel=False)
        assert calls == [300]

    def test_pool_mode(self):
        x, y, _ = planted_box_data(200, 2, seed=9)
        pool = np.random.default_rng(1).random((400, 2))
        result = discover("RPf", x, y, seed=0, pool=pool, tune_metamodel=False)
        assert result.hyperparams["L"] == 400

    def test_reds_prim_box_keeps_support_on_original_data(self):
        """REDS grounds PRIM's support constraint in the original
        simulations: every trajectory box must contain at least mp real
        points, preventing arbitrarily deep metamodel-artefact boxes."""
        x, y, _ = planted_box_data(200, 3, seed=10)
        result = discover("RPx", x, y, seed=0, n_new=5000,
                          tune_metamodel=False)
        for box in result.boxes:
            assert box.contains(x).sum() >= 20


class TestInputValidation:
    """Bad data is rejected at the ``discover`` boundary, before any
    method returns a plausible-looking box for it."""

    @pytest.mark.parametrize("name", ["P", "BI", "RPx"])
    @pytest.mark.parametrize("where,value,match", [
        ("x", np.nan, "x column 1"),
        ("x", np.inf, "x column 1"),
        ("x", -np.inf, "x column 1"),
        ("y", np.nan, "y holds"),
    ])
    def test_non_finite_input_is_rejected(self, name, where, value, match):
        x, y, _ = planted_box_data(120, 3, seed=11)
        x, y = x.copy(), y.astype(float)
        if where == "x":
            x[7, 1] = value
            x[9, 2] = value
        else:
            y[7] = value
        with pytest.raises(ValueError, match=match):
            discover(name, x, y, seed=0, n_new=300, tune_metamodel=False)

    @pytest.mark.parametrize("engine", ["turbo", "native"])
    def test_unknown_engine_is_rejected(self, engine):
        x, y, _ = planted_box_data(120, 3, seed=15)
        with pytest.raises(ValueError, match="vectorized.*reference"):
            discover("Pc", x, y, seed=0, engine=engine)

    @pytest.mark.parametrize("name", ["Pc", "PBc", "BIc", "RPcx", "RBIcxp"])
    def test_too_few_rows_for_sd_cross_validation(self, name):
        x = np.random.default_rng(0).random((4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=rf"'{name}'.*at least 5 rows"):
            discover(name, x, y, seed=0, n_new=100, tune_metamodel=False)

    def test_cross_validation_needs_exactly_the_fold_count(self):
        x, y, _ = planted_box_data(5, 2, seed=12)
        result = discover("BIc", x, y.astype(float), seed=0)
        assert result.chosen_box.dim == 2

    @pytest.mark.parametrize("name", ["RPf", "RPs", "RPx", "RBIcxp"])
    def test_reds_needs_binary_labels(self, name):
        x, y, _ = planted_box_data(120, 3, seed=13)
        with pytest.raises(ValueError, match=rf"'{name}'.*binary labels"):
            discover(name, x, 2.0 * y, seed=0, n_new=300,
                     tune_metamodel=False)

    def test_plain_methods_keep_real_valued_labels(self):
        x, y, _ = planted_box_data(120, 3, seed=13)
        result = discover("P", x, 2.0 * y, seed=0)
        assert result.chosen_box.dim == 3

    @pytest.mark.parametrize("codes,match", [
        ([0, 1, 2, 3, 4], r"column 2 .*\[0, 3\)"),
        ([0, 1, -1], r"column 2 .*\[0, 3\)"),
        ([0.0, 0.5, 2.0], r"column 2 .*\[0, 3\)"),
    ])
    def test_categorical_codes_must_lie_in_range(self, codes, match):
        x, y, _ = planted_box_data(120, 3, seed=14)
        x = x.copy()
        x[:, 2] = np.resize(codes, len(x))
        with pytest.raises(ValueError, match=match):
            discover("P", x, y, seed=0, cat_levels={2: 3})

    @pytest.mark.parametrize("case,match", [
        ("nan", "pool column 1 holds NaN or inf"),
        ("inf", "pool column 1 holds NaN or inf"),
        ("1-D", "pool must be a 2-D array with the 3 columns"),
        ("empty", "pool holds no rows"),
    ])
    def test_reds_pool_rows_are_validated(self, case, match):
        x, y, _ = planted_box_data(120, 3, seed=16)
        pool = np.random.default_rng(2).random((300, 3))
        if case in ("nan", "inf"):
            pool[5, 1] = np.nan if case == "nan" else np.inf
        elif case == "1-D":
            pool = pool[0]
        else:
            pool = pool[:0]
        with pytest.raises(ValueError, match=match):
            discover("RPf", x, y, seed=0, pool=pool, tune_metamodel=False)

    def test_sampler_of_wrong_width_is_rejected(self):
        x, y, _ = planted_box_data(120, 3, seed=16)

        def sampler(n, m, gen):
            return gen.random((n, m + 1))

        with pytest.raises(ValueError, match="sampler's output must be"):
            discover("RPf", x, y, seed=0, n_new=200, sampler=sampler,
                     tune_metamodel=False)

    def test_pool_categorical_codes_must_lie_in_range(self):
        x, y, _ = planted_box_data(120, 3, seed=14)
        x = x.copy()
        x[:, 2] = np.resize([0, 1, 2], len(x))
        pool = np.random.default_rng(3).random((200, 3))
        pool[:, 2] = np.resize([0, 1, 2, 3], len(pool))
        with pytest.raises(ValueError, match=r"column 2 of pool .*\[0, 3\)"):
            discover("RPf", x, y, seed=0, pool=pool, tune_metamodel=False,
                     cat_levels={2: 3})

    def test_valid_categorical_codes_are_accepted(self):
        x, y, _ = planted_box_data(120, 3, seed=14)
        x = x.copy()
        x[:, 2] = np.resize([0, 1, 2], len(x))
        result = discover("P", x, y, seed=0, cat_levels={2: 3})
        assert result.chosen_box.dim == 3
