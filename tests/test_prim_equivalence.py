"""Differential tests: the vectorized peeling engine vs the reference.

``prim_peel(engine="vectorized")`` must reproduce the per-candidate
masking reference *exactly* — same box sequence bit for bit, same
chosen index, same train/validation statistics — across data shapes
that exercise every kernel path: continuous inputs, tied/discrete
levels (the whole-level fallback), soft labels in [0, 1] (the near-tie
re-scoring), all three objectives, validation splits and pasting.
"""

import numpy as np
import pytest

from repro.subgroup import _kernels
from repro.subgroup.prim import ENGINES, OBJECTIVES, prim_peel, _best_peel


def assert_identical_results(a, b):
    """Field-by-field exact equality of two PRIMResults."""
    assert len(a.boxes) == len(b.boxes)
    for box_a, box_b in zip(a.boxes, b.boxes):
        np.testing.assert_array_equal(box_a.lower, box_b.lower)
        np.testing.assert_array_equal(box_a.upper, box_b.upper)
    assert a.chosen == b.chosen
    np.testing.assert_array_equal(a.train_means, b.train_means)
    np.testing.assert_array_equal(a.train_support, b.train_support)
    np.testing.assert_array_equal(a.val_means, b.val_means)


def make_dataset(kind: str, seed: int, n: int = 250, m: int = 6):
    """Randomized datasets covering the kernel's code paths."""
    gen = np.random.default_rng(seed)
    x = gen.random((n, m))
    if kind == "discrete":
        # Few levels everywhere: every peel hits the tie fallback.
        x = np.round(x * 3) / 3
    elif kind == "mixed":
        # Discrete and continuous columns side by side.
        x[:, ::2] = np.round(x[:, ::2] * 4) / 4
    elif kind == "duplicated":
        # Identical columns produce exactly tied candidate scores.
        x[:, 1] = x[:, 0]
    soft = kind in ("soft", "duplicated")
    if soft:
        y = gen.random(n)
    else:
        y = ((x[:, 0] > 0.4) & (x[:, 1] < 0.8)).astype(float)
    return x, y


KINDS = ("continuous", "discrete", "mixed", "soft", "duplicated")


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_exact_equivalence(self, kind, objective):
        for seed in range(5):
            x, y = make_dataset(kind, seed)
            results = [
                prim_peel(x, y, alpha=0.1, min_support=10,
                          objective=objective, engine=engine)
                for engine in ("reference", "vectorized")
            ]
            assert_identical_results(results[0], results[1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_equivalence_with_validation_split(self, kind):
        gen = np.random.default_rng(99)
        x, y = make_dataset(kind, seed=7)
        x_val = gen.random((120, x.shape[1]))
        y_val = gen.random(120)
        results = [
            prim_peel(x, y, alpha=0.08, min_support=8,
                      x_val=x_val, y_val=y_val, engine=engine)
            for engine in ("reference", "vectorized")
        ]
        assert_identical_results(results[0], results[1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_equivalence_with_pasting(self, kind):
        x, y = make_dataset(kind, seed=11)
        results = [
            prim_peel(x, y, alpha=0.15, min_support=10, paste=True,
                      engine=engine)
            for engine in ("reference", "vectorized")
        ]
        assert_identical_results(results[0], results[1])

    @pytest.mark.parametrize("alpha", (0.03, 0.05, 0.2, 0.4))
    def test_equivalence_across_alphas(self, alpha):
        x, y = make_dataset("mixed", seed=3)
        results = [
            prim_peel(x, y, alpha=alpha, min_support=5, engine=engine)
            for engine in ("reference", "vectorized")
        ]
        assert_identical_results(results[0], results[1])

    def test_soft_label_fuzz(self):
        """Broad randomized sweep over shapes, objectives and alphas."""
        gen = np.random.default_rng(2024)
        for trial in range(40):
            n = int(gen.integers(30, 300))
            m = int(gen.integers(1, 8))
            x = gen.random((n, m))
            if trial % 3 == 0:
                x[:, ::2] = np.round(x[:, ::2] * 3) / 3
            y = gen.random(n)
            objective = OBJECTIVES[trial % 3]
            alpha = (0.05, 0.1, 0.3)[trial % 3]
            results = [
                prim_peel(x, y, alpha=alpha, min_support=5,
                          objective=objective, engine=engine)
                for engine in ("reference", "vectorized")
            ]
            assert_identical_results(results[0], results[1])

    def test_categorical_column(self):
        """A coded column peels one category at a time, identically."""
        gen = np.random.default_rng(22)
        x = gen.random((150, 4))
        x[:, 3] = gen.integers(0, 3, size=150)
        y = ((x[:, 0] > 0.3) & (x[:, 3] <= 1)).astype(float)
        results = [
            prim_peel(x, y, min_support=10, cat_cols=(3,), engine=engine)
            for engine in ("reference", "vectorized")
        ]
        assert_identical_results(results[0], results[1])
        assert ([b.key() for b in results[0].boxes]
                == [b.key() for b in results[1].boxes])

    def test_unknown_engine_rejected(self):
        x, y = make_dataset("continuous", seed=0)
        for name in ("turbo", "native"):
            with pytest.raises(ValueError, match="vectorized.*reference"):
                prim_peel(x, y, engine=name)
        assert set(ENGINES) == {"vectorized", "reference"}


class TestSingleStepKernel:
    """The kernel's per-step answer vs the reference candidate search."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_same_winning_candidate(self, kind, objective):
        for seed in range(8):
            x, y = make_dataset(kind, seed, n=150, m=4)
            total_mean, total_n = float(y.mean()), len(y)
            ref = _best_peel(x, y, np.arange(len(x)), 0.1, objective,
                             total_mean, total_n)
            # The kernel's totals are the run's own mean and size.
            vec = _kernels.best_peel(x, y, 0.1, objective)
            assert (ref is None) == (vec is None)
            if ref is None:
                continue
            assert vec.dim == ref.dim
            assert vec.new_lower == ref.new_lower
            assert vec.new_upper == ref.new_upper
            np.testing.assert_array_equal(
                vec.keep_rows, np.nonzero(ref.keep_mask)[0])
            assert vec.score == pytest.approx(ref.score, rel=1e-9, abs=1e-12)

    def test_no_candidate_on_constant_data(self):
        x = np.full((50, 3), 0.5)
        y = np.ones(50)
        assert _kernels.best_peel(x, y, 0.05) is None

    def test_single_point_box(self):
        x = np.array([[0.1, 0.9]])
        y = np.array([1.0])
        assert _kernels.best_peel(x, y, 0.05) is None

    def test_discrete_fallback_peels_whole_level(self):
        # 60% of points tie at the minimum: the alpha-quantile cut
        # removes nothing, so the kernel must peel the entire level.
        x = np.array([[0.0]] * 60 + [[0.5]] * 25 + [[1.0]] * 15)
        y = np.array([0.0] * 60 + [1.0] * 40)
        step = _kernels.best_peel(x, y, 0.05)
        assert step.dim == 0
        assert step.new_lower == 0.5
        assert len(step.keep_rows) == 40

    def test_sorted_quantile_matches_numpy(self):
        gen = np.random.default_rng(5)
        for trial in range(200):
            n = int(gen.integers(2, 120))
            x = gen.random((n, 3))
            if trial % 2 == 0:
                x = np.round(x * 4) / 4
            alpha = float(gen.uniform(0.01, 0.49))
            v = np.sort(x, axis=0)
            expected = np.quantile(x, (alpha, 1.0 - alpha), axis=0)
            got = np.stack([_kernels.sorted_quantile(v, alpha),
                            _kernels.sorted_quantile(v, 1.0 - alpha)])
            np.testing.assert_array_equal(got, expected)
