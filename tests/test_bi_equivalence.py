"""Differential tests: the vectorized BI engine vs the reference.

``best_interval(engine="vectorized")`` must reproduce the per-call
re-sorting/masking reference *exactly* — same box bounds bit for bit,
same WRAcc, same iteration count — across data shapes that exercise
every kernel path: continuous inputs, tied/discrete levels, soft
labels in [0, 1], duplicated columns (exactly tied candidates), and
``depth``/``beam_size`` grids.  The sort-once machinery
(:class:`~repro.subgroup._kernels.SortedDataset`), the vectorized
max-sum-run search and the batched box-evaluation kernels are also
pinned against their scalar references here.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperparams import depth_grid, optimize_bi_depth
from repro.metamodels.tuning import KFold
from repro.subgroup import _kernels
from repro.subgroup.best_interval import (
    BI_ENGINES,
    beam_search,
    best_interval,
    best_interval_for_dim,
    make_refiner,
    wracc,
)
from repro.subgroup.box import Hyperbox
from repro.subgroup.index import column_index

# The module, not the function the package re-exports under its name.
bi_module = importlib.import_module("repro.subgroup.best_interval")


def assert_identical_results(a, b):
    """Field-by-field exact equality of two BIResults (bound bytes, so
    -0.0 and 0.0 differ)."""
    assert a.box.lower.tobytes() == b.box.lower.tobytes()
    assert a.box.upper.tobytes() == b.box.upper.tobytes()
    assert a.box.key() == b.box.key()
    assert a.wracc == b.wracc
    assert a.n_iterations == b.n_iterations


def make_dataset(kind: str, seed: int, n: int = 250, m: int = 6):
    """Randomized datasets covering the kernel's code paths."""
    gen = np.random.default_rng(seed)
    x = gen.random((n, m))
    if kind == "discrete":
        # Few levels everywhere: every refinement groups tied values.
        x = np.round(x * 3) / 3
    elif kind == "mixed":
        # Discrete and continuous columns side by side.
        x[:, ::2] = np.round(x[:, ::2] * 4) / 4
    elif kind == "duplicated":
        # Identical columns produce exactly tied candidate boxes.
        x[:, 1] = x[:, 0]
    if kind in ("soft", "duplicated"):
        y = gen.random(n)
    else:
        y = ((x[:, 0] > 0.4) & (x[:, 1] < 0.8)).astype(float)
    return x, y


KINDS = ("continuous", "discrete", "mixed", "soft", "duplicated")


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("beam_size", (1, 3, 5))
    def test_exact_equivalence_across_beams(self, kind, beam_size):
        for seed in range(4):
            x, y = make_dataset(kind, seed)
            results = [
                best_interval(x, y, beam_size=beam_size, engine=engine)
                for engine in ("reference", "vectorized")
            ]
            assert_identical_results(results[0], results[1])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("depth", (None, 1, 2, 4))
    def test_exact_equivalence_across_depths(self, kind, depth):
        x, y = make_dataset(kind, seed=7)
        results = [
            best_interval(x, y, depth=depth, beam_size=3, engine=engine)
            for engine in ("reference", "vectorized")
        ]
        assert_identical_results(results[0], results[1])

    def test_fuzz(self):
        """Broad randomized sweep over shapes, labels, beams, depths."""
        gen = np.random.default_rng(2025)
        for trial in range(40):
            n = int(gen.integers(25, 300))
            m = int(gen.integers(1, 8))
            x = gen.random((n, m))
            if trial % 3 == 0:
                x[:, ::2] = np.round(x[:, ::2] * 3) / 3
            y = gen.random(n) if trial % 2 else gen.integers(0, 2, n).astype(float)
            beam_size = (1, 2, 5)[trial % 3]
            depth = (None, 1, 3)[trial % 3]
            results = [
                best_interval(x, y, beam_size=beam_size, depth=depth,
                              engine=engine)
                for engine in ("reference", "vectorized")
            ]
            assert_identical_results(results[0], results[1])

    def test_degenerate_labels(self):
        gen = np.random.default_rng(5)
        x = gen.random((80, 3))
        for y in (np.zeros(80), np.ones(80)):
            results = [
                best_interval(x, y, beam_size=2, engine=engine)
                for engine in ("reference", "vectorized")
            ]
            assert_identical_results(results[0], results[1])

    def test_categorical_column(self):
        """A coded column refines to a category subset, identically."""
        gen = np.random.default_rng(21)
        x = gen.random((150, 4))
        x[:, 3] = gen.integers(0, 4, size=150)
        y = ((x[:, 0] > 0.4) & (x[:, 3] >= 2)).astype(float)
        results = [
            best_interval(x, y, beam_size=2, cat_cols=(3,), engine=engine)
            for engine in ("reference", "vectorized")
        ]
        assert_identical_results(results[0], results[1])
        assert results[0].box.key() == results[1].box.key()

    def test_unknown_engine_rejected(self):
        x, y = make_dataset("continuous", seed=0)
        for name in ("turbo", "native"):
            with pytest.raises(ValueError, match="vectorized.*reference"):
                best_interval(x, y, engine=name)
        assert set(BI_ENGINES) == {"vectorized", "reference"}


@st.composite
def depth_searches(draw):
    """A dataset, its categorical columns, a beam size and an order of
    depths for one shared refiner."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 200))
    m = draw(st.integers(1, 6))
    x = gen.random((n, m))
    quantized = draw(st.booleans())
    if quantized:
        # Few levels: tie-heavy columns for the grouping and the
        # stable re-sort; zeros of either sign tie too, and bounds
        # keep the sign of the row that set them.
        x = np.round(x * draw(st.integers(1, 4))) / 4
        if draw(st.booleans()):
            x = np.where(gen.random((n, m)) < 0.5, -x, x)
    cat_cols = ()
    if draw(st.booleans()):
        cat_cols = (draw(st.integers(0, m - 1)),)
        x[:, cat_cols[0]] = gen.integers(0, 4, n)
    if draw(st.booleans()):
        y = gen.random(n)
    else:
        y = (gen.random(n) < 0.2 + 0.5 * (x[:, 0] > 0.5)).astype(float)
    depths = draw(st.permutations(list(range(1, m + 1)) + [None]))
    return x, y, cat_cols, draw(st.integers(1, 3)), depths


class TestSharedRefiner:
    """One refiner serves every depth of a dataset, as in the BI depth
    search, with the results of a fresh search per depth."""

    @settings(max_examples=60, deadline=None)
    @given(search=depth_searches())
    def test_shared_refiner_matches_fresh_searches(self, search):
        x, y, cat_cols, beam_size, depths = search
        refiner = make_refiner(x, y, "vectorized", frozenset(cat_cols))
        for depth in depths:
            shared = beam_search(refiner, depth, beam_size=beam_size)
            for engine in BI_ENGINES:
                fresh = best_interval(x, y, depth=depth, beam_size=beam_size,
                                      cat_cols=cat_cols, engine=engine)
                assert_identical_results(shared, fresh)

    @pytest.mark.parametrize("beam_size", (2, 3))
    def test_categorical_column_at_the_depth_cap(self, beam_size):
        """Below-M depths with a categorical column over a pure region:
        refining a capped box there keeps every level, which is the
        capped box itself, so skipping it changes nothing."""
        gen = np.random.default_rng(0)
        x = gen.random((200, 3))
        x[:, 2] = gen.integers(0, 3, 200)
        y = (x[:, 0] > 0.5).astype(float)
        capped = best_interval(x, y, depth=1, beam_size=beam_size,
                               cat_cols=(2,), engine="reference").box
        assert capped.n_restricted == 1 and capped.cats is None
        kept = bi_module._refine_reference(x, y, capped, 2, float(y.mean()),
                                           categorical=True)
        assert kept.key() == capped.key()
        refiner = make_refiner(x, y, "vectorized", frozenset({2}))
        for depth in (2, 1, None):
            shared = beam_search(refiner, depth, beam_size=beam_size)
            for engine in BI_ENGINES:
                assert_identical_results(shared, best_interval(
                    x, y, depth=depth, beam_size=beam_size, cat_cols=(2,),
                    engine=engine))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("beam_size", (1, 2))
    def test_depth_search_engines_agree(self, kind, beam_size):
        for seed in range(2):
            x, y = make_dataset(kind, seed, n=150)
            chosen = [optimize_bi_depth(x, y, beam_size=beam_size, seed=seed,
                                        engine=engine)
                      for engine in ("reference", "vectorized")]
            assert chosen[0] == chosen[1]

    def test_depth_search_matches_per_call_scores(self):
        """The shared-refiner search scores every (m, fold) as one
        ``best_interval`` call per pair would."""
        from repro.core.hyperparams import _depth_scores
        from repro.metrics.quality import wracc_score

        x, y = make_dataset("mixed", seed=3, n=200)
        folds = list(KFold(5, 0).split(len(x)))
        grid = depth_grid(x.shape[1])
        expected = [[wracc_score(best_interval(x[train], y[train], depth=m,
                                               beam_size=2).box,
                                 x[test], y[test])
                     for train, test in folds] for m in grid]
        assert _depth_scores(x, y, grid, folds, 2, "vectorized") == expected

    def test_each_fold_sorted_once(self):
        sorted_rows = []

        class Counting(_kernels.SortedDataset):
            __slots__ = ()

            def __init__(self, x, y, base_rate=None):
                sorted_rows.append(len(x))
                super().__init__(x, y, base_rate)

        x, y = make_dataset("continuous", seed=0, n=200, m=6)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bi_module, "SortedDataset", Counting)
            optimize_bi_depth(x, y, n_splits=5)
        assert len(depth_grid(6)) > 1
        assert sorted_rows == [160] * 5


class TestSortedDatasetOrder:
    """The column index's orders (quicksorted, tied columns re-sorted
    stably), which :class:`SortedDataset` reads, equal a stable
    argsort."""

    @staticmethod
    def assert_stable_order(x):
        stable = np.argsort(x, axis=0, kind="stable")
        orders = column_index(x).orders[:, :len(x)]
        np.testing.assert_array_equal(orders.T, stable)
        dataset = _kernels.SortedDataset(x, np.zeros(len(x)))
        np.testing.assert_array_equal(dataset.order, stable)
        # Sign bits come out in the stable order too.
        np.testing.assert_array_equal(
            np.signbit(dataset.values),
            np.signbit(np.take_along_axis(x, stable, axis=0)))
        np.testing.assert_array_equal(
            dataset.values, np.take_along_axis(x, stable, axis=0))

    @pytest.mark.parametrize("levels", (1, 2, 3, 7, 50))
    @pytest.mark.parametrize("tied_columns", (3, 4))
    def test_tie_heavy_columns(self, levels, tied_columns):
        """Some columns tied or all of them."""
        gen = np.random.default_rng(levels)
        x = gen.random((500, 4))
        x[:, :tied_columns] = np.floor(x[:, :tied_columns] * levels)
        self.assert_stable_order(x)

    def test_all_columns_tied(self):
        """Every column ties, each at its own number of levels, one of
        them constant."""
        gen = np.random.default_rng(12)
        x = np.floor(gen.random((700, 5)) * [1, 2, 5, 40, 300])
        self.assert_stable_order(x)

    def test_tie_in_the_last_rows(self):
        """A tie only the last rows show is still found."""
        gen = np.random.default_rng(4)
        x = gen.random((500, 3))
        x[-1, 1] = x[0, 1]
        x[-1, 2] = x[-2, 2]
        self.assert_stable_order(x)

    def test_signed_zeros_are_ties(self):
        gen = np.random.default_rng(9)
        x = gen.choice([-0.0, 0.0, 0.5, -1.0], size=(300, 3))
        x[:, 2] = gen.permutation(np.r_[-0.0, 0.0, gen.random(298)])
        self.assert_stable_order(x)


class TestSortedDatasetRefinement:
    """The sort-once refinement vs the re-sorting reference, per call."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_refined_bounds(self, kind):
        for seed in range(6):
            x, y = make_dataset(kind, seed, n=150, m=4)
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            dataset = _kernels.SortedDataset(x, y)
            gen = np.random.default_rng(seed)
            box = Hyperbox.unrestricted(4).replace(
                int(gen.integers(0, 4)), lower=0.2, upper=0.8)
            mask_for = dataset.except_masks(box)
            for j in range(4):
                reference = best_interval_for_dim(x, y, box, j)
                bounds = dataset.interval_bounds(j, mask_for(j))
                assert bounds is not None
                refined = box.replace(j, lower=bounds[0], upper=bounds[1])
                np.testing.assert_array_equal(refined.lower, reference.lower)
                np.testing.assert_array_equal(refined.upper, reference.upper)

    def test_empty_mask_returns_none(self):
        x = np.linspace(0, 1, 20).reshape(-1, 2)
        y = np.ones(10)
        dataset = _kernels.SortedDataset(x, y)
        assert dataset.interval_bounds(0, np.zeros(10, dtype=bool)) is None

    def test_except_masks_match_reference(self):
        from repro.subgroup.box import _contains_except

        gen = np.random.default_rng(11)
        x = np.round(gen.random((120, 5)), 1)
        dataset = _kernels.SortedDataset(x, np.zeros(120))
        box = (Hyperbox.unrestricted(5)
               .replace(1, lower=0.2)
               .replace(3, lower=0.1, upper=0.6))
        mask_for = dataset.except_masks(box)
        for j in range(5):
            np.testing.assert_array_equal(
                mask_for(j), _contains_except(x, box, j))


class TestMaxSumRun:
    """The vectorized prefix-scan search vs a sequential exact Kadane."""

    @staticmethod
    def sequential_kadane(sums):
        best_sum = -np.inf
        best_start = best_end = 0
        run_sum = 0.0
        run_start = 0
        for i, value in enumerate(sums):
            if run_sum <= 0.0:
                run_sum = value
                run_start = i
            else:
                run_sum += value
            if run_sum > best_sum:
                best_sum = run_sum
                best_start, best_end = run_start, i
        return best_start, best_end, float(best_sum)

    def test_matches_sequential_kadane_exactly(self):
        # Integer-valued floats keep both formulations in exact
        # arithmetic, so ties and resets must agree index for index.
        gen = np.random.default_rng(3)
        for _ in range(500):
            n = int(gen.integers(1, 50))
            sums = gen.integers(-3, 4, n).astype(float)
            assert _kernels.max_sum_run(sums) == self.sequential_kadane(sums)

    def test_pinned_small_cases(self):
        assert _kernels.max_sum_run(np.array([3.0])) == (0, 0, 3.0)
        assert _kernels.max_sum_run(np.array([-5.0, -1.0, -3.0])) == (1, 1, -1.0)
        start, end, total = _kernels.max_sum_run(
            np.array([-2.0, 1.0, -3.0, 4.0, -1.0, 2.0, 1.0, -5.0, 4.0]))
        assert (start, end, total) == (3, 6, 6.0)


class TestBatchedEvaluation:
    """contains_many / evaluate_boxes vs the per-box scalar paths."""

    @staticmethod
    def random_boxes(gen, dim, count):
        boxes = []
        for _ in range(count):
            box = Hyperbox.unrestricted(dim)
            for j in range(dim):
                roll = gen.random()
                lo, hi = np.sort(gen.random(2))
                if roll < 0.3:
                    box = box.replace(j, lower=lo, upper=hi)
                elif roll < 0.5:
                    box = box.replace(j, lower=lo)
                elif roll < 0.7:
                    box = box.replace(j, upper=hi)
            boxes.append(box)
        boxes.append(Hyperbox.unrestricted(dim))
        # An empty box (bounds outside the data range) as well.
        boxes.append(Hyperbox.unrestricted(dim).replace(0, lower=2.0, upper=3.0))
        return boxes

    def test_contains_many_matches_contains(self):
        gen = np.random.default_rng(21)
        x = gen.random((300, 4))
        boxes = self.random_boxes(gen, 4, 40)
        masks = _kernels.contains_many(boxes, x)
        assert masks.shape == (len(boxes), 300)
        for box, mask in zip(boxes, masks):
            np.testing.assert_array_equal(mask, box.contains(x))

    def test_contains_many_empty_box_list(self):
        x = np.zeros((5, 2))
        assert _kernels.contains_many([], x).shape == (0, 5)

    @pytest.mark.parametrize("labels", ("binary", "soft"))
    def test_evaluate_boxes_bit_exact_stats(self, labels):
        gen = np.random.default_rng(33)
        x = gen.random((250, 3))
        y = (gen.integers(0, 2, 250).astype(float) if labels == "binary"
             else gen.random(250))
        boxes = self.random_boxes(gen, 3, 25)
        evaluation = _kernels.evaluate_boxes(boxes, x, y)
        for i, box in enumerate(boxes):
            inside = box.contains(x)
            n = int(inside.sum())
            assert evaluation.n_inside[i] == n
            if n:
                assert evaluation.y_sums[i] == float(y[inside].sum())
                assert evaluation.y_means[i] == float(y[inside].mean())
            else:
                assert evaluation.y_sums[i] == 0.0
                assert evaluation.y_means[i] == 0.0
        assert evaluation.n_total == 250
        assert evaluation.y_total == float(y.sum())
        assert evaluation.base_rate == float(y.mean())

    def test_beam_scoring_matches_wracc(self):
        # The vectorized engine's candidate scoring path must agree
        # with the public scalar wracc on the boxes it reports.
        gen = np.random.default_rng(8)
        x = gen.random((400, 5))
        y = gen.random(400)
        result = best_interval(x, y, beam_size=4, engine="vectorized")
        assert result.wracc == wracc(result.box, x, y)
