"""Property-based differential tests over mixed numeric+categorical data.

Hypothesis drives randomized dataset/box generation; every property is a
differential check of one pinned invariant:

* batched membership (``contains_many``) agrees with per-row
  ``Hyperbox.contains`` for arbitrary mixed boxes;
* PRIM peeling only ever shrinks coverage (nested trajectory), under
  both engines, and the engines are bit-identical throughout;
* BestInterval's engines agree and its WRAcc is achieved by its box;
* a whole REDS ``discover`` run gives the same boxes under both engines;
* hard labels of small random forests and boosting models, which the
  vectorized walk settles early, equal the reference labels and the
  full walk's ``predict_proba > 0.5``;
* ``pareto_front`` returns a mutually non-dominated subset and never
  drops a non-dominated point.

The suite runs under the fixed, derandomized "ci" profile registered in
``conftest.py`` (select with ``HYPOTHESIS_PROFILE=ci``), so CI sees the
same example stream every run — these are seeded tests with a wider
seed supply, not a flakiness source.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.methods import discover
from repro.metamodels import GradientBoostingModel, RandomForestModel
from repro.subgroup import (
    Hyperbox,
    best_interval,
    cat_mask,
    contains_many,
    pareto_front,
    prim_peel,
)
from repro.subgroup.bumping import _pareto_front_reference

#: Engines differentially tested.
DIFF_ENGINES = ("reference", "vectorized")


# ----------------------------------------------------------------------
# Generators: numpy-backed, parameterised by drawn scalars (fast and
# shrinkable where it matters — sizes, level counts, seeds).
# ----------------------------------------------------------------------

@st.composite
def mixed_datasets(draw, max_rows: int = 200):
    """A mixed dataset: numeric unit-cube columns + coded cat columns."""
    n = draw(st.integers(min_value=30, max_value=max_rows))
    n_numeric = draw(st.integers(min_value=1, max_value=3))
    n_cat = draw(st.integers(min_value=1, max_value=2))
    levels = [draw(st.integers(min_value=2, max_value=5))
              for _ in range(n_cat)]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dim = n_numeric + n_cat
    x = rng.random((n, dim))
    cat_cols = tuple(range(n_numeric, dim))
    for j, k in zip(cat_cols, levels):
        x[:, j] = np.floor(x[:, j] * k)
    y = (rng.random(n) < rng.random()).astype(float)
    return x, y, cat_cols, levels


@st.composite
def mixed_boxes(draw, dim: int, cat_cols: tuple, levels: list):
    """A random mixed box over the dataset's columns."""
    box = Hyperbox.unrestricted(dim)
    for j in range(dim):
        if j in cat_cols:
            k = levels[cat_cols.index(j)]
            if draw(st.booleans()):
                allowed = draw(st.sets(
                    st.sampled_from([float(c) for c in range(k)]),
                    min_size=1, max_size=k))
                box = box.with_cats(j, allowed)
        elif draw(st.booleans()):
            a = draw(st.floats(min_value=0.0, max_value=1.0))
            b = draw(st.floats(min_value=0.0, max_value=1.0))
            box = box.replace(j, lower=min(a, b), upper=max(a, b))
    return box


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------

@given(data=st.data(), payload=mixed_datasets())
def test_contains_many_agrees_with_per_row_contains(data, payload):
    x, _, cat_cols, levels = payload
    boxes = [data.draw(mixed_boxes(x.shape[1], cat_cols, levels))
             for _ in range(3)]
    batched = contains_many(boxes, x)
    for row, box in zip(batched, boxes):
        np.testing.assert_array_equal(row, box.contains(x))


@given(payload=mixed_datasets())
def test_cat_mask_complement_partitions_rows(payload):
    x, _, cat_cols, levels = payload
    j, k = cat_cols[0], levels[0]
    codes = [float(c) for c in range(k)]
    half = frozenset(codes[: max(1, k // 2)])
    rest = frozenset(codes) - half
    inside = cat_mask(x[:, j], half)
    if rest:
        np.testing.assert_array_equal(~inside, cat_mask(x[:, j], rest))
    else:
        assert inside.all()


# ----------------------------------------------------------------------
# PRIM peeling
# ----------------------------------------------------------------------

@settings(max_examples=15)
@given(payload=mixed_datasets(max_rows=120))
def test_peeling_never_increases_coverage_and_engines_agree(payload):
    x, y, cat_cols, _ = payload
    results = {
        engine: prim_peel(x, y, min_support=5, cat_cols=cat_cols,
                          engine=engine)
        for engine in DIFF_ENGINES
    }
    ref = results["reference"]
    for vec in (results[engine] for engine in DIFF_ENGINES[1:]):
        assert [b.key() for b in ref.boxes] == [b.key() for b in vec.boxes]
        np.testing.assert_array_equal(ref.train_means, vec.train_means)
        np.testing.assert_array_equal(ref.train_support, vec.train_support)
        assert ref.chosen == vec.chosen
    vec = results["vectorized"]
    # Peeling is monotone: every box nests in its predecessor.
    supports = [int(box.contains(x).sum()) for box in vec.boxes]
    assert all(a >= b for a, b in zip(supports, supports[1:]))
    np.testing.assert_array_equal(supports, vec.train_support)


# ----------------------------------------------------------------------
# BestInterval
# ----------------------------------------------------------------------

@settings(max_examples=15)
@given(payload=mixed_datasets(max_rows=120))
def test_best_interval_engines_agree_and_wracc_is_consistent(payload):
    x, y, cat_cols, _ = payload
    results = {engine: best_interval(x, y, cat_cols=cat_cols, engine=engine)
               for engine in DIFF_ENGINES}
    ref, vec = results["reference"], results["vectorized"]
    for other in (results[engine] for engine in DIFF_ENGINES[1:]):
        assert ref.box.key() == other.box.key()
        assert ref.wracc == other.wracc
    # The reported WRAcc is the box's actual WRAcc on the data.
    inside = vec.box.contains(x)
    n = len(y)
    wracc = (inside.sum() / n) * (
        (y[inside].mean() if inside.any() else 0.0) - y.mean())
    assert np.isclose(vec.wracc, wracc, rtol=1e-9, atol=1e-12)


# ----------------------------------------------------------------------
# REDS end to end
# ----------------------------------------------------------------------

def test_discover_reds_engines_agree():
    """A whole REDS run (metamodel fit, labeling, PRIM) is engine-free."""
    rng = np.random.default_rng(23)
    x = rng.random((120, 3))
    y = ((x[:, 0] > 0.4) & (x[:, 1] < 0.7)).astype(float)
    outs = []
    for engine in DIFF_ENGINES:
        result = discover("RPx", x, y, seed=5, n_new=300,
                          tune_metamodel=False, engine=engine)
        outs.append((tuple(b.key() for b in result.boxes),
                     result.chosen_box.key(), result.train_quality))
    assert outs[0] == outs[1]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["forest", "boosting"]),
    n_trees=st.integers(min_value=1, max_value=24),
    max_depth=st.sampled_from([None, 1, 2, 3, 5]),
    n=st.integers(min_value=6, max_value=80),
    m=st.integers(min_value=1, max_value=3),
    coarse=st.booleans(),
)
@settings(max_examples=40)
def test_settled_hard_labels_match_full_walk(seed, family, n_trees,
                                             max_depth, n, m, coarse):
    """Settled hard labels are the full walk's labels, for both engines."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, m))
    if coarse:
        # Few distinct values: ties, shallow trees, sums on the cut.
        x = np.round(x * 2) / 2
    y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    if family == "forest":
        kw = {"n_trees": n_trees, "max_depth": max_depth}
        cls = RandomForestModel
    else:
        kw = {"n_rounds": n_trees, "max_depth": max_depth or 6,
              "learning_rate": float(rng.uniform(0.05, 1.0))}
        cls = GradientBoostingModel
    vec, ref = (cls(seed=seed % 1000, engine=engine, **kw).fit(x, y)
                for engine in DIFF_ENGINES[::-1])
    xq = rng.random((300, m))
    if coarse:
        xq = np.round(xq * 2) / 2
    xq[:5] = np.nan
    proba = vec.predict_proba(xq)
    np.testing.assert_array_equal(proba, ref.predict_proba(xq))
    hard = vec.predict(xq)
    np.testing.assert_array_equal(hard, (proba > 0.5).astype(np.int64))
    np.testing.assert_array_equal(hard, ref.predict(xq))


# ----------------------------------------------------------------------
# Pareto front
# ----------------------------------------------------------------------

@given(
    points=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=1, max_size=60),
)
def test_pareto_front_is_non_dominated_and_complete(points):
    array = np.asarray(points, dtype=float)
    front = pareto_front(array)
    np.testing.assert_array_equal(front, _pareto_front_reference(array))
    kept = array[front]
    # No kept point dominates another kept point.
    for i in range(len(kept)):
        dominated = ((kept >= kept[i]).all(axis=1)
                     & (kept > kept[i]).any(axis=1))
        assert not dominated.any()
    # Every dropped point is dominated by some kept point.
    dropped = np.setdiff1d(np.arange(len(array)), front)
    for i in dropped:
        dominated = ((array[front] >= array[i]).all(axis=1)
                     & (array[front] > array[i]).any(axis=1))
        assert dominated.any()
