"""The lockstep peeler against one-at-a-time reference peeling.

:func:`repro.subgroup._kernels.peel_runs` advances many PRIM runs
together; each run must come out exactly as
``prim_peel(engine="reference")`` on that run's own data — same boxes
bit for bit, same training statistics, same validation statistics —
whatever else shares the batch.  The property covers mixed alphas,
bootstrap duplicates, feature subsets of different widths, categorical
and tie-heavy discrete columns, soft labels, validation sets with and
without the validation stop, runs that stop at different steps,
single-run batches, and batches peeled twice inside one warm scope (the
second from the memoized column index).  ``discover`` is then pinned
engine-free end to end for the methods whose SD hyperparameters are
searched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import warm
from repro.core.methods import discover
from repro.subgroup import evaluate_boxes, prim_peel
from repro.subgroup._kernels import PeelRun, peel_runs
from repro.subgroup.bumping import _embed_box
from repro.subgroup.prim import OBJECTIVES


def _columns(rng, n: int, kinds) -> np.ndarray:
    """Continuous, tie-heavy discrete and categorical-code columns."""
    x = rng.random((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == "discrete":
            x[:, j] = np.round(x[:, j] * 3) / 3
        elif kind == "cat":
            x[:, j] = np.floor(x[:, j] * 4)
    return x


@st.composite
def lockstep_batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 150))
    kinds = draw(st.lists(st.sampled_from(["continuous", "discrete", "cat"]),
                          min_size=1, max_size=5))
    dim = len(kinds)
    x = _columns(rng, n, kinds)
    x_val = _columns(rng, int(rng.integers(10, 80)), kinds)
    soft = draw(st.booleans())
    if soft:
        y, y_val = rng.random(n), rng.random(len(x_val))
    else:
        y = (rng.random(n) < 0.2 + 0.6 * x[:, 0] / max(x[:, 0].max(), 1)).astype(float)
        y_val = (rng.random(len(x_val)) < 0.5).astype(float)
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        rows = None
        if draw(st.booleans()):  # a bootstrap sample: duplicates, any order
            rows = rng.integers(0, n, size=int(rng.integers(10, n + 1)))
        width = int(rng.integers(1, dim + 1))
        runs.append(PeelRun(
            alpha=draw(st.sampled_from([0.05, 0.1, 0.2, 0.35])), rows=rows,
            cols=np.sort(rng.choice(dim, size=width, replace=False)),
            val_rows=rng.permutation(len(x_val))[:int(rng.integers(5, len(x_val) + 1))]))
    cat_cols = tuple(j for j, kind in enumerate(kinds) if kind == "cat")
    return dict(x=x, y=y, x_val=x_val, y_val=y_val, runs=runs,
                cat_cols=cat_cols, min_support=draw(st.integers(1, 15)),
                val_stop=draw(st.booleans()),
                objective=draw(st.sampled_from(OBJECTIVES)),
                warm=draw(st.booleans()))


@settings(max_examples=40)
@given(batch=lockstep_batches())
def test_lockstep_batch_equals_per_run_reference(batch):
    """Warm batches peel twice inside one scope: once building the
    column index, once reading it from the memo."""
    x, y, x_val, y_val = batch["x"], batch["y"], batch["x_val"], batch["y_val"]

    def peel():
        return peel_runs(
            x, y, batch["runs"], min_support=batch["min_support"],
            objective=batch["objective"], cat_cols=batch["cat_cols"],
            x_val=x_val, y_val=y_val, val_stop=batch["val_stop"])

    if batch["warm"]:
        warm.enter()
        try:
            traces = [peel(), peel()]
        finally:
            warm.leave()
    else:
        traces = [peel()]
    for trace in traces:
        _assert_equals_per_run_reference(batch, trace)


def _assert_equals_per_run_reference(batch, trace):
    x, y, x_val, y_val = batch["x"], batch["y"], batch["x_val"], batch["y_val"]
    assert len(trace.starts) == len(batch["runs"]) + 1
    boxes = trace.stack.boxes()
    for r, run in enumerate(batch["runs"]):
        rows = np.arange(len(x)) if run.rows is None else run.rows
        cols, val_rows = run.cols, run.val_rows
        local_cats = tuple(i for i, c in enumerate(cols)
                           if int(c) in batch["cat_cols"])
        validation = {}
        if batch["val_stop"]:
            validation = dict(x_val=x_val[np.ix_(val_rows, cols)],
                              y_val=y_val[val_rows])
        ref = prim_peel(x[np.ix_(rows, cols)], y[rows], alpha=run.alpha,
                        min_support=batch["min_support"],
                        objective=batch["objective"], engine="reference",
                        cat_cols=local_cats, **validation)
        ref_boxes = [_embed_box(b, cols, x.shape[1]) for b in ref.boxes]
        mine = trace.run(r)
        assert [b.key() for b in boxes[mine]] == [b.key() for b in ref_boxes]
        np.testing.assert_array_equal(trace.train_n[mine], ref.train_support)
        np.testing.assert_array_equal(trace.train_mean[mine], ref.train_means)
        # The tracked validation statistics are the boxes' own.
        evaluation = evaluate_boxes(ref_boxes, x_val[val_rows], y_val[val_rows])
        np.testing.assert_array_equal(trace.val_n[mine], evaluation.n_inside)
        np.testing.assert_array_equal(trace.val_sum[mine], evaluation.y_sums)
        if batch["val_stop"]:
            val_means = np.divide(trace.val_sum[mine], trace.val_n[mine],
                                  out=np.zeros(len(ref_boxes)),
                                  where=trace.val_n[mine] > 0)
            np.testing.assert_array_equal(val_means, ref.val_means)


def test_batching_never_changes_a_run(monkeypatch):
    """Splitting a search into consecutive batches is result-free."""
    from repro.subgroup import _kernels

    rng = np.random.default_rng(4)
    x = rng.random((120, 4))
    y = (x[:, 0] + 0.3 * rng.random(120) > 0.7).astype(float)
    runs = [PeelRun(alpha, rows=rng.integers(0, 120, 120),
                    cols=np.sort(rng.choice(4, 3, replace=False)))
            for alpha in (0.05, 0.1, 0.2, 0.05, 0.13)]
    whole = peel_runs(x, y, runs, min_support=5, x_val=x, y_val=y)
    monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 1)
    split = peel_runs(x, y, runs, min_support=5, x_val=x, y_val=y)
    np.testing.assert_array_equal(whole.starts, split.starts)
    np.testing.assert_array_equal(whole.stack.lower, split.stack.lower)
    np.testing.assert_array_equal(whole.stack.upper, split.stack.upper)
    np.testing.assert_array_equal(whole.val_sum, split.val_sum)


def test_batches_close_at_the_63_bit_word_limit(monkeypatch):
    """A batch's packed words carry its keys above its row ids: the
    splitter closes a batch before a run would push them past 63 bits,
    and refuses a run that passes them alone.  Only the splitter runs,
    so nothing of the nominal 2^28-row base table is allocated."""
    from repro.subgroup import _kernels

    monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 2**62)
    runs = [PeelRun(0.05) for _ in range(7)]
    # 8 columns over 2^28 rows: one run packs into 60 bits, three into
    # 63 (33 key bits over 30 row bits), four would need 64.
    assert list(_kernels._batches(runs, 2**28, 8)) == [(0, 3), (3, 6), (6, 7)]
    assert list(_kernels._batches(runs[:2], 2**20, 8)) == [(0, 2)]
    with pytest.raises(ValueError, match="limit is 63 bits"):
        list(_kernels._batches(runs[:1], 2**30, 8))


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_tie_heavy_pool_one_run_equals_reference(soft):
    """A REDS-sized one-run peel whose words repeat a key over long
    runs of rows in no particular row order: a ``QuantizedUniform``
    pool with one categorical column and two coarsely quantized
    numeric ones."""
    from repro.sampling.designs import QuantizedUniform

    sampler = QuantizedUniform({0: 7, 1: 4, 3: 12})
    rng = np.random.default_rng(29)
    x, x_val = sampler(20_000, 5, rng), sampler(2_000, 5, rng)
    if soft:
        def label(z):
            return 1.0 / (1.0 + np.exp(-(z[:, 0] - 3 + 2 * z[:, 2])))
    else:
        def label(z):
            return ((z[:, 0] >= 2) & (z[:, 1] != 1) & (z[:, 2] < 0.8)
                    ).astype(float)
    y, y_val = label(x), label(x_val)
    results = [prim_peel(x, y, alpha=0.05, x_val=x_val, y_val=y_val,
                         cat_cols=(1,), engine=engine)
               for engine in ("reference", "vectorized")]
    ref, vec = results
    assert len(ref.boxes) > 10
    assert [b.key() for b in vec.boxes] == [b.key() for b in ref.boxes]
    assert vec.chosen == ref.chosen
    np.testing.assert_array_equal(vec.train_support, ref.train_support)
    np.testing.assert_array_equal(vec.train_means, ref.train_means)
    np.testing.assert_array_equal(vec.val_means, ref.val_means)


def test_batched_searches_keep_the_peel_parameter_checks():
    """The batched paths peel without going through ``prim_peel``, so
    they run its alpha / min_support checks themselves."""
    from repro.core.hyperparams import optimize_alpha
    from repro.subgroup import prim_bumping

    x = np.random.default_rng(0).random((100, 3))
    y = (x[:, 0] > 0.6).astype(float)
    with pytest.raises(ValueError, match="alpha must be in"):
        optimize_alpha(x, y, grid=(0.05, 1.5))
    with pytest.raises(ValueError, match="alpha must be in"):
        prim_bumping(x, y, alpha=0.0, n_repeats=2)
    with pytest.raises(ValueError, match="min_support must be >= 1"):
        prim_bumping(x, y, min_support=0, n_repeats=2)


@pytest.mark.parametrize("name", ["Pc", "PBc", "BIc", "RPcx"])
def test_discover_is_engine_free_with_searched_hyperparameters(name):
    """The SD-hyperparameter searches run the oracle under "reference"
    and pick, and peel, exactly what the batched searches do."""
    rng = np.random.default_rng(31)
    x = rng.random((150, 4))
    y = ((x[:, 0] > 0.3) & (x[:, 2] < 0.8)).astype(float)
    flip = rng.random(150) < 0.1
    y[flip] = 1.0 - y[flip]
    outs = []
    for engine in ("reference", "vectorized"):
        result = discover(name, x, y, seed=7, n_new=400, n_repeats=8,
                          tune_metamodel=False, engine=engine)
        outs.append(([b.key() for b in result.boxes],
                     result.chosen_box.key(), result.hyperparams,
                     result.train_quality))
    assert outs[0] == outs[1]
