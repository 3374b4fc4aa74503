"""The lockstep peeler against one-at-a-time reference peeling.

:func:`repro.subgroup._kernels.peel_runs` advances many PRIM runs
together; each run must come out exactly as
``prim_peel(engine="reference")`` on that run's own data — same boxes
bit for bit, same training statistics, same validation statistics —
whatever else shares the batch.  The property covers mixed alphas,
bootstrap duplicates, feature subsets of different widths, categorical
and tie-heavy discrete columns, soft labels, validation sets with and
without the validation stop, runs that stop at different steps,
single-run batches, batches peeled twice inside one warm scope (the
second from the memoized column index), and blocks of the column index
forced down to 1-5 rows.  The block tables themselves are checked
against a recount after every step.  ``discover`` is then pinned
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
from repro.subgroup import evaluate_boxes, index, prim_peel
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


def test_batches_close_at_the_entry_budget(monkeypatch):
    """The one limit left on a batch is its entry budget: a batch closes
    once its runs hold ``_BATCH_ENTRIES`` entries at base-table width
    (bootstrap rows and column subsets at their own width), and a run
    over the budget peels alone, however large.  Only the splitter runs,
    so nothing of the nominal 2^28-row base table is allocated."""
    from repro.subgroup import _kernels

    monkeypatch.setattr(_kernels, "_BATCH_ENTRIES", 3 * 8 * 2**20)
    runs = [PeelRun(0.05) for _ in range(7)]
    assert list(_kernels._batches(runs, 2**20, 8)) == [(0, 3), (3, 6), (6, 7)]
    assert list(_kernels._batches(runs[:2], 2**28, 8)) == [(0, 1), (1, 2)]
    narrow = PeelRun(0.05, rows=np.zeros(2**22, dtype=np.int64),
                     cols=np.arange(2))
    assert list(_kernels._batches([narrow] * 4, 2**20, 8)) == [(0, 3), (3, 4)]


def test_runs_must_list_distinct_columns():
    """Each column of a run is one segment; a repeated column is refused
    rather than peeled from a block table that tracks only one copy."""
    x = np.random.default_rng(2).random((50, 3))
    with pytest.raises(ValueError, match="cols must be distinct"):
        peel_runs(x, x[:, 0], [PeelRun(0.1, cols=np.array([0, 2, 0]))],
                  min_support=5)


def test_block_numbers_widen_past_two_bytes(monkeypatch):
    """Block numbers are uint16 up to 2^16 blocks per column and uint32
    beyond; either width peels the same boxes."""
    rng = np.random.default_rng(8)
    x = rng.random((70_000, 2))
    y = (x[:, 0] + 0.2 * rng.random(70_000) > 0.8).astype(float)
    default = peel_runs(x, y, [PeelRun(0.1)], min_support=20)
    assert index.column_index(x).blocks.dtype == np.uint16
    monkeypatch.setattr(index, "_block_rows", lambda n_base: 1)
    assert index.column_index(x).blocks.dtype == np.uint32
    single = peel_runs(x, y, [PeelRun(0.1)], min_support=20)
    np.testing.assert_array_equal(default.stack.lower, single.stack.lower)
    np.testing.assert_array_equal(default.stack.upper, single.stack.upper)
    np.testing.assert_array_equal(default.train_mean, single.train_mean)


@settings(max_examples=25)
@given(batch=lockstep_batches(), block=st.sampled_from([1, 2, 3, 5]))
def test_tiny_blocks_equal_per_run_reference(batch, block):
    """Blocks of 1-5 rows, so that quantile probes, tie runs and
    categorical levels straddle block edges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index, "_block_rows", lambda n_base: block)
        trace = peel_runs(
            batch["x"], batch["y"], batch["runs"],
            min_support=batch["min_support"], objective=batch["objective"],
            cat_cols=batch["cat_cols"], x_val=batch["x_val"],
            y_val=batch["y_val"], val_stop=batch["val_stop"])
    _assert_equals_per_run_reference(batch, trace)


def _near_tied_batch(seed: int, soft: bool):
    """Bootstrap runs with rows held up to ~10 times over columns that
    tie: a duplicated column (cuts through either keep the same rows),
    a coarse one, a categorical one, and labels on a coarse grid whose
    box means tie across different row sets."""
    rng = np.random.default_rng(seed)
    n = 120
    x = rng.random((n, 4))
    x[:, 1] = x[:, 0]
    x[:, 2] = np.round(x[:, 2] * 3) / 3
    x[:, 3] = np.floor(x[:, 3] * 3)
    if soft:
        y = np.round(rng.random(n) * 3) / 10
    else:
        y = (rng.random(n) < 0.2 + 0.6 * x[:, 0]).astype(float)
    runs = [PeelRun(alpha, rows=rng.integers(0, n // 3, size=n),
                    cols=np.sort(rng.choice(4, size=width, replace=False)),
                    val_rows=rng.permutation(n)[:60])
            for alpha, width in ((0.05, 4), (0.1, 3), (0.2, 4), (0.35, 2))]
    return dict(x=x, y=y, x_val=x, y_val=y, runs=runs, cat_cols=(3,),
                min_support=5, val_stop=False, objective="mean", warm=False)


@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
@pytest.mark.parametrize("seed", range(4))
def test_bootstrap_copies_and_near_ties_equal_reference(monkeypatch, seed,
                                                        soft, block):
    monkeypatch.setattr(index, "_block_rows", lambda n_base: block)
    batch = _near_tied_batch(seed, soft)
    trace = peel_runs(batch["x"], batch["y"], batch["runs"], min_support=5,
                      cat_cols=(3,), x_val=batch["x"], y_val=batch["y"])
    _assert_equals_per_run_reference(batch, trace)


@pytest.mark.parametrize("block", [2, 5, 64])
@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_block_tables_equal_a_recount_after_every_step(monkeypatch, soft,
                                                       block):
    """After every step each segment's per-block copies and label sums
    equal a recount from the ``held`` table, exactly (the label sums
    are on a fixed-point grid, so their order does not matter), and add
    up to the run's in-box count."""
    from repro.subgroup import _kernels

    monkeypatch.setattr(index, "_block_rows", lambda n_base: block)
    steps = []
    apply = _kernels._Lockstep._apply

    def checked(batch, step_no, step):
        apply(batch, step_no, step)
        orders = batch.orders.reshape(-1, batch.width)
        for s, (r, col) in enumerate(zip(batch.seg_run, batch.seg_col)):
            copies = batch.held[r * batch.stride + orders[col]]
            np.testing.assert_array_equal(
                batch.cnt[s], copies.reshape(-1, batch.block).sum(axis=1))
            np.testing.assert_array_equal(
                batch.sums[s], (batch.w[orders[col]] * copies).reshape(
                    -1, batch.block).sum(axis=1))
            assert batch.cnt[s].sum() == batch.n[r]
        steps.append(step_no)

    monkeypatch.setattr(_kernels._Lockstep, "_apply", checked)
    batch = _near_tied_batch(3, soft)
    peel_runs(batch["x"], batch["y"], batch["runs"], min_support=5,
              cat_cols=(3,), x_val=batch["x"], y_val=batch["y"])
    rng = np.random.default_rng(5)
    x = rng.random((3000, 3))
    y = rng.random(3000) if soft else (x[:, 0] > 0.4).astype(float)
    peel_runs(x, y, [PeelRun(0.05)], min_support=20)
    assert len(steps) > 30


def _tables_by_recount(batch):
    """Each segment's per-block copies and label sums, recounted from
    the ``held`` table along its column's order."""
    orders = batch.orders.reshape(-1, batch.width)
    cnt, sums = [], []
    for r, col in zip(batch.seg_run, batch.seg_col):
        copies = batch.held[r * batch.stride + orders[col]]
        cnt.append(copies.reshape(-1, batch.block).sum(axis=1))
        sums.append((batch.w[orders[col]] * copies).reshape(
            -1, batch.block).sum(axis=1))
    return np.array(cnt), np.array(sums)


@pytest.mark.parametrize("block", [3, 64])
@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
@pytest.mark.parametrize("shape", ["whole_pool", "bootstrap", "col_subset"])
def test_block_tables_equal_a_recount_before_the_first_step(monkeypatch, shape,
                                                           soft, block):
    """The tables a batch starts from — gathered along each column's
    order, or, for runs that hold every row once, the block sizes — equal
    a recount from ``held`` before any step: a one-run whole-pool batch,
    bootstrap runs with repeated rows and runs over column subsets."""
    from repro.subgroup import _kernels

    monkeypatch.setattr(index, "_block_rows", lambda n_base: block)
    rng = np.random.default_rng(17)
    n = 1000
    x = rng.random((n, 4))
    y = rng.random(n) if soft else (x[:, 0] + 0.3 * rng.random(n) > 0.7
                                    ).astype(float)
    runs = {
        "whole_pool": [PeelRun(0.05)],
        "bootstrap": [PeelRun(alpha, rows=rng.integers(0, n // 4, size=n))
                      for alpha in (0.05, 0.1, 0.2)],
        "col_subset": [PeelRun(0.1, cols=np.array([3, 1])),
                       PeelRun(0.2, rows=rng.choice(n, n // 2, replace=False),
                               cols=np.array([0, 2, 3]))],
    }[shape]
    batch = _kernels._Lockstep(
        x, y, runs, 0, _kernels._Records(len(runs)), min_support=5,
        objective="mean", cat_cols=frozenset(), exact=not soft, val=None,
        val_stop=False)
    cnt, sums = _tables_by_recount(batch)
    np.testing.assert_array_equal(batch.cnt, cnt)
    np.testing.assert_array_equal(batch.sums, sums)
    np.testing.assert_array_equal(batch.cnt.sum(axis=1),
                                  batch.n[batch.seg_run])
    assert batch.single == (shape != "bootstrap")


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


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_exact_tie_between_columns_goes_to_the_first(soft):
    """Two equal columns score every cut identically: a one-run peel
    takes the first of them at every step, as the reference does."""
    rng = np.random.default_rng(31)
    x = rng.random((2000, 3))
    x[:, 2] = x[:, 1]
    y = (1.0 / (1.0 + np.exp(-8 * (x[:, 1] - 0.5))) if soft
         else (x[:, 1] + 0.2 * rng.random(2000) > 0.7).astype(float))
    ref, vec = (prim_peel(x, y, alpha=0.1, engine=engine)
                for engine in ("reference", "vectorized"))
    assert len(vec.boxes) > 5
    assert [b.key() for b in vec.boxes] == [b.key() for b in ref.boxes]
    np.testing.assert_array_equal(vec.train_means, ref.train_means)
    last = vec.boxes[-1]
    assert np.isfinite(last.lower[1]) or np.isfinite(last.upper[1])
    for box in vec.boxes:
        assert np.isinf(box.lower[2]) and np.isinf(box.upper[2])


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
