"""Vectorized metamodel kernels: sort-once tree growth, stacked prediction.

The reference tree builder (``DecisionTreeRegressor._grow_reference``)
re-argsorts every candidate feature at every node and scans them in a
Python loop; ensemble prediction walks 100-150 trees one at a time over
the full query matrix.  This module applies the subgroup-kernel
discipline of :mod:`repro.subgroup._kernels` (sort once, maintain
sorted orders incrementally, replace per-item Python loops with batched
array passes) to the metamodel layer:

* :func:`grow_tree` / :func:`grow_forest` float-sort each column **once
  per fit** (:func:`dense_ranks`: per-column dense integer value ranks)
  and grow level-wise from there: the only per-row state carried
  between levels is the row list grouped by node (maintained by an
  arithmetic stable partition — one cumsum, no sorting), and each
  level's split search lays every (node, candidate-feature) pair out as
  one row of a zero-padded matrix whose per-column orderings come from
  a stable **radix** argsort of the uint16 rank keys.  The
  weighted-SSE gain scan is then a single ``cumsum`` + elementwise gain
  evaluation + ``argmax`` per matrix.  Zero padding keeps the per-node
  prefix sums bit-identical to a fresh per-node ``np.cumsum`` (trailing
  zeros never perturb a running prefix), rank-key stability reproduces
  the reference's tie order, the elementwise gain formula is copied
  operation for operation from the reference, and ties break by the
  same first-strict-maximum rule — so the chosen (feature, threshold)
  pairs, the node numbering (both engines grow breadth-first) and the
  fitted flat arrays are bit-identical to ``engine="reference"``.
  :func:`grow_forest` additionally grows whole blocks of bootstrap
  trees level-synchronously (independent spawned generators make tree
  interleaving immaterial), amortizing per-level call overhead — the
  cost floor of deep-tree growth — across the block.  Blocks have a
  row budget rather than a tree count (``_FOREST_BLOCK_ROWS``: about
  2^15 bootstrap rows), so small samples grow about a hundred trees per
  block and large ones a few dozen, and they may span several forests
  over one shared dataset (cross-validation's fold forests).  A block's
  response-independent inputs live in a :class:`BlockLayout`; callers
  that grow many blocks on the same rows (boosting rounds) build it
  once, so the column-flat copies, the NaN map and the root level's
  sorted scan layout are not rebuilt per block.  A grown block comes
  back as one set of flat arrays (:class:`GrownBlock`), its trees as
  views of them.

* :class:`StackedEnsemble` pads the flat arrays of all trees of a
  forest / boosting model into one array set and replaces the per-tree
  prediction loop with a vectorized level-wise walk over (tree, row)
  pairs, chunked over rows for cache residency.  Thresholds are
  replaced by their **ranks** among each feature's sorted unique
  ensemble thresholds and queries by their ``searchsorted`` ranks, so
  the inner walk compares small ints from L1/L2-resident tables
  (``x > t``  iff  ``rank(x) > rank(t)``, an exact equivalence).
  Shallow ensembles (boosting) are padded to **complete heap-indexed
  trees** whose child step is pure arithmetic (``2h + 1 + go``) with no
  child-pointer gather; deep ensembles (fully grown forests) use a
  pointer walk over depth-sorted tree blocks with periodic compaction
  of finished (tree, row) walkers.  Per-tree leaf values are
  accumulated in tree order with the same elementwise operations as the
  reference loops, so ensemble predictions are bit-identical as well.

* Hard labels **settle early**.  A label only asks which side of a cut
  a row's sum ends on (``T/2`` on a forest's leaf sum, 0 on boosting's
  raw score), so the walk adds trees in tree-order segments and, after
  each, drops the rows whose side is already decided; later segments
  walk the survivors only.  After the first ``t`` trees the rest can
  add no less than ``lo[t]`` and no more than ``hi[t]``, the suffix
  sums of each tree's smallest and largest leaf contribution.  The
  bound is monotone (each later tree only narrows it), so a partial
  sum ``s`` with ``s + lo[t] > cut + slack`` ends above the cut
  whatever leaves the row reaches, and ``s + hi[t] < cut - slack`` ends
  below it.  The slack has a relative term that covers the float
  rounding of the remaining adds and of the check, plus an absolute
  1e-6 that keeps the family's final expression (``sum / T > 0.5``,
  ``sigmoid(raw) > 0.5``) far from its rounding boundary.  A settled
  row's sum becomes ``+/-inf``, which that expression maps to the
  decided label; rows that never settle keep adding in tree order with
  the same operations, so their sums, and so their labels, are
  bit-identical to the full walk's.  Checks start where the remaining
  bound width first falls below half its full width and then run every
  :data:`_SETTLE_EVERY` trees; the pointer walk sorts trees by depth
  within a segment.  Soft labels walk all trees as one segment with no
  cut.

Feature subsampling draws one batched ``rng.random`` per tree level
(the draw of :func:`draw_candidates`, which the reference engine
calls), which keeps random forests bit-reproducible across engines
too; a block ranks all its trees' draws with one argsort.

Categorical inputs: the ordinal fallback
----------------------------------------
Mixed-type datasets reach this layer with their categorical columns
holding integer codes ``0 .. K-1`` (see
:func:`repro.sampling.designs.quantize_levels`).  The split scan
deliberately treats those codes as **ordered integers** — a code column
dense-ranks like any float column and splits are ``code <= t``
thresholds — rather than growing one-vs-rest category branches.  Trees
recover arbitrary category subsets by stacking at most ``K - 1``
ordinal splits on the same column, so no expressiveness is lost for the
small ``K`` of scenario levers, and both engines stay bit-identical by
sharing one code path.  Category-subset semantics live exclusively in
the subgroup layer (:mod:`repro.subgroup._kernels`), where the box
description — not just the fitted response — is the product.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grow_tree", "grow_forest", "draw_candidates", "dense_ranks",
           "walk_flat", "StackedEnsemble"]

_NO_FEATURE = -1

#: Strictly-positive improvement a split must reach (shared with the
#: reference scan in ``DecisionTreeRegressor._best_split``).
MIN_GAIN = 1e-12

#: Element budget for one padded (max_node_len, n_columns) scan block;
#: eligible nodes are chunked by size so the padded temporaries stay a
#: few MB with bounded padding waste.
_SCAN_CHUNK_ELEMENTS = 1 << 21


def draw_candidates(rng: np.random.Generator, n_nodes: int,
                    n_features: int, max_features: int) -> np.ndarray:
    """Candidate feature subsets for one level's split-eligible nodes.

    One uniform draw without replacement per node, implemented as a
    single batched random-key argsort so that both tree engines consume
    the generator stream identically (exactly one ``rng.random`` call
    per tree level with subsampling-eligible nodes).
    """
    keys = rng.random((n_nodes, n_features))
    return np.argsort(keys, axis=1, kind="stable")[:, :max_features]


def dense_ranks(x: np.ndarray) -> np.ndarray:
    """Per-column dense value ranks of ``x`` (equal values share a rank).

    An order-embedding of each column with ties collapsed, so a stable
    argsort of ``ranks[idx]`` equals the stable argsort of ``x[idx]``
    for any row multiset ``idx`` — and integer keys (uint16 whenever
    they fit) take numpy's O(n) radix path instead of float timsort.
    """
    n, m = x.shape
    order = np.argsort(x, axis=0, kind="stable")
    sv = np.take_along_axis(x, order, axis=0)
    step = np.empty((n, m), dtype=np.int64)
    step[0] = 0
    # NaNs sort together at the end and must share one rank, exactly
    # like any other tied value.
    step[1:] = (sv[1:] != sv[:-1]) & ~(np.isnan(sv[1:]) & np.isnan(sv[:-1]))
    dense = np.cumsum(step, axis=0)
    ranks = np.empty((n, m), dtype=np.int64)
    np.put_along_axis(ranks, order, dense, axis=0)
    if n <= np.iinfo(np.uint16).max:
        return ranks.astype(np.uint16)
    return ranks


def grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    *,
    max_depth: int | None,
    min_samples_leaf: int,
    min_child_weight: float,
    max_features: int | None,
    rng: np.random.Generator | None,
    ranks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grow one CART regression tree level-wise from rank-sorted columns.

    Returns the flat tree arrays ``(feature, threshold, left, right,
    value, train_leaf)`` where ``train_leaf[i]`` is the leaf node of
    training row ``i`` — bit-identical to the breadth-first reference
    builder fed the same inputs.  ``ranks`` may hold the
    :func:`dense_ranks` of ``x`` computed elsewhere (boosting reuses
    one rank matrix across all rounds that train on the full dataset);
    it is only read, never mutated.
    """
    n, m = x.shape
    if ranks is None:
        ranks = dense_ranks(x)
    return _grow_block(
        x, y, weight, ranks,
        n_trees=1, n_samp=n, max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_child_weight=min_child_weight,
        max_features=max_features, rngs=[rng],
    )[0]


#: Row budget of one forest growth block: a block holds
#: ``max(1, _FOREST_BLOCK_ROWS // n_samp)`` trees of ``n_samp`` bootstrap
#: rows each.  Per-level numpy call overhead, the cost floor of a deep
#: tree, amortizes over many trees when samples are small, while the
#: block's padded scan temporaries stay bounded at any ``n_samp``.  A
#: budget of 2^16 rows grew no faster and raised the peak memory of a
#: tuned forest fit at N=400 by about 20 MB.
_FOREST_BLOCK_ROWS = 1 << 15


def _forest_chunk(context, start: int, stop: int) -> list:
    """Trees ``[start, stop)`` of a :func:`grow_forest` call, in blocks.

    Trees are numbered forest by forest; ``rows[bounds[i]:bounds[i +
    1]]`` are tree ``i``'s bootstrap rows of ``x``.  A block holds
    consecutive trees of one sample size.  The caller drew every
    bootstrap and spawned every per-tree generator first, so any range
    grows exactly the trees the serial call grows at the same
    positions, whatever the block or chunk boundaries.
    """
    x, y, ranks = context["x"], context["y"], context["ranks"]
    rows, bounds = context["rows"], context["bounds"]
    sizes = np.diff(bounds[start:stop + 1])
    blocks = []
    b = start
    while b < stop:
        n_samp = int(sizes[b - start])
        hi = min(stop, b + max(1, _FOREST_BLOCK_ROWS // n_samp))
        other = np.flatnonzero(sizes[b - start:hi - start] != n_samp)
        if other.size:
            hi = b + int(other[0])
        idx = rows[bounds[b]:bounds[hi]]
        blocks.append((b, _grow_block(
            x[idx], y[idx], np.ones(idx.size), ranks[idx],
            n_trees=hi - b, n_samp=n_samp,
            max_depth=context["max_depth"],
            min_samples_leaf=context["min_samples_leaf"],
            min_child_weight=0.0,
            max_features=context["max_features"],
            rngs=context["rngs"][b:hi],
        )))
        b = hi
    return blocks


def grow_forest(
    x: np.ndarray,
    y: np.ndarray,
    rngs: list[np.random.Generator],
    *,
    rows: list[np.ndarray] | None = None,
    n_trees: int,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None,
    jobs: int | None = 1,
) -> list[tuple[int, "GrownBlock"]]:
    """Grow one random forest per generator in ``rngs``, in row-budget blocks.

    Forest ``f`` trains on ``x[rows[f]]`` (all of ``x`` when ``rows`` is
    None) and consumes ``rngs[f]`` exactly like the reference engine:
    all ``n_trees`` bootstrap draws first, then one spawned child
    generator per tree for its feature subsampling.  Every tree's
    stream is thus independent of how trees are interleaved, so
    consecutive trees of equal sample size, from one forest or from
    several (the training sets of ``KFold`` folds come in runs of equal
    size), grow level-synchronously in blocks of about
    ``_FOREST_BLOCK_ROWS`` rows while each comes out bit-identical to
    fitting it alone.  The dense rank matrix of ``x`` is computed once
    and gathered per bootstrap sample: the ranks of any row subset sort
    exactly like that subset's own.

    With ``jobs`` > 1 (or ``None`` for all CPUs) contiguous tree ranges
    fan out over the plan engine: ``x``/``y``, the bootstrap rows and
    the rank matrix cross process boundaries zero-copy through the data
    plane, the spawned generators ship once per worker, and each worker
    runs the very same block loop over its range.  The trees are
    bit-identical for every ``jobs``.

    Returns ``(first, block)`` pairs in tree order, trees numbered
    forest by forest (tree ``t`` of forest ``f`` is ``f * n_trees +
    t``): ``block[i]`` is the ``(feature, threshold, left, right,
    value, train_leaf)`` tuple of tree ``first + i``, whose
    ``train_leaf`` indexes its bootstrap sample rows.
    """
    if rows is None:
        rows = [None] * len(rngs)
    boots, tree_rngs = [], []
    for rng, train in zip(rngs, rows):
        n = len(x) if train is None else len(train)
        boot = [rng.integers(0, n, size=n) for _ in range(n_trees)]
        boots += boot if train is None else [train[b] for b in boot]
        tree_rngs += rng.spawn(n_trees)
    context = {
        "rngs": tree_rngs,
        "max_depth": max_depth,
        "min_samples_leaf": min_samples_leaf,
        "max_features": max_features,
    }
    shared = {
        "x": np.ascontiguousarray(x, dtype=float),
        "y": np.ascontiguousarray(y, dtype=float),
        "rows": np.concatenate(boots),
        "bounds": np.cumsum([0] + [len(b) for b in boots]),
        "ranks": dense_ranks(x),
    }
    total = len(boots)
    if (jobs is None or jobs > 1) and total > 1:
        from repro.experiments.parallel import run_chunked

        parts = run_chunked(_forest_chunk, total, jobs=jobs,
                            context=context, shared=shared)
        return [block for part in parts for block in part]
    return _forest_chunk({**context, **shared}, 0, total)


class BlockLayout:
    """What a block's split scans read from its values ``xb`` and ranks.

    The column-flat (Fortran order) values and ranks, the NaN map and,
    once a :func:`_grow_block` call finds every tree eligible at the
    root, the root level's scan layout (:func:`_scan_chunks`).  None of
    it depends on the response or the weights, so a caller that grows
    block after block on the same ``(xb, ranks)`` — boosting rounds
    whose chains train on all rows and all columns — builds one layout
    and passes it to every call, which then skips the prologue and the
    root-level sort.  The cached root assumes every call shares the
    block shape, ``min_samples_leaf`` and an unsubsampled feature set.
    """

    def __init__(self, xb: np.ndarray, ranks: np.ndarray) -> None:
        self.V, self.m = xb.shape
        self.x_flat = np.asfortranarray(xb).reshape(-1, order="F")
        self.rk_flat = np.asfortranarray(ranks).reshape(-1, order="F")
        self.rank_dtype = ranks.dtype
        # NaN feature values sort last and never admit a split on either
        # side of them (any comparison with NaN is False in the reference
        # scan).  The check reads the values themselves, not a per-column
        # NaN rank, so stacked trees may carry rank matrices of their own
        # (boosting's fold chains).  Slot V*m absorbs padding-row lookups.
        nan = np.isnan(self.x_flat)
        self.nan_flat = np.append(nan, False) if nan.any() else None
        self.root: list | None = None


def _scan_chunks(lay: BlockLayout, node_rows: np.ndarray, starts: np.ndarray,
                 seg_counts: np.ndarray, elig: np.ndarray, cand: np.ndarray,
                 k: int, min_leaf: int) -> list[tuple]:
    """The padded, rank-sorted scan layout of one level's eligible nodes.

    Nodes are chunked largest-first so each chunk's padding waste stays
    bounded.  A chunk lays every (node, candidate feature) pair out as
    one row of a zero-padded ``(n_cols, max_len)`` matrix of row ids,
    sorted per row by a stable radix argsort of the integer rank keys,
    and returns ``(sel, e_idx, col_len, row_srt, valid, fcol, x_lo,
    x_hi)``: the chunk's nodes (positions in ``elig`` and segment ids),
    the column lengths, the sorted row ids, the split positions that
    the data alone admits, and each column's feature and value range.
    Everything here is independent of the response and the weights.
    """
    V = lay.V
    x_flat = lay.x_flat
    lengths = seg_counts[elig]
    by_size = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[by_size]
    chunks = []
    ptr = 0
    while ptr < by_size.size:
        # Greedy waste-bounded chunking: extend while the padded area
        # stays under twice the actual data (and the element budget),
        # so big and small nodes never share a block unless the small
        # ones are numerous enough to amortize.
        max_len = int(sorted_len[ptr])
        actual = 0
        q = 0
        while ptr + q < by_size.size:
            nxt = int(sorted_len[ptr + q])
            if q and (max_len * (q + 1) * k > _SCAN_CHUNK_ELEMENTS
                      or max_len * (q + 1) > 2 * (actual + nxt)):
                break
            actual += nxt
            q += 1
        sel = by_size[ptr:ptr + q]
        ptr += q
        e_idx = elig[sel]
        n_cols = q * k

        # One flat scatter builds all padded columns; a stable argsort
        # of the integer rank keys then sorts every column at once
        # (radix for uint16 ranks), with padding (the largest rank, row V)
        # sinking to the bottom.
        col_len = np.repeat(lengths[sel], k)
        tot = int(col_len.sum())
        col_off = np.concatenate(([0], np.cumsum(col_len)[:-1]))
        ar = np.arange(tot) - np.repeat(col_off, col_len)
        src_pos = np.repeat(np.repeat(starts[e_idx], k), col_len) + ar
        src_col = np.repeat(cand[sel].ravel(), col_len)
        src_row = node_rows[src_pos]
        dst = np.repeat(np.arange(n_cols) * max_len, col_len) + ar

        # Columns live as contiguous rows of (n_cols, max_len) matrices,
        # so the per-column sorts, prefix sums and argmaxes all run over
        # contiguous memory.
        row_pad = np.full((n_cols, max_len), V, dtype=np.int64)
        rank_pad = np.full((n_cols, max_len), np.iinfo(lay.rank_dtype).max,
                           dtype=lay.rank_dtype)
        row_pad.ravel()[dst] = src_row
        rank_pad.ravel()[dst] = lay.rk_flat[src_row + V * src_col]
        perm = np.argsort(rank_pad, axis=1, kind="stable")
        # Column-flat gathers (take_along_axis builds full index grids in
        # Python; one add does the same job).
        pflat = perm + (np.arange(n_cols) * max_len)[:, None]
        row_srt = row_pad.ravel()[pflat]
        rank_srt = rank_pad.ravel()[pflat]

        # Split after sorted position p: left spans [0, p].
        n_pos = max_len - 1
        pos_grid = np.arange(n_pos)[None, :]
        valid = (pos_grid >= min_leaf - 1) \
            & (pos_grid <= (col_len - min_leaf - 1)[:, None])
        # Distinct-value check on ranks (dense ranks embed the value
        # order with ties collapsed).
        valid &= rank_srt[:, :n_pos] < rank_srt[:, 1:]
        fcol = src_col[col_off]
        if lay.nan_flat is not None:
            # x < NaN is False in the reference scan, so the position
            # just before a column's NaN run admits no split either.
            valid &= ~lay.nan_flat[row_srt[:, 1:] + V * fcol[:, None]]
        x_lo = x_flat[row_srt[:, 0] + V * fcol]
        x_hi = x_flat[row_srt[np.arange(n_cols), col_len - 1] + V * fcol]
        chunks.append((sel, e_idx, col_len, row_srt, valid, fcol, x_lo, x_hi))
    return chunks


class GrownBlock:
    """The flat arrays of a block's trees; ``block[t]`` views tree ``t``.

    ``arrays`` holds ``(feature, threshold, left, right, value,
    train_leaf)`` with every tree's nodes back to back — tree ``t`` spans
    ``offsets[t]:offsets[t + 1]`` and numbers its children locally — and
    every tree's ``n_samp`` training-row leaves back to back.
    """

    def __init__(self, arrays: tuple, offsets: np.ndarray, n_samp: int) -> None:
        self.arrays = arrays
        self.offsets = offsets
        self.n_samp = n_samp

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, t: int) -> tuple:
        t = range(len(self))[t]
        lo, hi = self.offsets[t], self.offsets[t + 1]
        *nodes, train_leaf = self.arrays
        return (*(a[lo:hi] for a in nodes),
                train_leaf[t * self.n_samp:(t + 1) * self.n_samp])

    def walk(self, x: np.ndarray, tree: np.ndarray) -> np.ndarray:
        """Leaf value of every row ``x[i]`` in the block's tree ``tree[i]``."""
        return walk_flat(self.arrays[:5], self.offsets, x, tree)


def walk_flat(arrays, offsets: np.ndarray, x: np.ndarray,
              tree: np.ndarray) -> np.ndarray:
    """Leaf value of every row ``x[i]`` in tree ``tree[i]``.

    ``arrays`` holds ``(feature, threshold, left, right, value)`` of
    trees stored back to back, tree ``t`` at ``offsets[t]:offsets[t +
    1]`` with children numbered locally.  One level-wise descent of all
    rows takes the same ``x <= thr`` branches as
    :meth:`DecisionTreeRegressor.apply`.
    """
    feature, threshold, left, right, value = arrays
    shift = np.repeat(offsets[:-1], np.diff(offsets))
    node = offsets[tree]
    active = np.flatnonzero(feature[node] != _NO_FEATURE)
    while active.size:
        cur = node[active]
        go_left = x[active, feature[cur]] <= threshold[cur]
        node[active] = shift[cur] + np.where(go_left, left[cur], right[cur])
        active = active[feature[node[active]] != _NO_FEATURE]
    return value[node]


def _grow_block(
    xb: np.ndarray,
    yb: np.ndarray,
    wb: np.ndarray,
    ranks: np.ndarray,
    *,
    n_trees: int,
    n_samp: int,
    max_depth: int | None,
    min_samples_leaf: int,
    min_child_weight: float,
    max_features: int | None,
    rngs,
    layout: BlockLayout | None = None,
) -> GrownBlock:
    """Level-synchronous growth of ``n_trees`` independent trees whose
    rows are stacked tree-major in ``xb``/``yb``/``wb`` (``n_samp`` rows
    each); ``ranks`` holds each row's per-column dense value rank.
    ``layout`` is ``BlockLayout(xb, ranks)``, built here when not given.
    Returns the block's flat arrays, trees as views of them.

    The only per-row state carried between levels is ``node_rows`` (row
    ids grouped by node, ascending within each node).  Each level's
    split scan rebuilds its padded (position, node x feature) columns
    by a stable **radix** argsort of the integer rank keys — stability
    reproduces the reference's tie order (ascending row position), and
    re-sorting small integers per level is cheaper than maintaining
    every feature's sorted order through an m-wide stable partition.
    The root level's layout is the one exception: when every tree is
    eligible there and no features are subsampled, it comes from (and
    is cached on) ``layout``, so repeated calls sort the root once.
    """
    lay = BlockLayout(xb, ranks) if layout is None else layout
    V, m = lay.V, lay.m
    min_leaf = min_samples_leaf
    subsample = max_features is not None and max_features < m
    k = max_features if subsample else m
    x_flat = lay.x_flat

    # With unit weights and a binary response — the random-forest hot
    # path — every per-node sum is integer-exact: segmented cumsum
    # differences equal the reference's fresh pairwise slice sums bit
    # for bit, the per-node value loop vectorizes away entirely, and the
    # scan's weight prefix sums are plain position counts.
    exact_sums = bool((wb == 1.0).all()) and bool(((yb == 0.0) | (yb == 1.0)).all())
    # In the exact regime every prefix sum is a small integer, so the
    # whole scan runs in uint8/int32 and only the gain divisions touch
    # floats — int/int true division of exact integers is bit-identical
    # to dividing the same integers held in float64.  int32 squares need
    # counts <= 46340; larger exact fits fall back to the float path.
    exact_int = exact_sums and n_samp <= 46_000
    # Sentinel slot V: padding rows gather a zero contribution.
    if exact_int:
        y8 = np.concatenate((yb, [0.0])).astype(np.uint8)
    wy = yb if exact_sums else wb * yb
    wyx = np.concatenate((wy, [0.0]))
    if not exact_sums:
        wx = np.concatenate((wb, [0.0]))

    # Row ids grouped by node in ascending original order — the order
    # the reference sees y[idx] in, which makes the per-node value (a
    # pairwise slice sum) bit-identical to np.average(y[idx], w[idx]).
    node_rows = np.arange(V)

    # Flat tree arrays, one block per level, tagged with (tree, local
    # node id) for the final per-tree assembly.
    feat_parts = [np.full(n_trees, _NO_FEATURE, dtype=np.int64)]
    thr_parts = [np.zeros(n_trees)]
    left_parts = [np.full(n_trees, -1, dtype=np.int64)]
    right_parts = [np.full(n_trees, -1, dtype=np.int64)]
    val_parts = [np.zeros(n_trees)]
    tree_parts = [np.arange(n_trees)]
    id_parts = [np.zeros(n_trees, dtype=np.int64)]
    tree_n_nodes = np.ones(n_trees, dtype=np.int64)
    train_leaf = np.empty(V, dtype=np.int64)

    seg_counts = np.full(n_trees, n_samp, dtype=np.int64)
    seg_tree = np.arange(n_trees)           # owning tree per segment
    seg_node = np.zeros(n_trees, dtype=np.int64)  # local node id per segment
    depth = 0

    while True:
        n_seg = seg_counts.size
        n_active = node_rows.size
        ends = np.cumsum(seg_counts)
        starts = ends - seg_counts
        val_blk = val_parts[-1]

        y_rows = yb[node_rows]

        # ------------------------------------------------------------------
        # Node values (same ops as np.average over each node's rows) and
        # purity, whole level at once where the sums are integer-exact.
        # ------------------------------------------------------------------
        if exact_sums:
            # Unit weights, binary y: the node value is ones/count and a
            # node is pure iff its ones count is 0 or everything.
            csum = np.concatenate(([0.0], np.cumsum(y_rows)))
            seg_sum = csum[ends] - csum[starts]
            val_blk[:] = seg_sum / np.maximum(seg_counts, 1)
            impure = (seg_sum > 0) & (seg_sum < seg_counts)
        else:
            w_rows = wb[node_rows]
            wy_rows = wy[node_rows]
            for i in range(n_seg):
                s, e = int(starts[i]), int(ends[i])
                scl = w_rows[s:e].sum()
                val_blk[i] = wy_rows[s:e].sum() / scl if scl > 0 else 0.0
            # A node is pure iff no adjacent response pair differs.
            if n_active > 1:
                change = np.empty(n_active, dtype=np.int64)
                change[0] = 0
                change[1:] = y_rows[1:] != y_rows[:-1]
                cs = np.cumsum(change)
                impure = (cs[ends - 1] - cs[starts]) > 0
            else:
                impure = np.zeros(n_seg, dtype=bool)

        at_cap = max_depth is not None and depth >= max_depth
        if at_cap:
            elig = np.empty(0, dtype=np.int64)
        else:
            elig = np.flatnonzero(impure & (seg_counts >= 2 * min_leaf))

        # Candidate features per eligible node, one batched draw per
        # (tree, level) from the tree's own generator — the reference
        # draws the identical matrices in the identical order.
        # Segments are grouped by tree, so the key matrices stack in
        # segment order and one row-wise argsort (draw_candidates' sort)
        # ranks every tree's keys at once.
        if elig.size and subsample:
            cnt = np.bincount(seg_tree[elig], minlength=n_trees)
            keys = np.concatenate([rngs[t].random((int(c), m))
                                   for t, c in enumerate(cnt) if c])
            cand = np.argsort(keys, axis=1, kind="stable")[:, :k]
        else:
            cand = np.broadcast_to(np.arange(m), (elig.size, m))

        # ------------------------------------------------------------------
        # Level-wise split search over padded (position, node x feature)
        # matrices; nodes are chunked largest-first so each block's
        # padding waste stays bounded.
        # ------------------------------------------------------------------
        split_feat = np.full(n_seg, _NO_FEATURE, dtype=np.int64)
        split_thr = np.zeros(n_seg)

        if elig.size:
            if depth == 0 and not subsample and elig.size == n_trees:
                if lay.root is None:
                    lay.root = _scan_chunks(lay, node_rows, starts, seg_counts,
                                            elig, cand, k, min_leaf)
                chunks = lay.root
            else:
                chunks = _scan_chunks(lay, node_rows, starts, seg_counts,
                                      elig, cand, k, min_leaf)
            for sel, e_idx, col_len, row_srt, valid, fcol, x_lo, x_hi in chunks:
                q = sel.size
                cix = np.arange(q * k)
                n_pos = row_srt.shape[1] - 1
                pos_grid = np.arange(n_pos)[None, :]

                # Per-column prefix sums: trailing zero padding leaves
                # the running prefixes identical to per-node cumsums.
                # Split after sorted position p: left spans [0, p]; the
                # gain expression mirrors the reference line for line so
                # every surviving element is bit-identical.
                if exact_int:
                    # Integer fast path: weights are position counts and
                    # response sums are ones counts, so prefix sums stay
                    # int32 and (at valid positions, where wl, wr >=
                    # min_leaf >= 1) the reference's 1e-300 floors are
                    # bitwise no-ops.
                    cum_wy = np.cumsum(y8[row_srt], axis=1,
                                       dtype=np.int32)
                    total_wy = cum_wy[cix, col_len - 1]
                    cl32 = col_len.astype(np.int32)
                    wl = (pos_grid + 1).astype(np.int32)
                    sl = cum_wy[:, :n_pos]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        wr = cl32[:, None] - wl
                        sr = total_wy[:, None] - sl
                        gain = sl * sl / wl + sr * sr / wr
                        gain -= (total_wy * total_wy / cl32)[:, None]
                else:
                    wy_pad = wyx[row_srt]
                    cum_wy = np.cumsum(wy_pad, axis=1)
                    total_wy = cum_wy[cix, col_len - 1]
                    if exact_sums:
                        total_w = col_len.astype(float)
                        wl = (pos_grid + 1).astype(float)
                    else:
                        w_pad = wx[row_srt]
                        cum_w = np.cumsum(w_pad, axis=1)
                        total_w = cum_w[cix, col_len - 1]
                        wl = cum_w[:, :n_pos]
                    sl = cum_wy[:, :n_pos]
                    with np.errstate(divide="ignore", invalid="ignore",
                                     over="ignore"):
                        wr = total_w[:, None] - wl
                        sr = total_wy[:, None] - sl
                        if exact_sums:
                            wl_safe, wr_safe = wl, wr
                        else:
                            wl_safe = np.maximum(wl, 1e-300)
                            wr_safe = np.maximum(wr, 1e-300)
                        gain = sl * sl / wl_safe + sr * sr / wr_safe
                        gain -= (total_wy * total_wy
                                 / np.where(total_w > 0, total_w, 1.0))[:, None]

                # ``valid`` may be the cached root layout's: never
                # narrow it in place.
                if min_child_weight > 0:
                    valid = valid & (wl >= min_child_weight) \
                        & (wr >= min_child_weight)
                if not exact_sums:
                    valid = valid & (total_w > 0)[:, None]
                gain[~valid] = -np.inf

                # First maximum per column (argmax keeps the reference's
                # first-win tie rule; a NaN gain at a valid position
                # poisons its column exactly like the reference's
                # `nan > best` comparison skips the feature).
                best_pos = np.argmax(gain, axis=1)
                best_gain = gain[cix, best_pos]
                # A usable threshold must partition the node: midpoints
                # that fall outside [min, max) (NaN from inf-straddling
                # values, or +/-inf from overflowing huge ones) would
                # leave one child empty and the other equal to its
                # parent — growth would never terminate.  A NaN column
                # maximum means NaN rows exist, and those always land in
                # the right child, so only `min <= thr` matters then.
                # The reference skips such features; mask them before
                # the across-feature argmax.
                thr_col = 0.5 * (x_flat[row_srt[cix, best_pos] + V * fcol]
                                 + x_flat[row_srt[cix, best_pos + 1] + V * fcol])
                degenerate = ~((x_lo <= thr_col)
                               & ((thr_col < x_hi) | np.isnan(x_hi)))
                bg = np.where(np.isnan(best_gain) | degenerate, -np.inf,
                              best_gain).reshape(q, k)
                f_arg = np.argmax(bg, axis=1)
                g_sel = bg[np.arange(q), f_arg]
                okx = np.flatnonzero(g_sel > MIN_GAIN)
                col_ok = f_arg[okx] + okx * k
                tgt = e_idx[okx]
                split_feat[tgt] = cand[sel[okx], f_arg[okx]]
                split_thr[tgt] = thr_col[col_ok]

        # ------------------------------------------------------------------
        # Mark leaf rows, allocate children (breadth-first numbering per
        # tree: each tree's splitting segments appear in its own BFS
        # order, so local ids follow from the tree's node count plus the
        # segment's rank among its tree's splits this level).
        # ------------------------------------------------------------------
        splitting = np.flatnonzero(split_feat != _NO_FEATURE)
        n_split = splitting.size

        leaf_pos = np.repeat(split_feat < 0, seg_counts)
        train_leaf[node_rows[leaf_pos]] = \
            np.repeat(seg_node, seg_counts)[leaf_pos]

        if n_split == 0:
            break

        split_trees = seg_tree[splitting]
        per_tree = np.bincount(split_trees, minlength=n_trees)
        tree_first = np.concatenate(([0], np.cumsum(per_tree)[:-1]))
        occ = np.arange(n_split) - tree_first[split_trees]
        left_ids = tree_n_nodes[split_trees] + 2 * occ
        tree_n_nodes += 2 * per_tree

        feat_parts[-1][splitting] = split_feat[splitting]
        thr_parts[-1][splitting] = split_thr[splitting]
        left_parts[-1][splitting] = left_ids
        right_parts[-1][splitting] = left_ids + 1

        nb = 2 * n_split
        feat_parts.append(np.full(nb, _NO_FEATURE, dtype=np.int64))
        thr_parts.append(np.zeros(nb))
        left_parts.append(np.full(nb, -1, dtype=np.int64))
        right_parts.append(np.full(nb, -1, dtype=np.int64))
        val_parts.append(np.zeros(nb))
        new_seg_tree = np.repeat(split_trees, 2)
        new_seg_node = np.empty(nb, dtype=np.int64)
        new_seg_node[0::2] = left_ids
        new_seg_node[1::2] = left_ids + 1
        tree_parts.append(new_seg_tree)
        id_parts.append(new_seg_node)

        # ------------------------------------------------------------------
        # Stable partition of the row list into child segments, computed
        # arithmetically: each row's child is decided by the split-value
        # comparison (the same ``x <= thr`` rule prediction uses), and
        # its new position is its child's base offset plus its rank
        # among same-side rows of its segment — one cumsum.
        # ------------------------------------------------------------------
        Ls = seg_counts[splitting]
        tot = int(Ls.sum())
        cstart = np.concatenate(([0], np.cumsum(Ls)[:-1]))
        rep_seg = np.repeat(np.arange(n_split), Ls)
        within = np.arange(tot) - cstart[rep_seg]
        src_pos = starts[splitting][rep_seg] + within
        rows_c = node_rows[src_pos]
        feat_rep = split_feat[splitting][rep_seg]
        # Same rule as the reference partition and as prediction:
        # go_left = (x <= thr), negated (not rewritten as `>`, which
        # would disagree on NaN thresholds from degenerate midpoints).
        il = x_flat[rows_c + V * feat_rep] <= split_thr[splitting][rep_seg]

        left_cnt = np.bincount(rep_seg[il], minlength=n_split)
        new_counts = np.empty(nb, dtype=np.int64)
        new_counts[0::2] = left_cnt
        new_counts[1::2] = Ls - left_cnt
        new_ends = np.cumsum(new_counts)
        new_starts = new_ends - new_counts
        nsl = new_starts[0::2]
        nsr = new_starts[1::2]

        exr = np.cumsum(il) - il
        rank_l = exr - exr[cstart][rep_seg]
        # Left rows land at their child's base plus their left rank;
        # right rows at base + (position - left rank).
        npos = np.where(il, nsl[rep_seg] + rank_l,
                        nsr[rep_seg] + within - rank_l)
        new_node_rows = np.empty(tot, dtype=np.int64)
        new_node_rows[npos] = rows_c

        node_rows = new_node_rows
        seg_counts = new_counts
        seg_tree = new_seg_tree
        seg_node = new_seg_node
        depth += 1

    # ------------------------------------------------------------------
    # Assemble per-tree flat arrays: every level entry carries its
    # (tree, local node id) tag, so one scatter per array sorts the
    # whole block into tree-contiguous BFS layout.
    # ------------------------------------------------------------------
    offsets = np.concatenate(([0], np.cumsum(tree_n_nodes)))
    gidx = offsets[np.concatenate(tree_parts)] + np.concatenate(id_parts)
    total = int(offsets[-1])

    def _assemble(parts):
        src = np.concatenate(parts)
        out = np.empty(total, dtype=src.dtype)
        out[gidx] = src
        return out

    return GrownBlock(
        tuple(_assemble(parts) for parts in (
            feat_parts, thr_parts, left_parts, right_parts, val_parts))
        + (train_leaf,), offsets, n_samp)


# ----------------------------------------------------------------------
# Stacked ensemble prediction
# ----------------------------------------------------------------------

#: Query rows per walk chunk — the chunk's rank matrix (chunk x M
#: int32) stays L1/L2-resident while every tree block traverses it.
_PREDICT_ROW_CHUNK = 4096

#: Trees per pointer-walk block — bounds the block's node tables to the
#: L2 cache while walkers of all block trees gather from them.
_PREDICT_TREE_BLOCK = 16

#: Deepest ensemble stored as complete heap-indexed trees (2^(d+1) - 1
#: slots per tree); deeper ensembles fall back to the pointer walk.
_HEAP_MAX_DEPTH = 8

#: Pointer walk: depth at which compaction of finished walkers starts,
#: and how many levels pass between compactions (measured optimum at
#: paper scale — compacting too eagerly costs more than the spins).
_COMPACT_FROM = 12
_COMPACT_EVERY = 6

_RANK_INF = np.iinfo(np.int32).max

#: Settling walk: trees between two settle checks once checking starts.
_SETTLE_EVERY = 8

#: Settling walk: absolute margin by which a settled row's bound must
#: clear the cut, so the family's final label expression sits far from
#: its rounding boundary.
_SETTLE_MARGIN = 1e-6


class StackedEnsemble:
    """All trees of a fitted ensemble padded into one array set.

    Parameters
    ----------
    trees:
        Fitted :class:`~repro.metamodels.tree.DecisionTreeRegressor`
        instances.
    columns:
        Optional per-tree global column indices (boosting's per-round
        ``colsample`` draws); tree-local split features are remapped to
        the full input space so the walk runs on the caller's ``x``.

    Notes
    -----
    Split thresholds are quantized to their index among the feature's
    sorted unique thresholds across the whole ensemble, and queries are
    ranked once per :meth:`leaf_value_sum` call with ``searchsorted``.
    ``x > t``  iff  ``#(thresholds < x) > index(t)``, exactly — so the
    int-rank walk reproduces the float comparisons bit for bit while
    keeping the hot tables small and cache-resident.
    """

    def __init__(self, trees, columns=None) -> None:
        n_trees = len(trees)
        max_nodes = max(tree.n_nodes for tree in trees)
        n_features = 0
        feature = np.zeros((n_trees, max_nodes), dtype=np.int64)
        threshold = np.full((n_trees, max_nodes), np.inf)
        left = np.empty((n_trees, max_nodes), dtype=np.int64)
        left[:] = (np.arange(n_trees, dtype=np.int64)[:, None] * max_nodes
                   + np.arange(max_nodes))
        value = np.zeros((n_trees, max_nodes))
        internal2d = np.zeros((n_trees, max_nodes), dtype=bool)
        depths = np.empty(n_trees, dtype=np.int64)
        for t, tree in enumerate(trees):
            kn = tree.n_nodes
            internal = tree.feature != _NO_FEATURE
            if not np.array_equal(tree.right[internal],
                                  tree.left[internal] + 1):
                raise ValueError(
                    "stacked prediction requires right == left + 1 "
                    "(breadth-first flat trees)")
            feat = tree.feature
            if columns is not None:
                feat = feat.copy()
                feat[internal] = np.asarray(columns[t])[feat[internal]]
            feature[t, :kn][internal] = feat[internal]
            threshold[t, :kn][internal] = tree.threshold[internal]
            left[t, :kn][internal] = t * max_nodes + tree.left[internal]
            value[t, :kn] = tree.value
            internal2d[t, :kn] = internal
            depths[t] = tree.depth
            if internal.any():
                n_features = max(n_features, int(feat[internal].max()) + 1)

        self.n_trees = n_trees
        self.max_nodes = max_nodes
        self.n_features = n_features
        self._depths = depths
        self._depth = int(depths.max())
        self._value = value.ravel()
        # Each tree's smallest and largest leaf value: the range of what
        # it can add to any row's sum (the settling walk's bound).
        n_nodes = np.array([tree.n_nodes for tree in trees])
        leaf = ~internal2d & (np.arange(max_nodes) < n_nodes[:, None])
        self._leaf_lo = np.where(leaf, value, np.inf).min(axis=1)
        self._leaf_hi = np.where(leaf, value, -np.inf).max(axis=1)

        # Per-feature sorted unique thresholds + per-node threshold
        # ranks; leaves/padding keep rank INT32_MAX so every comparison
        # sends them left (their self-loop / value-propagating child).
        featf = feature.ravel()
        thrf = threshold.ravel()
        internal_all = internal2d.ravel()
        self._uniq = []
        rank = np.full(featf.size, _RANK_INF, dtype=np.int64)
        for j in range(n_features):
            sel = internal_all & (featf == j)
            uniq = np.unique(thrf[sel])
            self._uniq.append(uniq)
            rank[sel] = np.searchsorted(uniq, thrf[sel])
        self._feature = featf
        self._thr_rank = rank.astype(np.int32)
        self._left = left.ravel()

        if self._depth <= _HEAP_MAX_DEPTH:
            self._build_heap(feature, internal2d, value)
        else:
            self._heap = None

    # ------------------------------------------------------------------
    def _build_heap(self, feature, internal2d, value) -> None:
        """Pad every tree to a complete heap-indexed tree of the
        ensemble depth: child of heap slot ``h`` is ``2h + 1 + go``, so
        the walk needs no child-pointer gather.  Leaves replicate their
        value down their left spine (their rank stays INT32_MAX, which
        no query rank exceeds)."""
        d = self._depth
        size = (1 << (d + 1)) - 1
        T = self.n_trees
        h_feat = np.zeros((T, size), dtype=np.int64)
        h_rank = np.full((T, size), _RANK_INF, dtype=np.int32)
        h_val = np.zeros((T, size))

        rank2d = self._thr_rank.reshape(T, self.max_nodes)
        feat2d = feature
        left2d = (self._left.reshape(T, self.max_nodes)
                  - np.arange(T, dtype=np.int64)[:, None] * self.max_nodes)
        tix = np.arange(T)
        heap_pos = np.zeros(T, dtype=np.int64)
        flat_pos = np.zeros(T, dtype=np.int64)
        for _ in range(d + 1):
            f = feat2d[tix, flat_pos]
            internal = internal2d[tix, flat_pos]
            h_feat[tix, heap_pos] = np.where(internal, f, 0)
            h_rank[tix, heap_pos] = np.where(
                internal, rank2d[tix, flat_pos], _RANK_INF)
            h_val[tix, heap_pos] = value[tix, flat_pos]
            # Internal nodes descend both ways; leaves propagate down
            # their left child only (comparisons always send them left).
            lc = left2d[tix, flat_pos]
            nt = np.concatenate((tix, tix[internal]))
            nh = np.concatenate((2 * heap_pos + 1, 2 * heap_pos[internal] + 2))
            nf = np.concatenate((np.where(internal, lc, flat_pos),
                                 lc[internal] + 1))
            keep = nh < size
            tix, heap_pos, flat_pos = nt[keep], nh[keep], nf[keep]
            if not tix.size:
                break
        self._heap = (h_feat.ravel(), h_rank.ravel(), h_val.ravel(), size)

    # ------------------------------------------------------------------
    def _rank_queries(self, x: np.ndarray) -> np.ndarray:
        """``out[i, j] = #(ensemble thresholds on feature j < x[i, j])``."""
        n = len(x)
        m = max(self.n_features, 1)
        ranks = np.zeros((n, m), dtype=np.int32)
        for j, uniq in enumerate(self._uniq):
            if uniq.size:
                ranks[:, j] = np.searchsorted(uniq, x[:, j], side="left")
        return ranks

    # ------------------------------------------------------------------
    def leaf_value_sum(self, x: np.ndarray, *, scale: float | None = None,
                       init: float = 0.0, cut: float | None = None,
                       chunk: int = _PREDICT_ROW_CHUNK) -> np.ndarray:
        """``init + sum_t scale * value_t(row)`` for every row of ``x``.

        The per-tree accumulation runs in tree order with the same
        elementwise operations as the reference per-tree loops
        (``out += tree.predict(x)`` / ``out += lr * tree.predict(x)``),
        so results are bit-identical to them.

        With ``cut`` the walk settles hard labels (see
        :meth:`_settle_plan`): a row whose sum the remaining trees can
        no longer carry across ``cut`` stops walking and comes back as
        ``+inf`` (its sum ends above ``cut``) or ``-inf`` (below), by
        a margin that keeps the caller's label expression exact.  Every
        other row's sum is bit-identical to the full walk's.
        """
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2 or (self.n_features and x.shape[1] < self.n_features):
            raise ValueError(
                f"x must be 2-D with >= {self.n_features} columns, "
                f"got shape {x.shape}")
        return self._sum_ranked(self._rank_queries(x), scale=scale,
                                init=init, cut=cut, chunk=chunk)

    def _settle_plan(self, scale: float | None, init: float, cut: float):
        """Where a settling walk checks, and what it checks against.

        Returns ``(bounds, lo, hi, slack)``.  The walk adds trees
        ``bounds[i]:bounds[i + 1]`` as one segment and checks after
        every segment but the last.  After the first ``t`` trees, the
        rest add between ``lo[t]`` and ``hi[t]`` to any row's sum (the
        suffix sums of each tree's smallest and largest contribution),
        so a row whose partial sum ``s`` has ``s + lo[t] > cut + slack``
        ends above ``cut`` and one with ``s + hi[t] < cut - slack`` ends
        below it.  ``slack`` covers the float rounding of the remaining
        adds and of the check itself, plus :data:`_SETTLE_MARGIN`.
        Checks start at the first ``t`` whose bound width
        ``hi[t] - lo[t]`` is below half the full width, then come every
        :data:`_SETTLE_EVERY` trees.
        """
        lo, hi = self._leaf_lo, self._leaf_hi
        if scale is not None:
            lo, hi = np.minimum(scale * lo, scale * hi), \
                np.maximum(scale * lo, scale * hi)
        T = self.n_trees
        lo_suf = np.append(np.cumsum(lo[::-1])[::-1], 0.0)
        hi_suf = np.append(np.cumsum(hi[::-1])[::-1], 0.0)
        width = hi_suf - lo_suf
        narrow = np.flatnonzero(width < 0.5 * width[0])
        first = int(narrow[0]) if narrow.size else T
        bounds = [0, *range(first, T, _SETTLE_EVERY), T]
        # Every partial sum, bound and check value is at most ``mag`` in
        # magnitude, and each of the <= T + 2 roundings on the way to
        # the final sum or the check errs by at most eps * mag.
        mag = abs(init) + abs(cut) + np.maximum(np.abs(lo), np.abs(hi)).sum()
        slack = _SETTLE_MARGIN + 4 * (T + 2) * np.finfo(float).eps * mag
        return bounds, lo_suf, hi_suf, slack

    def _sum_ranked(self, ranks: np.ndarray, *, scale: float | None,
                    init: float, cut: float | None = None,
                    chunk: int = _PREDICT_ROW_CHUNK) -> np.ndarray:
        """The walk itself, over precomputed query ranks (row-wise).

        Trees are walked in tree-order segments; without ``cut`` the
        whole ensemble is one segment.  With ``cut``, the rows of a
        chunk that settle after a segment leave it (their output
        becomes ``+/-inf``) and later segments walk the rest only.
        """
        n = len(ranks)
        T = self.n_trees
        out = np.full(n, init)
        if cut is None:
            bounds = [0, T]
        else:
            bounds, lo, hi, slack = self._settle_plan(scale, init, cut)

        for s in range(0, n, chunk):
            rc = np.ascontiguousarray(ranks[s:s + chunk])
            acc = out[s:s + len(rc)]
            rows = None  # chunk positions of rows still walking, if any left
            for a, b in zip(bounds[:-1], bounds[1:]):
                vals = self._walk(rc, a, b)
                if scale is None:
                    for v in vals:
                        acc += v
                else:
                    for v in vals:
                        acc += scale * v
                if b == T:
                    break
                up = acc + lo[b] > cut + slack
                settled = up | (acc + hi[b] < cut - slack)
                if not settled.any():
                    continue
                if rows is None:
                    rows = np.arange(len(rc))
                out[s + rows[settled]] = np.where(up[settled], np.inf, -np.inf)
                keep = ~settled
                rows, acc, rc = rows[keep], acc[keep], rc[keep]
                if not rows.size:
                    break
            if rows is not None:
                out[s + rows] = acc
        return out

    def _walk(self, rc: np.ndarray, a: int, b: int) -> np.ndarray:
        """Leaf values ``(b - a, len(rc))`` of trees ``a:b`` at rank rows ``rc``."""
        c = len(rc)
        rc_flat = rc.ravel()
        rowm = np.arange(c, dtype=np.int64) * rc.shape[1]
        if self._heap is not None:
            return self._walk_heap(rc_flat, rowm, c, a, b)
        return self._walk_pointer(rc_flat, rowm, c, a, b)

    def _walk_heap(self, rc_flat, rowm, c, a, b):
        h_feat, h_rank, h_val, size = self._heap
        # Leaves replicate down their left spine, so a segment's walkers
        # all stand on their leaf's value after its own deepest level.
        depth = int(self._depths[a:b].max())
        tbase = np.repeat(np.arange(a, b, dtype=np.int64) * size, c)
        rm = np.tile(rowm, b - a)
        node = np.zeros((b - a) * c, dtype=np.int64)
        for _ in range(depth):
            g = tbase + node
            fv = np.take(h_feat, g)
            rv = np.take(rc_flat, rm + fv)
            go = rv > np.take(h_rank, g)
            node += node
            node += 1
            node += go
        return np.take(h_val, tbase + node).reshape(b - a, c)

    def _walk_pointer(self, rc_flat, rowm, c, a, b):
        feature, thr_rank = self._feature, self._thr_rank
        left, value = self._left, self._value
        max_nodes = self.max_nodes
        vals = np.empty((b - a, c))
        # Depth-sorted tree blocks within the segment, so a block's
        # walkers finish at about the same level.
        order = np.argsort(self._depths[a:b], kind="stable")
        for k in range(0, b - a, _PREDICT_TREE_BLOCK):
            tb = order[k:k + _PREDICT_TREE_BLOCK]
            nb = tb.size
            d = int(self._depths[a + tb].max())
            node = np.repeat((a + tb) * max_nodes, c)
            rm = np.tile(rowm, nb)
            vbuf = np.empty(nb * c)
            out_idx = None
            lvl = 0
            while True:
                fv = np.take(feature, node)
                rv = np.take(rc_flat, rm + fv)
                go = rv > np.take(thr_rank, node)
                node = np.take(left, node) + go
                lvl += 1
                if lvl >= d:
                    break
                # Finished (tree, row) walkers self-loop on their leaf;
                # periodically drop them so late levels shrink.
                if lvl >= _COMPACT_FROM \
                        and (lvl - _COMPACT_FROM) % _COMPACT_EVERY == 0:
                    fin = np.take(thr_rank, node) == _RANK_INF
                    if fin.any():
                        if out_idx is None:
                            out_idx = np.arange(nb * c)
                        done = np.flatnonzero(fin)
                        vbuf[np.take(out_idx, done)] = \
                            np.take(value, np.take(node, done))
                        keep = np.flatnonzero(~fin)
                        node = np.take(node, keep)
                        rm = np.take(rm, keep)
                        out_idx = np.take(out_idx, keep)
                        if not node.size:
                            break
            if out_idx is None:
                vbuf[:] = np.take(value, node)
            elif node.size:
                vbuf[out_idx] = np.take(value, node)
            vals[tb] = vbuf.reshape(nb, c)
        return vals
