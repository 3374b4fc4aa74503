"""Vectorized subgroup-discovery kernels: sort once, then run sums.

The reference peel (:func:`repro.subgroup.prim._best_peel`) builds a
boolean mask and recomputes a mean for every one of the 2M candidate
cuts of a peeling step.  :func:`peel_runs` instead advances R
independent PRIM runs in lockstep — the (alpha, fold) runs of an alpha
search, the bootstrap repeats of bumping, or a single ``prim_peel``
call as the one-run case.  Each run has its own rows (repeats allowed),
column subset, alpha and validation rows.

Layout.  Every ``(run, column)`` pair is one ascending segment of one
flat int64 array of packed words ``key << s | row``: ``row`` is the
entry's row and ``key`` its value's dense rank within its column plus a
per-segment offset — shared by equal values, disjoint between segments,
so keys ascend across all segments.  Segments are built by one counting
sort over the base table's column orders and dense ranks
(:func:`column_index`, memoized inside a warm scope, so every peel of
one pool shares one sort), and an accepted peel never re-sorts:
removing rows keeps every segment sorted, so each step ends with one
boolean compaction of the words that applies every run's peel (runs
that stop leave the batch the same way).

One peeling step for all runs is:

* one batched binary search (``np.searchsorted`` over the words, with
  probes ``k << s``) for every segment's lower and upper cut positions
  and their tie-fallback positions — the alpha-quantiles come from the
  segments' order statistics by :func:`sorted_quantile`'s formula, a
  bit-identical replication of ``np.quantile``'s default linear
  interpolation, and a cut keeps ties at the quantile inside; when a
  whole box ties at an extreme, the cut peels that entire level instead;
* output sums over the removed ranges only — about ``alpha * n`` entries
  per cut, never a full prefix sum — from one cumulative sum, the kept
  sum being the run's maintained in-box total minus the removed one;
* one first-maximum argmax per run in the reference's candidate order
  (dimension major, lower cut before upper cut, categorical levels
  ascending), which is simply the order of the candidates' flat start
  positions; all three objectives score through :func:`peel_score`'s
  formulas;
* validation tracking, where asked for: each run's in-box validation
  rows shrink with its accepted cut, giving every box's validation
  count and output sum without re-evaluating it (the validation stop of
  ``prim_peel``, and the test-fold / Pareto statistics of the searches).

Exactness.  For binary outputs every candidate sum is an exact integer,
so each score equals the reference's bit for bit and the argmax breaks
ties identically.  For soft labels, candidates within ``_TIE_RTOL`` of a
run's maximum are re-scored through the reference formula (a pairwise
mean over the kept rows in the run's own row order) before the winner is
picked, so exact ties cannot be flipped by summation order; box means
reduce over the same rows in the same order as the reference.

:func:`sorted_group_sums` and :func:`max_sum_run` are the analogous
sort-once machinery for BestInterval's exact one-dimensional
refinement (:func:`repro.subgroup.best_interval.best_interval_for_dim`).
:class:`SortedDataset` extends them into a reusable index: the
per-column stable argsorts of one ``(x, y)`` dataset are computed once
and shared by every refinement call of a BestInterval beam search —
filtering a pre-sorted column by a membership mask replaces the
per-call re-sort, because a stable sort of a subset equals the subset
of the stable sort.

:func:`contains_many` and :func:`evaluate_boxes` are the batched
box-evaluation layer: membership of ``n`` points in ``B`` boxes is one
chunked broadcasted comparison instead of ``B`` Python-level
:meth:`Hyperbox.contains` calls, with per-box sums and means computed
through the same reductions as the scalar code paths (pairwise
``ndarray.sum``/``mean`` over the masked rows; exact integer counts
for binary labels), so batched consumers stay bit-identical to their
per-box references.  Both take a :class:`BoxStack` — stacked bound
arrays, as a lockstep batch produces them — or a sequence of boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import warm
from repro.subgroup.box import Hyperbox, cat_mask

__all__ = [
    "PeelCandidate",
    "PeelRun",
    "PeelTrace",
    "peel_runs",
    "best_peel",
    "column_index",
    "INDEX_MEMO",
    "INDEX_MEMO_BYTES",
    "peel_score",
    "sorted_quantile",
    "sorted_group_sums",
    "max_sum_run",
    "best_cat_subset",
    "SortedDataset",
    "BoxStack",
    "BoxBatchEvaluation",
    "precision_recall_of",
    "contains_many",
    "evaluate_boxes",
]

#: Relative width of the near-tie window: candidates whose vectorized
#: score comes this close to the maximum are re-scored exactly.  The
#: slice-sum rounding error is O(n * eps) ~ 1e-12 for n = 1e4, so 1e-9
#: comfortably covers it while excluding genuinely distinct candidates.
_TIE_RTOL = 1e-9


def peel_score(objective: str, mean_after: float, kept: int, n: int,
               mean_before: float, total_mean: float, total_n: int) -> float:
    """Score of one candidate peel under the given objective."""
    if objective == "mean":
        return mean_after
    if objective == "gain":
        removed = n - kept
        return (mean_after - mean_before) / max(removed, 1)
    # "wracc": coverage-weighted lift of the remaining box w.r.t. the
    # full dataset.
    return (kept / total_n) * (mean_after - total_mean)


def sorted_quantile(v: np.ndarray, q: float) -> np.ndarray:
    """Per-column quantile of column-sorted data.

    Bit-identical to ``np.quantile(..., axis=0)`` with the default
    linear method: virtual index ``(n - 1) * q``, then numpy's
    branching lerp between the two neighbouring order statistics.
    """
    n = v.shape[0]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return v[n - 1]
    previous = int(np.floor(virtual))
    return _lerp(v[previous], v[previous + 1], virtual - previous)


def _lerp(a, b, gamma):
    """numpy's branching linear interpolation between order statistics."""
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for every ``(s, l)`` pair."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(total)


@dataclass(frozen=True)
class PeelCandidate:
    """The winning cut of one peeling step (see :func:`best_peel`).

    ``keep_rows`` holds the ascending row indices that survive the cut.
    A categorical winner sets ``new_cats`` — the remaining allowed codes
    after removing one category — and leaves both bounds ``None``.
    """

    dim: int
    new_lower: float | None
    new_upper: float | None
    keep_rows: np.ndarray
    score: float
    new_cats: tuple | None = None


@dataclass(frozen=True)
class PeelRun:
    """One PRIM peeling run of a lockstep batch (:func:`peel_runs`).

    ``rows`` index the batch's training arrays — repeats allowed (a
    bootstrap sample), and their order is the run's own row order,
    which soft-label reductions follow; ``cols`` are the columns the
    run may restrict, in candidate order; ``val_rows`` index the
    batch's validation arrays.  ``None`` means every row / column.
    """

    alpha: float
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    val_rows: np.ndarray | None = None


@dataclass(frozen=True)
class PeelTrace:
    """The box sequences of a lockstep batch, run-major.

    Run ``r`` owns rows ``starts[r]:starts[r + 1]`` of ``stack`` and of
    every per-box array: its unrestricted box first, then one box per
    accepted peel.  ``train_n`` counts the in-box training rows (with
    bootstrap multiplicity) and ``train_mean`` is their mean output.
    With validation data, ``val_n``/``val_sum`` are each box's count and
    output sum on its run's validation rows and ``val_total`` the
    output sum over all of them.
    """

    starts: np.ndarray
    stack: "BoxStack"
    train_n: np.ndarray
    train_mean: np.ndarray
    val_n: np.ndarray | None
    val_sum: np.ndarray | None
    val_total: np.ndarray | None

    def run(self, r: int) -> slice:
        """Box rows of run ``r``."""
        return slice(int(self.starts[r]), int(self.starts[r + 1]))

    def trajectory(self, r: int) -> np.ndarray:
        """Run ``r``'s ``(k, 2)`` (recall, precision) on its validation
        rows — :func:`repro.metrics.trajectory.peeling_trajectory` of its
        boxes, read off the tracked statistics."""
        rows = self.run(r)
        precisions, recalls = precision_recall_of(
            self.val_sum[rows], self.val_n[rows], float(self.val_total[r]))
        return np.column_stack((recalls, precisions))


#: Entry budget of one lockstep batch, counted at base-table width
#: (the initial counting sort walks every base row once per segment).
#: Larger searches peel as consecutive batches — runs are independent,
#: so the grouping never changes a result — which bounds the batch's
#: memory to a few hundred MB.
_BATCH_ENTRIES = 1 << 22

#: Byte cap of :data:`INDEX_MEMO`: the column index of two L=10^5,
#: M=8 pools (6.4 MB each with int32 orders and ranks).
INDEX_MEMO_BYTES = 16 * 2**20

#: Content key of ``x`` -> the read-only ``(orders, ranks)`` of
#: :func:`column_index`, filled only inside a warm scope; the content
#: key covers the dtype, shape and bytes of ``x``.
#: Counters: ``hits``, ``misses`` and the ``weight`` in bytes held.
INDEX_MEMO = warm.WarmCache(
    cap=INDEX_MEMO_BYTES,
    weight=lambda index: index[0].nbytes + index[1].nbytes)


def _build_column_index(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_base, dim = x.shape
    index_type = np.int32 if n_base < 2**31 else np.int64
    order = np.argsort(x, axis=0)
    ranks = np.zeros((dim, n_base), dtype=index_type)
    if n_base:
        ordered = np.take_along_axis(x, order, axis=0)
        np.cumsum(ordered[1:] != ordered[:-1], axis=0, out=ranks.T[1:])
        del ordered
    orders = np.ascontiguousarray(order.T, dtype=index_type)
    del order
    orders.flags.writeable = ranks.flags.writeable = False
    return orders, ranks


def column_index(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The base-table index every lockstep batch over ``x`` starts from.

    ``orders[j]`` lists the rows of ``x`` in ascending order of column
    ``j``, and ``ranks[j, i]`` is the dense rank of the value at the
    ``i``-th of those rows: the row and key halves of a batch's packed
    words (:class:`_Lockstep`).  Both are read-only, contiguous
    ``(M, N)`` int32 arrays (int64 only for 2^31 rows or more) and a
    pure function of ``x``.  Inside a warm scope they are memoized in
    :data:`INDEX_MEMO` by the content of ``x``, so the pool that a
    seed's REDS methods all peel is sorted once; outside one, nothing
    is hashed or stored.
    """
    if not warm.active():
        return _build_column_index(x)
    # Lazy import: the data plane sits above subgroup in the layer order.
    from repro.experiments.dataplane import content_key

    return INDEX_MEMO.get_or_create(content_key(x),
                                    lambda: _build_column_index(x))


def _word_bits(n_segs: int, n_runs: int, n_base: int) -> tuple[int, int]:
    """Key bits and row bits ``s`` of a batch's packed words: enough
    for every segment-offset key (and the one-past probes of the cut
    search) and for every ``run * N + base row``."""
    return ((n_segs * (n_base + 1) - 1).bit_length(),
            (n_runs * n_base - 1).bit_length())


def _batches(runs, n_base: int, dim: int):
    """``(start, stop)`` of every lockstep batch of :func:`peel_runs`.

    A batch closes once it holds :data:`_BATCH_ENTRIES` entries, or
    before a run that would make its packed words pass 63 bits; a run
    that alone passes them raises :class:`ValueError`.
    """
    start = 0
    while start < len(runs):
        stop, width, segs = start, 0, 0
        while stop < len(runs) and (stop == start or width < _BATCH_ENTRIES):
            run = runs[stop]
            n_cols = dim if run.cols is None else len(run.cols)
            bits = sum(_word_bits(segs + n_cols, stop + 1 - start, n_base))
            if bits > 63:
                if stop == start:
                    raise ValueError(
                        f"a PRIM run over {n_base} rows and {n_cols} columns "
                        f"needs {bits}-bit peel entries; the limit is 63 bits")
                break
            segs += n_cols
            width += n_cols * max(n_base,
                                  0 if run.rows is None else len(run.rows))
            stop += 1
        yield start, stop
        start = stop


def peel_runs(x: np.ndarray, y: np.ndarray, runs, *, min_support: int,
              objective: str = "mean", cat_cols=(),
              x_val: np.ndarray | None = None, y_val: np.ndarray | None = None,
              val_stop: bool = False) -> PeelTrace:
    """Peel every :class:`PeelRun` to completion, all runs in lockstep.

    Each run follows :func:`repro.subgroup.prim.prim_peel` exactly: it
    stops when no candidate cut is valid or the best one would leave
    fewer than ``min_support`` training rows — or, with ``val_stop``,
    validation rows.  ``x_val``/``y_val`` switch on validation tracking:
    every box's in-box count and output sum on its run's ``val_rows``,
    which is the run's precision/recall trajectory without re-evaluating
    a box.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    runs = list(runs)
    n_base, dim = x.shape
    context = dict(
        min_support=min_support, objective=objective,
        cat_cols=frozenset(int(c) for c in cat_cols),
        exact=bool(np.all((y == 0.0) | (y == 1.0))),
        val=None, val_stop=val_stop)
    if x_val is not None:
        y_val = np.asarray(y_val, dtype=float)
        context["val"] = (np.asarray(x_val, dtype=float), y_val,
                          bool(np.all((y_val == 0.0) | (y_val == 1.0))))
    records = _Records(len(runs))
    for start, stop in _batches(runs, n_base, dim):
        _Lockstep(x, y, runs[start:stop], start, records, **context).run()
    return records.trace(dim, x_val is not None)


def best_peel(x: np.ndarray, y: np.ndarray, alpha: float,
              objective: str = "mean", cat_cols=()) -> PeelCandidate | None:
    """The first peeling step of a one-run batch over all of ``x``/``y``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    batch = _Lockstep(
        x, y, [PeelRun(alpha)], 0, _Records(1), min_support=1,
        objective=objective, cat_cols=frozenset(int(c) for c in cat_cols),
        exact=bool(np.all((y == 0.0) | (y == 1.0))), val=None,
        val_stop=False)
    step = batch.decide()
    if step is None:
        return None
    removed = batch.words[step.start[0]:step.stop[0]] & batch.low
    keep_rows = np.setdiff1d(np.arange(len(x)), removed)
    kind, bound = int(step.kind[0]), float(step.bound[0])
    return PeelCandidate(
        dim=int(step.col[0]),
        new_lower=bound if kind == 0 else None,
        new_upper=bound if kind == 1 else None,
        keep_rows=keep_rows, score=float(step.score[0]),
        new_cats=(tuple(sorted(step.new_cats[0])) if kind == 2 else None))


class _Records:
    """Per-box columns accumulated step by step, ordered at the end."""

    def __init__(self, n_runs: int) -> None:
        self.n_runs = n_runs
        self.columns: list[tuple] = []
        self.cats: dict[tuple[int, int], tuple[int, frozenset]] = {}
        self.val_total = np.zeros(n_runs)

    def add(self, run, step, col, kind, bound, train_n, train_mean,
            val_n=None, val_sum=None) -> None:
        self.columns.append((run, step, col, kind, bound, train_n,
                             train_mean, val_n, val_sum))

    def trace(self, dim: int, has_val: bool) -> PeelTrace:
        runs, steps, *rest = zip(*self.columns)
        run = np.concatenate(runs)
        step = np.repeat(steps, [len(r) for r in runs])
        order = np.lexsort((step, run))
        run, step = run[order], step[order]
        (col, kind, bound, train_n, train_mean, val_n, val_sum) = (
            np.concatenate(c)[order] if c[0] is not None else None
            for c in rest)
        n_boxes = len(run)
        # Every run opens with its unrestricted box; a peel sets one
        # bound and every other bound carries over from the box above
        # (a forward fill that never crosses into the previous run).
        lower = np.full((n_boxes, dim), np.nan)
        upper = np.full((n_boxes, dim), np.nan)
        first = kind < 0
        lower[first] = -np.inf
        upper[first] = np.inf
        for side, bounds in ((0, lower), (1, upper)):
            rows = np.flatnonzero(kind == side)
            bounds[rows, col[rows]] = bound[rows]
            source = np.where(np.isnan(bounds), 0, np.arange(n_boxes)[:, None])
            np.maximum.accumulate(source, axis=0, out=source)
            bounds[:] = np.take_along_axis(bounds, source, axis=0)
        starts = np.searchsorted(run, np.arange(self.n_runs + 1))
        cats = None
        if self.cats:
            cats = [None] * n_boxes
            for r in sorted({r for r, _ in self.cats}):
                current: list = [None] * dim
                for i in range(starts[r], starts[r + 1]):
                    entry = self.cats.get((r, int(step[i])))
                    if entry is not None:
                        current[entry[0]] = entry[1]
                    if any(c is not None for c in current):
                        cats[i] = tuple(current)
            cats = tuple(cats)
        return PeelTrace(
            starts=starts,
            stack=BoxStack(lower, upper, cats),
            train_n=train_n,
            train_mean=train_mean,
            val_n=val_n,
            val_sum=val_sum,
            val_total=self.val_total if has_val else None,
        )


@dataclass
class _Step:
    """The winning candidate of every run that has one, run-ascending."""

    run: np.ndarray
    col: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    kind: np.ndarray      # 0 lower cut, 1 upper cut, 2 removed category
    bound: np.ndarray     # the new bound, or the removed category code
    kept: np.ndarray
    kept_sum: np.ndarray
    score: np.ndarray
    new_cats: dict        # winner index -> remaining allowed codes


class _Lockstep:
    """One batch of PRIM runs peeled together over flat segment arrays.

    Every ``(run, column)`` pair is a segment: the run's in-box rows
    sorted by that column, bootstrap repeats kept as repeated entries.
    Segments lie back to back, run-major, in one flat int64 array of
    ``words``, ``key << shift | row``: ``words & low`` is the entry's
    row as ``run * N + base row``, which also locates its value in
    ``x``, and ``words >> shift`` its key, the value's dense rank within
    its base column plus a per-segment offset.  Equal values within a
    segment share a key and segments own disjoint key ranges, so keys
    ascend globally (rows under one key in any order) and, as
    ``word < k << shift`` exactly when ``key < k``, one ``searchsorted``
    over the words finds cut positions in all segments at once.  An
    accepted peel clears its removed rows in the ``alive`` row table,
    and one boolean compaction of the words applies every run's peel;
    removing rows keeps each segment sorted.
    """

    def __init__(self, x, y, runs, offset, records, *, min_support,
                 objective, cat_cols, exact, val, val_stop):
        n_base, dim = x.shape
        n_runs = len(runs)
        self.records, self.offset = records, offset
        self.min_support, self.objective = min_support, objective
        self.exact, self.val, self.val_stop = exact, val, val_stop
        self.x, self.n_base = x, n_base
        rows = [np.arange(n_base) if run.rows is None
                else np.asarray(run.rows, dtype=np.int64) for run in runs]
        cols = [np.arange(dim) if run.cols is None
                else np.asarray(run.cols, dtype=np.int64) for run in runs]
        self.alpha = np.array([run.alpha for run in runs], dtype=float)
        self.n = np.array([len(r) for r in rows], dtype=np.int64)
        self.total_n = self.n.copy()
        # Each run's in-box output total: exact integers for binary
        # outputs, else the pairwise sum over its rows in its own order.
        self.total = np.array([float(y[r].sum()) for r in rows])
        self.total_mean = np.divide(self.total, self.n,
                                    out=np.zeros(n_runs), where=self.n > 0)
        self.y = y if n_runs == 1 else np.tile(y, n_runs)

        # Counting sort: walk each base column in sorted order once per
        # segment, emitting every row as often as the run holds it.  An
        # entry's key is its value's dense rank within the base column,
        # offset so that every segment owns its own key range.  The
        # words are packed in place in their one int64 array; the only
        # temporaries are the int32 gathers of ranks and orders.
        self.seg_run = np.repeat(np.arange(n_runs), [len(c) for c in cols])
        self.seg_col = np.concatenate(cols)
        self.seg_cat = np.isin(self.seg_col, list(cat_cols))
        self.has_cat = bool(self.seg_cat.any())
        n_segs = len(self.seg_col)
        _, self.shift = _word_bits(n_segs, n_runs, n_base)
        self.low = (1 << self.shift) - 1
        orders, ranks = column_index(x)
        words = ranks[self.seg_col].astype(np.int64)
        words += (np.arange(n_segs) * (n_base + 1))[:, None]
        words <<= self.shift
        words |= orders[self.seg_col]
        if n_runs > 1:
            words += (self.seg_run * n_base)[:, None]
        words = words.ravel()
        if any(run.rows is not None for run in runs):
            held = np.bincount(
                np.repeat(np.arange(n_runs) * n_base, self.n)
                + np.concatenate(rows),
                minlength=n_runs * n_base).astype(np.int32)
            words = np.repeat(words, held[words & self.low])
        self.words = words
        self.alive = np.ones(n_runs * n_base, dtype=bool)
        # Soft labels need each run's in-box rows in its own row order:
        # the near-tie re-scoring and the training means reduce over
        # them exactly as the reference does.
        self.rows = None
        if not exact:
            self.rows = np.concatenate(
                [r * n_base + rr for r, rr in enumerate(rows)])

        val_n = val_sum = None
        if val is not None:
            x_val, y_val, _ = val
            val_rows = [np.arange(len(x_val)) if run.val_rows is None
                        else np.asarray(run.val_rows, dtype=np.int64)
                        for run in runs]
            self.vrid = np.concatenate(val_rows)
            self.vn = np.array([len(v) for v in val_rows], dtype=np.int64)
            val_n = self.vn.copy()
            val_sum = np.array([float(y_val[v].sum()) for v in val_rows])
            records.val_total[offset:offset + n_runs] = val_sum
        self.act = np.arange(n_runs)
        records.add(self.act + offset, 0, np.full(n_runs, -1),
                    np.full(n_runs, -1), np.zeros(n_runs), self.n.copy(),
                    self.total_mean.copy(), val_n, val_sum)

    def run(self) -> None:
        step = 0
        while len(self.act):
            step += 1
            self._apply(step, self.decide())

    # ------------------------------------------------------------------
    # One step: candidates, winners, acceptance.
    # ------------------------------------------------------------------
    def decide(self) -> _Step | None:
        """Every active run's winning cut, or None when none has one."""
        seg_n = self.n[self.seg_run]
        seg_lo = np.cumsum(seg_n) - seg_n
        cand = self._candidates(seg_lo, seg_n)
        if cand is None:
            return None
        seg, start, stop, kind, bound, kept, kept_sum = cand
        scores = self._scores(seg, kept, kept_sum)
        win = self._winners(seg, start, stop, kept, scores)
        seg = seg[win]
        step = _Step(run=self.seg_run[seg], col=self.seg_col[seg],
                     start=start[win], stop=stop[win], kind=kind[win],
                     bound=bound[win], kept=kept[win],
                     kept_sum=kept_sum[win], score=scores[win], new_cats={})
        for i in np.flatnonzero(step.kind == 2).tolist():
            at = np.arange(seg_lo[seg[i]], seg_lo[seg[i]] + seg_n[seg[i]])
            present = np.unique(self._values(at, np.full(len(at), seg[i])))
            step.new_cats[i] = frozenset(
                float(c) for c in present if c != step.bound[i])
        return step

    def _values(self, at: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """Values of the flat entries ``at`` of segments ``seg``."""
        base = (self.words[at] & self.low) - self.seg_run[seg] * self.n_base
        return self.x[base, self.seg_col[seg]]

    def _candidates(self, seg_lo, seg_n):
        """Every valid cut of every active run, in reference order.

        Per-candidate arrays ``(seg, start, stop, kind, bound, kept,
        kept_sum)``: the cut removes flat entries ``[start, stop)``, and
        ``kind`` is 0/1/2 for a lower cut, an upper cut and a removed
        category.  ``start`` doubles as the reference iteration order —
        run-major, then column, lower cut before upper cut, category
        levels ascending — because segments lie run-major and a lower
        cut starts at its segment's first entry, an upper cut after it,
        and a level at its own run of equal codes.
        """
        words, shift = self.words, self.shift
        peelable = seg_n >= 2
        num = np.flatnonzero(peelable & ~self.seg_cat)
        count = len(num)
        lo, n = seg_lo[num], seg_n[num]
        alpha = self.alpha[self.seg_run[num]]
        # Both quantiles of every segment in one pass, lower cuts first:
        # sorted_quantile's formula over the order statistics a/b at
        # offsets below/below + 1 of each segment.
        seg2 = np.concatenate((num, num))
        lo2, n2 = np.concatenate((lo, lo)), np.concatenate((n, n))
        virtual = (n2 - 1) * np.concatenate((alpha, 1.0 - alpha))
        below = np.minimum(np.floor(virtual).astype(np.int64), n2 - 2)
        a, b = self._values(np.concatenate((lo2 + below, lo2 + below + 1)),
                            np.concatenate((seg2, seg2))).reshape(2, -1)
        quantile = _lerp(a, b, virtual - below)
        # One binary search for all four cut positions of every segment.
        # Cuts keep ties at the quantile inside: the lower cut drops the
        # entries below it, the upper cut those above it.  A quantile
        # equals one of its two order statistics or lies strictly
        # between them, so the lower cut ends where the tie run of ``a``
        # (quantile == a) or of ``b`` starts, and the upper cut where the
        # tie run of ``b`` (quantile == b) or of ``a`` ends; keys are
        # integers, so "right of key k" is "left of k + 1", and "left of
        # key k" is "left of word k << shift".  When the whole box ties
        # at an extreme, the cut falls back to peeling that entire
        # level: the tie run of the first / last entry.
        probe = words[lo2 + below + np.concatenate(
            (quantile[:count] != a[:count], quantile[count:] == b[count:]))]
        probe = np.concatenate((probe, words[lo], words[lo + n - 1])) >> shift
        probe[count:3 * count] += 1
        cut = (np.searchsorted(words, probe << shift)
               - np.concatenate((lo2, lo2)))
        low, high, low_tie, high_tie = cut.reshape(4, count)
        tied = np.concatenate((low == 0, high == n))
        low = np.where(tied[:count], low_tie, low)
        high = np.where(tied[count:], high_tie, high)
        fallback = self._values(lo2 + np.concatenate(
            (np.minimum(low, n - 1), np.maximum(high - 1, 0))), seg2)

        columns = [
            seg2,
            np.concatenate((lo, lo + high)),
            np.concatenate((lo + low, lo + n)),
            np.repeat(np.array([0, 1]), count),
            np.where(tied, fallback, quantile),
            np.concatenate((n - low, high)),
        ]
        valid = (columns[5] > 0) & (columns[5] < n2)
        if self.has_cat:
            columns = [np.concatenate((c[valid], extra)) for c, extra in
                       zip(columns, self._cat_candidates(seg_lo, seg_n, peelable))]
            order = np.argsort(columns[1])
        else:
            # Interleave each segment's lower and upper cut.
            order = np.arange(2 * count).reshape(2, count).T.ravel()
            order = order[valid[order]]
        seg, start, stop, kind, bound, kept = (c[order] for c in columns)
        if not len(seg):
            return None

        # Output sums over the removed entries only (about alpha * n per
        # cut), from one cumulative sum.
        lengths = stop - start
        rows = self.words[_ranges(start, lengths)] & self.low
        sums = np.cumsum(self.y[rows])
        ends = np.cumsum(lengths)
        removed = sums[ends - 1] - np.where(ends > lengths,
                                            sums[ends - lengths - 1], 0.0)
        kept_sum = self.total[self.seg_run[seg]] - removed
        return seg, start, stop, kind, bound, kept, kept_sum

    def _cat_candidates(self, seg_lo, seg_n, peelable):
        """One candidate per in-box level of every categorical segment."""
        segs = np.flatnonzero(peelable & self.seg_cat)
        at = _ranges(seg_lo[segs], seg_n[segs])
        seg_of = np.repeat(segs, seg_n[segs])
        # Every segment opens with a fresh key, so key changes alone
        # mark both level and segment boundaries.
        keys = self.words[at] >> self.shift
        fresh = np.ones(len(at), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        start, seg = at[fresh], seg_of[fresh]
        last = np.append(seg[1:] != seg[:-1], True)
        stop = np.where(last, seg_lo[seg] + seg_n[seg], np.append(start[1:], 0))
        several = np.bincount(seg, minlength=len(seg_n))[seg] >= 2
        seg, start, stop = seg[several], start[several], stop[several]
        return (seg, start, stop, np.full(len(seg), 2),
                self._values(start, seg), seg_n[seg] - (stop - start))

    def _scores(self, seg, kept, kept_sum):
        """Candidate scores through the formulas of :func:`peel_score`.

        For binary outputs every sum is an exact integer, so these equal
        the reference's scores bit for bit.
        """
        run = self.seg_run[seg]
        mean_after = kept_sum / kept
        if self.objective == "mean":
            return mean_after
        n = self.n[run]
        if self.objective == "gain":
            return ((mean_after - self.total[run] / n)
                    / np.maximum(n - kept, 1))
        return (kept / self.total_n[run]) * (mean_after - self.total_mean[run])

    def _winners(self, seg, start, stop, kept, scores):
        """Each run's first maximum-score candidate."""
        run = self.seg_run[seg]
        opens = np.ones(len(run), dtype=bool)
        np.not_equal(run[1:], run[:-1], out=opens[1:])
        firsts = np.flatnonzero(opens)
        group = np.cumsum(opens) - 1
        best = np.maximum.reduceat(scores, firsts)
        winners = np.minimum.reduceat(
            np.where(scores == best[group], np.arange(len(run)), len(run)),
            firsts)
        if not self.exact:
            tolerance = _TIE_RTOL * np.maximum(1.0, np.abs(best))
            contender = scores >= (best - tolerance)[group]
            ties = np.bincount(group[contender], minlength=len(best))
            for g in np.flatnonzero(ties >= 2).tolist():
                members = np.flatnonzero(contender & (group == g))
                winners[g] = self._resolve_near_tie(
                    int(run[members[0]]), members, start, stop, kept)
        return winners

    def _in_box_rows(self, r: int) -> np.ndarray:
        """Run ``r``'s in-box rows in its own row order (soft labels)."""
        before = self.act[:np.searchsorted(self.act, r)]
        lo = int(self.n[before].sum())
        return self.rows[lo:lo + int(self.n[r])]

    def _resolve_near_tie(self, r, members, start, stop, kept) -> int:
        """First candidate winning under exact reference scoring.

        Slice sums of soft labels carry rounding noise, so candidates
        whose true scores are equal (typically cuts keeping the same
        rows through different dimensions) may come out of the argmax
        in the wrong order.  Re-score every near-tied candidate the way
        the reference does — a numpy pairwise mean over the kept rows
        in the run's row order — and keep the first strict maximum.
        """
        rows = self._in_box_rows(r)
        outputs = self.y[rows]
        mean_before = float(outputs.mean())
        winner, winner_score = int(members[0]), -np.inf
        for i in members.tolist():
            removed = self.words[start[i]:stop[i]] & self.low
            self.alive[removed] = False
            keep = self.alive[rows]
            self.alive[removed] = True
            exact = peel_score(
                self.objective, float(outputs[keep].mean()), int(kept[i]),
                int(self.n[r]), mean_before, float(self.total_mean[r]),
                int(self.total_n[r]))
            if exact > winner_score:
                winner, winner_score = i, exact
        return winner

    def _val_inside(self, step: _Step):
        """Which validation entries each winning cut keeps, per run."""
        x_val = self.val[0]
        owner = np.repeat(self.act, self.vn[self.act])
        slot = np.full(len(self.n), -1)
        slot[step.run] = np.arange(len(step.run))
        pick = slot[owner]
        has = pick >= 0
        pick[~has] = 0
        bound = step.bound[pick]
        values = x_val[self.vrid, step.col[pick]]
        inside = has & np.where(step.kind[pick] == 0, values >= bound,
                                values <= bound)
        for i, allowed in step.new_cats.items():
            mine = owner == step.run[i]
            inside[mine] = cat_mask(values[mine], allowed)
        return owner, inside

    # ------------------------------------------------------------------
    # Apply: clear removed rows, drop stopped runs, compact once.
    # ------------------------------------------------------------------
    def _apply(self, step_no: int, step: _Step | None) -> None:
        if step is None:
            self.act = self.act[:0]
            return
        n_runs = len(self.n)
        accept = step.kept >= self.min_support
        if self.val is not None:
            owner, inside = self._val_inside(step)
            counts = np.bincount(owner[inside], minlength=n_runs)
            if self.val_stop:
                accept &= counts[step.run] >= self.min_support
        accepted = np.zeros(n_runs, dtype=bool)
        accepted[step.run[accept]] = True
        stopped = self.act[~accepted[self.act]]

        removed = _ranges(step.start[accept], (step.stop - step.start)[accept])
        self.alive[self.words[removed] & self.low] = False
        if len(stopped):
            self.alive.reshape(n_runs, self.n_base)[stopped] = False
            self.n[stopped] = 0
            on = accepted[self.seg_run]
            self.seg_run, self.seg_col, self.seg_cat = (
                self.seg_run[on], self.seg_col[on], self.seg_cat[on])
        self.words = self.words[self.alive[self.words & self.low]]
        if self.rows is not None:
            self.rows = self.rows[self.alive[self.rows]]
        runs, kept = step.run[accept], step.kept[accept]
        self.n[runs] = kept
        self.act = runs

        val_n = val_sum = None
        if self.val is not None:
            _, y_val, exact_val = self.val
            kept_val = inside & accepted[owner]
            self.vrid = self.vrid[kept_val]
            self.vn[:] = 0
            self.vn[runs] = val_n = counts[runs]
            if exact_val:
                val_sum = np.bincount(owner[kept_val],
                                      weights=y_val[self.vrid],
                                      minlength=n_runs)[runs]
            else:
                lo = np.cumsum(val_n) - val_n
                val_sum = np.array([float(y_val[self.vrid[a:a + b]].sum())
                                    for a, b in zip(lo.tolist(), val_n.tolist())])
        if self.exact:
            self.total[runs] = step.kept_sum[accept]
        else:
            lo = np.cumsum(kept) - kept
            self.total[runs] = [float(self.y[self.rows[a:a + b]].sum())
                                for a, b in zip(lo.tolist(), kept.tolist())]
        for j, i in enumerate(np.flatnonzero(accept).tolist()):
            if i in step.new_cats:
                self.records.cats[(int(runs[j]) + self.offset, step_no)] = (
                    int(step.col[i]), step.new_cats[i])
        self.records.add(runs + self.offset, step_no, step.col[accept],
                         step.kind[accept], step.bound[accept], kept,
                         self.total[runs] / kept, val_n, val_sum)


def sorted_group_sums(values: np.ndarray,
                      weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in ascending order plus their summed weights.

    The sort-once/group-reduce step shared by interval optimisers: an
    interval either includes all points with a value or none of them,
    so only per-level weight sums matter.
    """
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    boundaries = np.empty(len(values), dtype=bool)
    boundaries[0] = True
    boundaries[1:] = values[1:] > values[:-1]
    group_ids = np.cumsum(boundaries) - 1
    group_sums = np.bincount(group_ids, weights=weights)
    return values[boundaries], group_sums


def max_sum_run(sums: np.ndarray) -> tuple[int, int, float]:
    """Vectorized Kadane: (start, end, best_sum) of the max-sum run.

    The run ending at ``i`` with the largest sum starts right after the
    lowest prefix sum seen before ``i``, so the whole search is three
    scans — ``cumsum``, a running ``minimum.accumulate`` of the prefix
    sums, and one ``argmax`` — instead of a Python-level loop.  Tie
    handling replicates the sequential reset-on-nonpositive Kadane it
    replaces: at least one group is always included, among equal-sum
    runs the first-ending one wins, and the run start is the *latest*
    index achieving the prefix minimum (a sequential Kadane resets on
    ``run_sum <= 0``, which keeps the rightmost tied minimum).

    Both BestInterval engines share this scorer (like the PRIM engines
    share :func:`peel_score`), which is what makes their outputs
    bit-identical.  Prefix *differences* round differently than
    restart-based run sums in the last ulp, so on mathematically tied
    soft-label runs the winner may differ from the pre-vectorization
    sequential implementation — exact-arithmetic inputs (binary labels
    with dyadic base rates, integer weights) are unaffected, and the
    differential test in ``tests/test_bi_equivalence.py`` pins the
    exact-arithmetic agreement.
    """
    s = np.asarray(sums, dtype=float)
    n = len(s)
    if n == 0:
        return 0, 0, float(-np.inf)
    prefix = np.cumsum(s)
    # floor[i] = lowest prefix sum strictly left of i (0.0 for the
    # empty prefix), computed in place of an explicit shifted copy.
    running_min = np.minimum.accumulate(prefix)
    scores = np.empty(n)
    scores[0] = prefix[0]
    np.subtract(prefix[1:], np.minimum(running_min[:-1], 0.0),
                out=scores[1:])
    end = int(np.argmax(scores))  # first maximum wins
    floor_at_end = 0.0 if end == 0 else min(float(running_min[end - 1]), 0.0)
    # Run start: latest index whose left-prefix equals the floor at
    # `end` (a sequential Kadane resets on run_sum <= 0, keeping the
    # rightmost tied minimum; the empty prefix before index 0 is 0.0).
    matches = np.nonzero(prefix[:end] == floor_at_end)[0]
    start = int(matches[-1]) + 1 if len(matches) else 0
    return start, end, float(scores[end])


def best_cat_subset(group_sums: np.ndarray) -> np.ndarray:
    """Selection mask of the WRAcc-optimal unordered category subset.

    The categorical analogue of :func:`max_sum_run`: category levels
    are unordered, so the subset maximising the summed WRAcc weights
    ``y - pi`` is simply every level with a positive weight sum.  At
    least one level is always selected (a subgroup must be non-empty):
    when no sum is positive the first level attaining the maximum wins,
    mirroring the first-maximum convention of the interval scorer.
    Zero-sum levels are excluded — they leave the quality unchanged and
    excluding them yields the tighter description.

    Both BestInterval engines share this scorer, which is what makes
    their categorical refinements bit-identical.

    Parameters
    ----------
    group_sums : ndarray of shape (G,)
        Summed WRAcc weights per distinct level, ascending level order
        (as produced by :func:`sorted_group_sums`).

    Returns
    -------
    ndarray of bool, shape (G,)

    Examples
    --------
    >>> import numpy as np
    >>> best_cat_subset(np.array([0.5, -1.0, 0.25])).tolist()
    [True, False, True]
    >>> best_cat_subset(np.array([-2.0, -0.5, -0.5])).tolist()
    [False, True, False]
    """
    sums = np.asarray(group_sums, dtype=float)
    selected = sums > 0.0
    if not selected.any():
        selected = np.zeros(len(sums), dtype=bool)
        selected[int(np.argmax(sums))] = True
    return selected


class SortedDataset:
    """Per-column sorted index of one ``(x, y)`` dataset, built once.

    The substrate for vectorized BestInterval refinements: every column
    of ``x`` is stable-argsorted a single time, and each refinement
    call filters the pre-sorted column by a membership mask.  Because
    the argsort is stable, the filtered values and weights come out in
    exactly the order a fresh ``np.argsort(values, kind="stable")`` of
    the subset would produce, so group sums (and therefore refined
    bounds) are bit-identical to the re-sorting reference
    (:func:`sorted_group_sums`).

    Parameters
    ----------
    x, y:
        The full dataset as float arrays; ``y`` may be binary or soft
        labels in [0, 1].
    base_rate:
        Precomputed ``pi = y.mean()``; ``None`` computes it here.
    """

    __slots__ = ("x", "y", "n", "dim", "base_rate", "order", "values",
                 "sorted_weights", "columns")

    def __init__(self, x: np.ndarray, y: np.ndarray,
                 base_rate: float | None = None) -> None:
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.n, self.dim = self.x.shape
        self.base_rate = float(self.y.mean()) if base_rate is None else base_rate
        # Column j of order: row indices sorted by x[:, j] (stable, so
        # ties keep ascending row order); values/sorted_weights hold the
        # corresponding column-sorted x values and WRAcc contributions.
        # Fortran order keeps each column contiguous for the per-column
        # filters of the hot loop; columns is the unsorted x in the same
        # layout for fast single-dimension interval checks.
        self.order = np.asfortranarray(np.argsort(self.x, axis=0, kind="stable"))
        self.values = np.asfortranarray(
            np.take_along_axis(self.x, self.order, axis=0))
        self.sorted_weights = np.asfortranarray(
            (self.y - self.base_rate)[self.order])
        self.columns = np.asfortranarray(self.x)

    def except_masks(self, box):
        """Membership masks ignoring one dimension, all from one pass.

        Returns a callable ``mask_for(j)`` giving the boolean mask of
        rows inside ``box`` on every restricted dimension except ``j``
        — the reference's ``_contains_except`` — but the per-dimension
        interval checks run once per *box* instead of once per
        ``(box, dim)`` pair: a row is inside-except-``j`` iff it
        violates no restricted dimension, or only violates ``j``.
        """
        restricted = box.restricted_dims
        if len(restricted) == 0:
            everything = np.ones(self.n, dtype=bool)
            return lambda j: everything
        # Same comparison direction as the masking reference so that
        # non-finite values fall on the same side.
        outside = ~((self.x[:, restricted] >= box.lower[restricted])
                    & (self.x[:, restricted] <= box.upper[restricted]))
        if getattr(box, "cats", None) is not None:
            # Categorically restricted columns carry -inf/+inf numeric
            # bounds, so the interval pass above leaves them all-inside;
            # overwrite with the shared set-membership mask.
            for i, d in enumerate(restricted):
                allowed = box.cats[d]
                if allowed is not None:
                    outside[:, i] = ~cat_mask(self.x[:, d], allowed)
        violations = outside.sum(axis=1)
        no_violation = violations == 0
        only_violation = violations == 1
        column_of = {int(d): i for i, d in enumerate(restricted)}

        def mask_for(j: int) -> np.ndarray:
            i = column_of.get(j)
            if i is None:
                return no_violation
            return no_violation | (only_violation & outside[:, i])

        return mask_for

    def _filtered_groups(self, j: int, mask: np.ndarray):
        """``(group_values, group_sums)`` of column ``j`` over ``mask``.

        Filter the pre-sorted column by the membership mask, then group
        equal values — bit-identical to re-sorting the subset (stable
        sort of a subset equals the subset of the stable sort), shared
        by the interval and categorical refinements.  Returns ``None``
        when the mask selects no rows.
        """
        keep = np.flatnonzero(mask[self.order[:, j]])
        if len(keep) == 0:
            return None
        vals = self.values[:, j].take(keep)
        weights = self.sorted_weights[:, j].take(keep)
        boundaries = np.empty(len(vals), dtype=bool)
        boundaries[0] = True
        np.greater(vals[1:], vals[:-1], out=boundaries[1:])
        if boundaries.all():
            # All values distinct (the common continuous-data case):
            # every point is its own group, so the group-reduce is the
            # identity and the whole grouping pass can be skipped.
            return vals, weights
        group_ids = np.cumsum(boundaries) - 1
        group_sums = np.bincount(group_ids, weights=weights)
        return vals[boundaries], group_sums

    def interval_bounds(self, j: int,
                        mask: np.ndarray) -> tuple[float, float] | None:
        """Best-WRAcc interval of column ``j`` over the rows in ``mask``.

        The sort-free core of one BestInterval refinement: filter the
        pre-sorted column, group equal values, and run the max-sum-run
        search over the per-group weight sums.  Returns the
        ``(lower, upper)`` bounds with ``-inf``/``+inf`` when the
        winning run touches the data extremes, or ``None`` when the
        mask selects no rows (the caller keeps the box unchanged).
        """
        groups = self._filtered_groups(j, mask)
        if groups is None:
            return None
        group_values, group_sums = groups
        start, end, _ = max_sum_run(group_sums)
        lower = -np.inf if start == 0 else float(group_values[start])
        upper = (np.inf if end == len(group_values) - 1
                 else float(group_values[end]))
        return lower, upper

    def cat_allowed(self, j: int, mask: np.ndarray):
        """Best-WRAcc category subset of column ``j`` over ``mask``.

        The categorical counterpart of :meth:`interval_bounds`: group
        the filtered column's codes and hand the per-level weight sums
        to :func:`best_cat_subset`.  Returns ``None`` when the mask
        selects no rows (box unchanged), the empty tuple ``()`` when
        every observed level is selected (the dimension becomes
        unrestricted — the analogue of a winning run touching both data
        extremes), else the ascending tuple of allowed codes.  The
        non-empty-subgroup guarantee of :func:`best_cat_subset` means a
        genuine restriction is never encoded as ``()``.
        """
        groups = self._filtered_groups(j, mask)
        if groups is None:
            return None
        group_values, group_sums = groups
        selected = best_cat_subset(group_sums)
        if selected.all():
            return ()
        return tuple(float(v) for v in group_values[selected])


@dataclass(frozen=True)
class BoxStack:
    """Many boxes as stacked ``(B, M)`` bound arrays.

    The batched box-evaluation kernels consume the bounds directly, so
    :class:`~repro.subgroup.box.Hyperbox` objects are built only for the
    boxes a caller hands out.  ``cats`` is ``None`` when no box carries
    a categorical restriction, else one :attr:`Hyperbox.cats` entry
    (``None`` or a per-column tuple) per box.
    """

    lower: np.ndarray
    upper: np.ndarray
    cats: tuple | None = None

    @classmethod
    def of(cls, boxes) -> "BoxStack":
        """Stack a sequence of boxes; a :class:`BoxStack` passes through."""
        if isinstance(boxes, BoxStack):
            return boxes
        boxes = list(boxes)
        dim = boxes[0].dim if boxes else 0
        cats = tuple(box.cats for box in boxes)
        return cls(
            np.array([box.lower for box in boxes]).reshape(len(boxes), dim),
            np.array([box.upper for box in boxes]).reshape(len(boxes), dim),
            cats if any(c is not None for c in cats) else None)

    @classmethod
    def concat(cls, stacks) -> "BoxStack":
        stacks = list(stacks)
        cats = None
        if any(s.cats is not None for s in stacks):
            cats = tuple(c for s in stacks for c in (s.cats or (None,) * len(s)))
        return cls(np.concatenate([s.lower for s in stacks]),
                   np.concatenate([s.upper for s in stacks]), cats)

    def __len__(self) -> int:
        return len(self.lower)

    def __getitem__(self, index) -> "BoxStack":
        """The boxes at ``index`` (a slice or an index sequence), stacked."""
        index = np.arange(len(self))[index]
        cats = None
        if self.cats is not None:
            cats = tuple(self.cats[i] for i in index.tolist())
            if all(c is None for c in cats):
                cats = None
        return BoxStack(self.lower[index], self.upper[index], cats)

    def box(self, i: int) -> Hyperbox:
        return Hyperbox(self.lower[i].copy(), self.upper[i].copy(),
                        None if self.cats is None else self.cats[i])

    def boxes(self) -> list[Hyperbox]:
        return [self.box(i) for i in range(len(self))]


def precision_recall_of(y_sums, n_inside, y_total: float):
    """Per-box ``(n+/n, n+/N+)``, empty boxes / no positives = 0.

    The one shared derivation of the scalar convention
    (:func:`repro.metrics.quality.precision_recall`): element for
    element, ``y_sums[i]/n_inside[i]`` and ``y_sums[i]/y_total`` with
    the same zero-guards.
    """
    y_sums = np.asarray(y_sums, dtype=float)
    n_inside = np.asarray(n_inside)
    precisions = np.divide(y_sums, n_inside, out=np.zeros(len(y_sums)),
                           where=n_inside > 0)
    recalls = y_sums / y_total if y_total else np.zeros(len(y_sums))
    return precisions, recalls


#: Boolean-element budget of the batched membership kernel's scratch
#: buffer (chunk_boxes * n_points): comparisons land in it and are
#: folded into the output, so temporaries stay about 1 MB.
_CONTAINS_CHUNK_ELEMENTS = 1 << 20


def contains_many(boxes, x: np.ndarray) -> np.ndarray:
    """Membership of every row of ``x`` in every box, batched.

    The batched replacement for per-box :meth:`Hyperbox.contains`
    loops: box bounds are stacked into ``(B, dim)`` matrices and
    membership is one broadcasted comparison per dimension, chunked
    over boxes to bound memory.  Each output row is bit-identical to
    ``box.contains(x)``.

    Parameters
    ----------
    boxes:
        A :class:`BoxStack`, or a sequence of hyperboxes.
    x:
        Data matrix of shape ``(n, dim)``.

    Returns
    -------
    np.ndarray
        Boolean matrix of shape ``(len(boxes), n)``.
    """
    # Column-contiguous layout: every dimension's comparison streams
    # one contiguous column across all boxes (about 3x faster than
    # striding through C-order rows, for one cheap copy).
    x = np.asfortranarray(x, dtype=float)
    n, dim = x.shape
    stack = BoxStack.of(boxes)
    n_boxes = len(stack)
    out = np.ones((n_boxes, n), dtype=bool)
    if n_boxes == 0:
        return out
    chunk = max(1, _CONTAINS_CHUNK_ELEMENTS // max(n, 1))
    scratch = np.empty((min(chunk, n_boxes), n), dtype=bool)
    for s in range(0, n_boxes, chunk):
        lo = stack.lower[s:s + chunk]
        hi = stack.upper[s:s + chunk]
        inside = out[s:s + chunk]
        compared = scratch[:len(lo)]
        for j in range(dim):
            column = x[:, j]
            inside &= np.greater_equal(column, lo[:, j, None], out=compared)
            inside &= np.less_equal(column, hi[:, j, None], out=compared)
        # Categorical restrictions (a minority of boxes in mixed runs)
        # apply per box through the same shared membership helper as
        # Hyperbox.contains, so batched rows stay bit-identical.
        if stack.cats is not None:
            for offset, cats in enumerate(stack.cats[s:s + chunk]):
                for j, allowed in enumerate(cats or ()):
                    if allowed is not None:
                        inside[offset] &= cat_mask(x[:, j], allowed)
    return out


@dataclass(frozen=True)
class BoxBatchEvaluation:
    """Per-box coverage statistics of one :func:`evaluate_boxes` call.

    ``y_sums``/``y_means`` are bit-identical to ``y[mask].sum()`` /
    ``y[mask].mean()`` computed per box (``y_means`` is 0 for empty
    boxes), so quality measures derived from them match their scalar
    reference formulas exactly.
    """

    masks: np.ndarray      # (B, n) bool membership matrix
    n_inside: np.ndarray   # (B,) int64 coverage counts
    y_sums: np.ndarray     # (B,) float sums of y over each box
    y_means: np.ndarray    # (B,) float means of y over each box
    n_total: int
    y_total: float
    base_rate: float

    def precision_recall(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-box ``(n+/n, n+/N+)`` (see :func:`precision_recall_of`)."""
        return precision_recall_of(self.y_sums, self.n_inside, self.y_total)


def _evaluate_boxes_chunk(context, start: int, stop: int) -> "BoxBatchEvaluation":
    """Boxes ``[start, stop)`` of a fanned-out :func:`evaluate_boxes`."""
    return evaluate_boxes(context["boxes"][start:stop], context["x"],
                          context["y"], binary=context["binary"])


def evaluate_boxes(boxes, x: np.ndarray, y: np.ndarray,
                   binary: bool | None = None, *, jobs: int | None = 1,
                   chunk_boxes: int | None = None) -> BoxBatchEvaluation:
    """Batched coverage statistics for many boxes on one dataset.

    One :func:`contains_many` call replaces the per-box masking loops
    of the bumping precision/recall pass, the covering loop and the
    subgroup-set metrics.  For binary labels the per-box positive
    counts come from one exact integer reduction over the positive
    columns; for soft labels each box's sum and mean run through the
    same pairwise ``ndarray`` reductions as the scalar code, keeping
    every derived measure bit-identical to its reference.

    With ``jobs`` > 1 (or ``None`` for all CPUs) contiguous box chunks
    fan out over the plan engine — the large-test-set path of the
    harness: ``x``/``y`` cross process boundaries zero-copy through the
    data plane, each worker runs this very function on its slice, and
    the per-box statistics concatenate in box order.  Every per-box
    value is computed from the full ``y`` exactly as in the serial
    call (the ``binary`` regime is resolved once on the whole label
    vector, the totals come from the parent), so results stay
    bit-identical for any ``jobs``/``chunk_boxes`` setting.
    """
    y = np.asarray(y, dtype=float)
    if binary is None:
        binary = bool(np.all((y == 0.0) | (y == 1.0)))
    boxes = BoxStack.of(boxes)
    if (jobs is None or jobs > 1) and len(boxes) > 1:
        from repro.experiments.parallel import run_chunked

        parts = run_chunked(
            _evaluate_boxes_chunk, len(boxes), jobs=jobs,
            chunk_rows=chunk_boxes,
            context={"boxes": boxes, "binary": binary},
            shared={"x": np.ascontiguousarray(x, dtype=float), "y": y})
        return BoxBatchEvaluation(
            masks=np.vstack([part.masks for part in parts]),
            n_inside=np.concatenate([part.n_inside for part in parts]),
            y_sums=np.concatenate([part.y_sums for part in parts]),
            y_means=np.concatenate([part.y_means for part in parts]),
            n_total=len(y),
            y_total=float(y.sum()),
            base_rate=float(y.mean()),
        )
    masks = contains_many(boxes, x)
    n_inside = masks.sum(axis=1)
    n_total = len(y)
    if binary:
        # Integer sums are exact under any summation order.
        y_sums = masks[:, y == 1.0].sum(axis=1).astype(float)
        y_means = np.divide(y_sums, n_inside,
                            out=np.zeros(len(masks)), where=n_inside > 0)
    else:
        y_sums = np.zeros(len(masks))
        y_means = np.zeros(len(masks))
        for i, mask in enumerate(masks):
            if n_inside[i]:
                covered = y[mask]
                y_sums[i] = float(covered.sum())
                y_means[i] = float(covered.mean())
    return BoxBatchEvaluation(
        masks=masks,
        n_inside=n_inside,
        y_sums=y_sums,
        y_means=y_means,
        n_total=n_total,
        y_total=float(y.sum()),
        base_rate=float(y.mean()),
    )
