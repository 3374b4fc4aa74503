"""Vectorized subgroup-discovery kernels: sort once, then run sums.

The reference peel (:func:`repro.subgroup.prim._best_peel`) builds a
boolean mask and recomputes a mean for every one of the 2M candidate
cuts of a peeling step.  :func:`peel_runs` instead advances R
independent PRIM runs in lockstep — the (alpha, fold) runs of an alpha
search, the bootstrap repeats of bumping, or a single ``prim_peel``
call as the one-run case.  Each run has its own rows (repeats allowed),
column subset, alpha and validation rows.

Layout.  Nothing moves during a peel.  The pool's static index
(:func:`repro.subgroup.index.column_index`; inside a warm scope every
peel of the pool REDS labelled shares one sort) holds each column's row
order, its tie runs (as ascending keys: dense rank plus a per-column
offset) and every row's block number in every column (plus a
per-column offset too): a column's order is cut into blocks of ``B``
consecutive positions.  A batch keeps the row-level
``held`` table (each run's bootstrap multiplicity of each row, 0 once
peeled) and, per ``(run, column)`` segment and block, the in-box copies
and their label sum.  The batch builds these block tables by gathering
each segment's multiplicities and labels along its column's order and
summing them block by block; when every run holds every row once the
copies are just the block sizes, and binary label sums one count of
the rarer class's rows over their blocks.  An accepted peel zeroes its
removed rows in ``held`` and subtracts them from their block in every
column of the run: one gather of their block numbers, counted once for
the copies and, for binary labels, once more over the positive rows for
the label sums.  Runs that stop drop their segments.  Every order
statistic is then a two-level search: one cumulative sum over the
block counts finds the block, one gather of its ``B`` entries the
position.

One peeling step for all runs is:

* four order-statistic selects per numeric segment — the two pairs of
  entries the alpha- and (1 - alpha)-quantiles interpolate — as one
  vectorized call; the quantiles come from them by
  :func:`sorted_quantile`'s formula, a bit-identical replication of
  ``np.quantile``'s default linear interpolation;
* four rank queries per numeric segment, as one call: a cut keeps ties
  at the quantile inside, so the lower cut ends where the tie run of
  the quantile's own order statistic starts (the upper cut where it
  ends), and when nothing lies below (above) that tie run the whole box
  ties at an extreme and the cut falls back to peeling that entire
  level, up to the run's end (from its start).  Each query counts the
  in-box copies and sums their labels below a tie boundary: the blocks'
  prefix sums plus one gathered block, so a cut's kept count and kept
  sum cost O(N / B + B) however many rows it removes;
* one first-maximum argmax per run in the reference's candidate order
  (dimension major, lower cut before upper cut, categorical levels
  ascending — a categorical segment's candidates are the rank queries
  at its level boundaries); all three objectives score through
  :func:`peel_score`'s formulas;
* validation tracking, where asked for: each run's in-box validation
  rows shrink with its accepted cut, giving every box's validation
  count and output sum without re-evaluating it (the validation stop of
  ``prim_peel``, and the test-fold / Pareto statistics of the searches).

An accepted cut gathers its removed rows from the winning column's
range, clipped to the blocks of the segment's first and last in-box
copy, and subtracts them from their block in every column, so the
removals of a peel cost about the removed copies times the run's
columns, however many rows stay in the box.

Exactness.  For binary outputs every block sum is an exact integer, so
each score equals the reference's bit for bit and the argmax breaks
ties identically.  Soft labels are summed rounded to a fixed-point grid
(:func:`_fixed_point`) on which every sum of a run's labels is exact in
any order, so block sums never drift; the rounding residual widens the
``_TIE_RTOL`` window.  Candidates within that window of a run's maximum
are re-scored through the reference formula (a pairwise mean over the
kept rows in the run's own row order) before the winner is picked, so
exact ties cannot be flipped by summation order; box means reduce over
the same rows in the same order as the reference.

:func:`sorted_group_sums` and :func:`max_sum_run` are the analogous
sort-once machinery for BestInterval's exact one-dimensional
refinement (:func:`repro.subgroup.best_interval.best_interval_for_dim`).
:class:`SortedDataset` extends them into a reusable index: it sorts
nothing itself, but reads the stable column orders of
:func:`~repro.subgroup.index.column_orders` (those of the peeler's
memoized index for a named pool), and every
refinement call of a BestInterval beam search shares them — filtering
a pre-sorted column by a membership mask replaces the per-call
re-sort, because a stable sort of a subset equals the subset of the
stable sort.

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

import math
from dataclasses import dataclass

import numpy as np

from repro.subgroup.box import Hyperbox, cat_mask
from repro.subgroup.index import column_index, column_orders

__all__ = [
    "PeelCandidate",
    "PeelRun",
    "PeelTrace",
    "peel_runs",
    "best_peel",
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
#: score comes this close to the maximum are re-scored exactly.  Block
#: sums hold soft labels rounded to a fixed-point grid
#: (:func:`_fixed_point`), so they are exact in any order and a
#: vectorized score is off the reference's only by the rounding
#: residual, at most ``copies * max|y| * eps`` (2e-11 at 10^5 copies),
#: which widens the window, and the reference's own pairwise-mean
#: rounding, about ``log2(n) * eps``; 1e-9 comfortably covers the latter
#: while excluding genuinely distinct candidates.
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
    offsets = lengths.cumsum() - lengths
    return (starts - offsets).repeat(lengths) + np.arange(total)


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
#: (the batch's ``held`` table and its initial block counts walk every
#: base row once per segment).  Larger searches peel as consecutive
#: batches — runs are independent, so the grouping never changes a
#: result — which bounds the batch's memory to a few tens of MB.
_BATCH_ENTRIES = 1 << 22

def _batches(runs, n_base: int, dim: int):
    """``(start, stop)`` of every lockstep batch of :func:`peel_runs`:
    a batch closes once it holds :data:`_BATCH_ENTRIES` entries."""
    start = 0
    while start < len(runs):
        stop, width = start, 0
        while stop < len(runs) and (stop == start or width < _BATCH_ENTRIES):
            run = runs[stop]
            n_cols = dim if run.cols is None else len(run.cols)
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
    _, removed, _ = batch._removed(step.seg, step.lo, step.hi)
    keep_rows = np.setdiff1d(np.arange(len(x)), removed)
    kind, bound = int(step.kind[0]), float(step.bound[0])
    return PeelCandidate(
        dim=int(step.col[0]),
        new_lower=bound if kind == 0 else None,
        new_upper=bound if kind == 1 else None,
        keep_rows=keep_rows, score=float(step.score[0]),
        new_cats=(tuple(sorted(step.new_cats[0])) if kind == 2 else None))


def _fixed_point(y: np.ndarray, copies: int) -> tuple[np.ndarray, float]:
    """``y`` rounded to the finest grid ``2^-e`` on which any sum of
    ``copies`` of its values is exact in float64, in any order, and the
    largest rounding ``max|y - rounded|``: ``copies * max|y| * eps`` or
    less."""
    top = copies * float(np.abs(y).max(initial=0.0))
    e = 52 - math.frexp(top)[1] if top > 0 else 0
    rounded = np.ldexp(np.round(np.ldexp(y, e)), -e)
    return rounded, float(np.abs(y - rounded).max(initial=0.0))


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
    """The winning candidate of every run that has one, run-ascending.

    A cut removes the in-box entries at flat positions ``[lo, hi)`` of
    its segment's column (``column * width + position``).
    """

    run: np.ndarray
    seg: np.ndarray
    col: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    kind: np.ndarray      # 0 lower cut, 1 upper cut, 2 removed category
    bound: np.ndarray     # the new bound, or the removed category code
    kept: np.ndarray
    kept_sum: np.ndarray
    score: np.ndarray
    new_cats: dict        # winner index -> remaining allowed codes


class _Lockstep:
    """One batch of PRIM runs peeled together over a static column index.

    Every ``(run, column)`` pair is a segment: the run's in-box copies in
    the order of that column.  Entries never move.  A segment is its
    column's order in the :class:`ColumnIndex` read through ``held``,
    each run's multiplicity of each row at ``run * (N + 1) + row`` (0
    outside the box and for the padding row ``N``).  ``cnt[s, b]`` and
    ``sums[s, b]`` hold the in-box copies of block ``b`` of segment
    ``s`` and the exact sum of their labels on a fixed-point grid
    (:func:`_fixed_point`; binary labels are on it already, and their
    sums, the positive copies, are held as integers).  The
    ``t``-th entry of a segment is then a search over the block counts
    plus one gathered block (:meth:`_select`), and so are the copies and
    label sums below a position (:meth:`_rank`).  An accepted peel
    zeroes its removed rows in ``held`` and subtracts them from their
    block in every segment of the run (:meth:`_drop`); the segments of
    stopped runs leave the tables.
    """

    def __init__(self, x, y, runs, offset, records, *, min_support,
                 objective, cat_cols, exact, val, val_stop):
        n_base, dim = x.shape
        n_runs = len(runs)
        self.records, self.offset = records, offset
        self.min_support, self.objective = min_support, objective
        self.exact, self.val, self.val_stop = exact, val, val_stop
        self.x = x
        rows = [np.arange(n_base) if run.rows is None
                else np.asarray(run.rows, dtype=np.int64) for run in runs]
        cols = [np.arange(dim) if run.cols is None
                else np.asarray(run.cols, dtype=np.int64) for run in runs]
        alpha = np.array([run.alpha for run in runs], dtype=float)
        self.alphas = np.column_stack((alpha, 1.0 - alpha))
        self.n = np.array([len(r) for r in rows], dtype=np.int64)
        self.total_n = self.n.copy()
        # Every run holds every base row once: the whole pool.
        whole = all(run.rows is None for run in runs)
        # Each run's in-box output total: exact integers for binary
        # outputs, else the pairwise sum over its rows in its own order.
        self.total = (np.full(n_runs, float(y.sum())) if whole
                      else np.array([float(y[r].sum()) for r in rows]))
        self.total_mean = np.divide(self.total, self.n,
                                    out=np.zeros(n_runs), where=self.n > 0)

        index = column_index(x)
        self.block, self.n_blocks = index.block, index.n_blocks
        self.lanes = np.arange(self.block)[:, None]
        self.width = index.orders.shape[1]
        self.orders, self.keys = index.orders.ravel(), index.keys.ravel()
        self.blocks = index.blocks
        self.stride = n_base + 1
        # Each run's slots in ``held``, in its own row order.
        entries = None if whole and exact else np.concatenate(
            [r * self.stride + rr for r, rr in enumerate(rows)])
        if whole:
            self.held = np.ones(n_runs * self.stride, dtype=np.int32)
            self.held[n_base::self.stride] = 0
        else:
            self.held = np.bincount(
                entries, minlength=n_runs * self.stride).astype(np.int32)
        # Without bootstrap repeats every in-box row is held once.
        self.single = whole or bool(self.held.max(initial=0) <= 1)
        y_pad = np.append(y, 0.0)
        self.w, self.residual = ((y_pad, 0.0) if exact else _fixed_point(
            y_pad, int(self.n.max(initial=1))))
        # Soft labels need each run's in-box rows in its own row order:
        # the near-tie re-scoring and the training means reduce over
        # them exactly as the reference does.
        self.rows = self.y = None
        if not exact:
            self.y = y_pad if n_runs == 1 else np.tile(y_pad, n_runs)
            self.rows = entries

        self.seg_run = np.repeat(np.arange(n_runs), [len(c) for c in cols])
        self.seg_col = np.concatenate(cols)
        self.seg_cat = np.isin(self.seg_col, list(cat_cols))
        self.has_cat = bool(self.seg_cat.any())
        # A step's candidate patterns, lower and upper cut alternating,
        # sliced to its numeric segments.
        self.lanes2 = np.arange(2 * len(self.seg_col))
        self.side = self.lanes2 % 2
        self.upper = self.side == 1
        # Each categorical column's levels: the flat start of every tie
        # run in its order, then its end, and the level values.
        self.levels = {}
        for col in np.unique(self.seg_col[self.seg_cat]).tolist():
            keys = self.keys[col * self.width:col * self.width + n_base]
            edges = col * self.width + np.concatenate(
                ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [n_base]))
            self.levels[col] = (edges, x[self.orders[edges[:-1]], col])
        self._locate_segments()
        if np.count_nonzero(self.seg_of >= 0) != len(self.seg_col):
            raise ValueError("a PeelRun's cols must be distinct")
        self.sums_type = np.int64 if exact else float
        self.cnt, self.sums = self._tables(whole)

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

    def _locate_segments(self) -> None:
        """Per-segment lookups, rebuilt when segments leave the batch.

        ``seg_of[r, j]`` is the segment of run ``r`` and column ``j``
        (-1 where the run does not peel the column); ``every_column``
        says every run still peeling peels every column.  Positions are flat
        indexes into the index arrays, ``column * width + position``, so
        segment ``s`` finds its column at ``colbase[s]``, the block of
        flat position ``f`` at ``f // B + gshift[s]`` in the flat block
        tables, and its run's multiplicities at ``hold[s] + row``.
        """
        n_segs = len(self.seg_col)
        self.seg_of = np.full((len(self.n), self.blocks.shape[1]), -1)
        self.seg_of[self.seg_run, self.seg_col] = np.arange(n_segs)
        live = np.count_nonzero(np.bincount(self.seg_run,
                                            minlength=len(self.n)))
        self.every_column = n_segs == live * self.blocks.shape[1]
        self.colbase = self.seg_col * self.width
        self.first_block = np.arange(n_segs) * self.n_blocks
        self.gshift = self.first_block - self.seg_col * self.n_blocks
        # A row's entry in ``blocks`` plus ``shift[r, j]`` is its block's
        # slot in the segment of run ``r`` and column ``j``.
        self.shift = (self.seg_of - np.arange(self.seg_of.shape[1])
                      ) * self.n_blocks
        self.shifted = len(self.n) > 1 or bool(self.shift.any())
        self.hold = None if len(self.n) == 1 else self.seg_run * self.stride

    def run(self) -> None:
        step = 0
        while len(self.act):
            step += 1
            self._apply(step, self.decide())

    # ------------------------------------------------------------------
    # The index queries of one step.
    # ------------------------------------------------------------------
    def _block_entries(self, seg, start):
        """Rows and in-box copies of the block at flat position ``start``
        of every segment ``seg``, one column per segment (lanes down the
        rows, so the reductions over a block run along axis 0)."""
        rows = self.orders[self.lanes + start]
        if self.hold is None:
            return rows, self.held[rows]
        return rows, self.held[rows + self.hold[seg]]

    def _select(self, seg, t):
        """Flat position and row of the ``t``-th in-box copy (0-based) of
        every segment ``seg``."""
        target = self.seg_base[seg] + t
        g = self.cum.searchsorted(target, side="right")
        start = (g - self.gshift[seg]) * self.block
        _, mult = self._block_entries(seg, start)
        # The copy sits at the first lane whose running count passes the
        # copies to skip in its block.
        at = start + (mult.cumsum(axis=0)
                      <= target - self.cum_ex[g]).sum(axis=0)
        return at, self.orders[at]

    def _rank(self, seg, edge):
        """In-box copies and their fixed-point label sum for every
        segment ``seg`` below flat position ``edge``."""
        start = edge // self.block
        g = start + self.gshift[seg]
        start *= self.block
        rows, mult = self._block_entries(seg, start)
        mult *= self.lanes < edge - start
        count = self.cum_ex[g] - self.seg_base[seg] + mult.sum(axis=0)
        sums = self.pre_ex[g] + (self.w[rows] * mult).sum(axis=0)
        return count, sums

    def _tie_edges(self, at, after):
        """Flat start (``after`` 0) or end (``after`` 1) of the tie run
        at every flat position ``at``."""
        return self.keys.searchsorted(
            (self.keys[at] + after).astype(self.keys.dtype))

    def _removed(self, seg, lo, hi):
        """``(owner, row, copies)`` of the in-box entries at flat
        positions ``[lo, hi)`` of every segment ``seg``.  Each range is
        first clipped to the blocks of its segment's first and last
        in-box copy, so a cut never rescans what earlier cuts emptied."""
        base = self.seg_base[seg]
        ends = self.cum.searchsorted(np.concatenate(
            (base, base + self.n[self.seg_run[seg]] - 1)), side="right")
        first, last = (ends - np.concatenate((self.gshift[seg],) * 2)
                       ).reshape(2, -1) * self.block
        lo = np.maximum(lo, first)
        count = np.minimum(hi, last + self.block) - lo
        if len(seg) == 1:
            # One range: a view of its column's order.
            rows = self.orders[int(lo[0]):int(lo[0] + count[0])]
            owner = np.zeros(len(rows), dtype=np.int64)
        else:
            owner = np.arange(len(seg)).repeat(count)
            rows = self.orders[_ranges(lo, count)]
        copies = self.held[rows if self.hold is None
                           else rows + self.hold[seg][owner]]
        hit = copies.nonzero()[0]
        return owner[hit], rows[hit], copies[hit]

    def _tables(self, whole: bool):
        """``(cnt, sums)`` of the batch's first box: each segment's
        multiplicities and weighted labels gathered along its column's
        order and summed block by block, a few segments at a time so the
        temporaries stay a few MB.  ``whole``: every run holds every
        base row once, so a block's copies are its rows (the last block
        is padded) and only the labels are gathered, once per column;
        binary labels are counted instead, one ``bincount`` of the
        rarer class's rows over their blocks in every column."""
        n_segs, n_blocks, block = len(self.seg_col), self.n_blocks, self.block
        orders = self.orders.reshape(-1, self.width)

        def per_block(values):
            # The sums are exact on the grid, so einsum's order is free.
            return np.einsum("sbk->sb",
                             values.reshape(len(values), n_blocks, block))

        chunk = max(1, (1 << 18) // self.width)
        if whole:
            n_base, dim = self.blocks.shape
            cnt = np.full((n_segs, n_blocks), block, dtype=np.int64)
            cnt[:, -1] = n_base - (n_blocks - 1) * block
            if self.exact:
                positive = self.w[:n_base] == 1.0
                rare = positive.sum() <= n_base // 2
                counts = np.bincount(
                    self.blocks[positive if rare else ~positive].ravel(),
                    minlength=dim * n_blocks).reshape(dim, n_blocks)
                sums = counts if rare else cnt[:1] - counts
                return cnt, sums[self.seg_col]
            cols, seg_of_col = np.unique(self.seg_col, return_inverse=True)
            sums = np.empty((len(cols), n_blocks), dtype=self.sums_type)
            for lo in range(0, len(cols), chunk):
                part = slice(lo, lo + chunk)
                sums[part] = per_block(np.take(self.w, orders[cols[part]]))
            return cnt, sums[seg_of_col]
        cnt = np.empty((n_segs, n_blocks), dtype=np.int64)
        sums = np.empty((n_segs, n_blocks), dtype=self.sums_type)
        for lo in range(0, n_segs, chunk):
            segs = slice(lo, lo + chunk)
            rows = orders[self.seg_col[segs]]
            mult = self.held[rows if self.hold is None
                             else rows + self.hold[segs, None]]
            cnt[segs] = per_block(mult)
            sums[segs] = per_block(self.w[rows] * mult)
        return cnt, sums

    def _drop(self, runs, rows, mult) -> None:
        """Take the copies of every row ``rows`` that run ``runs`` holds
        ``mult`` times out of ``held`` and out of their block in each
        segment of the run: one gather of the rows' block numbers per
        chunk of rows (so the temporaries stay a few MB), counted by
        ``bincount``.  Binary labels sum to the positive copies, counted
        again over the positive rows alone, unweighted without bootstrap
        repeats; soft ones are a weighted count."""
        self.held[runs * self.stride + rows] = 0
        counts, sums = self.cnt.reshape(-1), self.sums.reshape(-1)

        def subtract(table, flat, weights):
            if weights is not None:
                weights = weights.repeat(flat.shape[1])
            table -= np.bincount(flat.ravel(), weights=weights,
                                 minlength=len(table)).astype(
                                     table.dtype, copy=False)

        chunk = (1 << 18) // max(1, self.blocks.shape[1])
        for lo in range(0, len(rows), chunk):
            run, row, copies = (a[lo:lo + chunk] for a in (runs, rows, mult))
            # ``flat`` holds each row's slots in the flat block tables,
            # one row per entry of ``row``.
            if self.every_column:
                flat = np.take(self.blocks, row, axis=0)
                if self.shifted:
                    flat = flat + self.shift[run if len(self.n) > 1 else 0]
            else:
                at, col = (self.seg_of[run] >= 0).nonzero()
                run, row, copies = run[at], row[at], copies[at]
                flat = (self.blocks[row, col] + self.shift[run, col])[:, None]
            subtract(counts, flat, None if self.single else copies)
            if self.exact:
                pos = self.w[row] == 1.0
                subtract(sums, flat[pos], None if self.single else copies[pos])
            else:
                subtract(sums, flat, self.w[row] * copies)

    # ------------------------------------------------------------------
    # One step: candidates, winners, acceptance.
    # ------------------------------------------------------------------
    def decide(self) -> _Step | None:
        """Every active run's winning cut, or None when none has one."""
        seg_n = self.n[self.seg_run]
        # Inclusive and exclusive prefix counts over all blocks, and the
        # exclusive label sums within each segment (exact on the grid).
        cnt = self.cnt.reshape(-1)
        self.cum = cnt.cumsum()
        self.cum_ex = self.cum - cnt
        self.seg_base = self.cum_ex[self.first_block]
        pre = self.sums.cumsum(axis=1)
        self.totals = pre[:, -1]
        self.pre_ex = (pre - self.sums).reshape(-1)
        cand = self._candidates(seg_n)
        if cand is None:
            return None
        seg, lo, hi, kind, bound, kept, fallback, kept_sum = cand
        scores = self._scores(seg, kept, kept_sum)
        win = self._winners(seg, lo, hi, kept, scores)
        step = _Step(run=self.seg_run[seg[win]], seg=seg[win],
                     col=self.seg_col[seg[win]], lo=lo[win], hi=hi[win],
                     kind=kind[win], bound=bound[win], kept=kept[win],
                     kept_sum=kept_sum[win], score=scores[win], new_cats={})
        # A cut that fell back to a whole tie level is bounded by the
        # nearest kept value.
        tied = (fallback[win] >= 0).nonzero()[0]
        if len(tied):
            _, rows = self._select(step.seg[tied], fallback[win][tied])
            step.bound[tied] = self.x[rows, step.col[tied]]
        for i in (step.kind == 2).nonzero()[0].tolist():
            present = bound[(seg == step.seg[i]) & (kind == 2)]
            step.new_cats[i] = frozenset(
                float(c) for c in present if c != step.bound[i])
        return step

    def _candidates(self, seg_n):
        """Every valid cut of every active run, in reference order.

        Per-candidate arrays ``(seg, lo, hi, kind, bound, kept,
        fallback, kept_sum)``: the cut removes flat positions ``[lo,
        hi)`` of its segment's column, ``kind`` is 0/1/2 for a lower cut,
        an upper cut and a removed category, and a numeric cut that
        fell back to a whole tie level has its bound at the in-box rank
        ``fallback`` (else -1).  Candidates run in the reference
        iteration order: run-major, then column, lower cut before upper
        cut, category levels ascending.
        """
        peelable = seg_n >= 2
        num = (peelable & ~self.seg_cat).nonzero()[0]
        # Both cuts of every numeric segment, lower then upper as the
        # reference tries them: the alpha- and (1 - alpha)-quantiles by
        # sorted_quantile's formula over the order statistics a/b at
        # ranks below/below + 1 of each segment.
        count = 2 * len(num)
        upper, side = self.upper[:count], self.side[:count]
        seg = num.repeat(2)
        segs = np.concatenate((seg, seg))
        n = seg_n[seg]
        virtual = (n - 1) * self.alphas[self.seg_run[seg], side]
        below = np.minimum(virtual.astype(np.int64), n - 2)
        at, rows = self._select(segs, np.concatenate((below, below + 1)))
        a, b = self.x[rows.reshape(2, -1), self.seg_col[seg]]
        quantile = _lerp(a, b, virtual - below)
        # Cuts keep ties at the quantile inside: the lower cut drops the
        # entries below it, the upper cut those above it.  A quantile
        # equals one of its two order statistics or lies strictly
        # between them, so the lower cut ends where the tie run of ``a``
        # (quantile == a) or of ``b`` starts, and the upper cut where the
        # tie run of ``b`` (quantile == b) or of ``a`` ends.  When the
        # whole box ties at an extreme, nothing lies below (above) that
        # tie run, and the cut falls back to peeling the entire level:
        # up to the run's end (from its start).
        probe = np.where(np.where(upper, quantile == b, quantile != a),
                         at[count:], at[:count])
        edge = self._tie_edges(np.concatenate((probe, probe)),
                               np.concatenate((side, 1 - side)))
        cut, below_sums = self._rank(segs, edge)
        tied = np.where(upper, cut[:count] == n, cut[:count] == 0)
        pick = self.lanes2[:count] + count * tied
        cut, edge, below_sums = cut[pick], edge[pick], below_sums[pick]
        base = self.colbase[seg]
        columns = [
            seg,
            np.where(upper, edge, base),
            np.where(upper, base + (self.stride - 1), edge),
            side,
            quantile,
            np.where(upper, cut, n - cut),
            np.where(tied, np.where(upper, np.maximum(cut - 1, 0),
                                    np.minimum(cut, n - 1)), -1),
            np.where(upper, below_sums, self.totals[seg] - below_sums),
        ]
        valid = (columns[5] > 0) & (columns[5] < n)
        if self.has_cat:
            cats = self._cat_candidates(seg_n, peelable)
            columns = [np.concatenate((c[valid], extra))
                       for c, extra in zip(columns + [side], cats)]
            order = np.lexsort((columns[-1], columns[0]))
            columns = [c[order] for c in columns[:-1]]
        elif not valid.all():
            columns = [c[valid] for c in columns]
        if not len(columns[0]):
            return None
        return columns

    def _cat_candidates(self, seg_n, peelable):
        """One candidate per in-box level of every categorical segment
        that has two or more: the columns of :meth:`_candidates`, then
        each level's index (its order key within the segment)."""
        segs = np.flatnonzero(peelable & self.seg_cat)
        parts = []
        for col, (edges, values) in self.levels.items():
            mine = segs[self.seg_col[segs] == col]
            n_levels = len(values)
            parts.append((np.repeat(mine, n_levels + 1),
                          np.tile(edges, len(mine)),
                          np.tile(np.arange(n_levels + 1) < n_levels,
                                  len(mine)),
                          np.tile(values, len(mine)),
                          np.tile(np.arange(n_levels), len(mine))))
        seg, edge, opens, value, level = (np.concatenate(p)
                                          for p in zip(*parts))
        count, below = self._rank(seg, edge)
        # Level i of a segment lies between its edges i and i + 1.
        first = np.flatnonzero(opens)
        seg = seg[first]
        size = count[first + 1] - count[first]
        present = size > 0
        at = present & (np.bincount(seg[present], minlength=len(seg_n))[seg]
                        >= 2)
        first, seg = first[at], seg[at]
        kept_sum = self.totals[seg] - (below[first + 1] - below[first])
        return (seg, edge[first], edge[first + 1], np.full(len(seg), 2),
                value[at], seg_n[seg] - size[at], np.full(len(seg), -1),
                kept_sum, level[at])

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

    def _winners(self, seg, lo, hi, kept, scores):
        """Each run's first maximum-score candidate."""
        run = self.seg_run[seg]
        opens = np.ones(len(run), dtype=bool)
        np.not_equal(run[1:], run[:-1], out=opens[1:])
        firsts = opens.nonzero()[0]
        group = opens.cumsum() - 1
        best = np.maximum.reduceat(scores, firsts)
        winners = np.minimum.reduceat(
            np.where(scores == best[group], np.arange(len(run)), len(run)),
            firsts)
        if not self.exact:
            tolerance = (_TIE_RTOL * np.maximum(1.0, np.abs(best))
                         + 2.0 * self.residual)
            contender = scores >= (best - tolerance)[group]
            ties = np.bincount(group[contender], minlength=len(best))
            for g in np.flatnonzero(ties >= 2).tolist():
                members = np.flatnonzero(contender & (group == g))
                winners[g] = self._resolve_near_tie(
                    int(run[members[0]]), members, seg, lo, hi, kept)
        return winners

    def _in_box_rows(self, r: int) -> np.ndarray:
        """Run ``r``'s in-box rows in its own row order (soft labels)."""
        before = self.act[:np.searchsorted(self.act, r)]
        lo = int(self.n[before].sum())
        return self.rows[lo:lo + int(self.n[r])]

    def _resolve_near_tie(self, r, members, seg, lo, hi, kept) -> int:
        """First candidate winning under exact reference scoring.

        Vectorized soft-label scores carry rounding noise, so candidates
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
            _, removed, _ = self._removed(seg[i:i + 1], lo[i:i + 1],
                                          hi[i:i + 1])
            removed += r * self.stride
            held = self.held[removed]
            self.held[removed] = 0
            keep = self.held[rows] > 0
            self.held[removed] = held
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
        owner = self.act.repeat(self.vn[self.act])
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
    # Apply: drop removed rows from their blocks, drop stopped runs.
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

        winners = accept.nonzero()[0]
        cut, rows, mult = self._removed(
            step.seg[winners], step.lo[winners], step.hi[winners])
        self._drop(step.run[winners][cut], rows, mult)
        if len(stopped):
            self.held.reshape(n_runs, self.stride)[stopped] = 0
            self.n[stopped] = 0
            on = accepted[self.seg_run]
            self.seg_run, self.seg_col, self.seg_cat = (
                self.seg_run[on], self.seg_col[on], self.seg_cat[on])
            self.cnt, self.sums = self.cnt[on], self.sums[on]
            self._locate_segments()
        if self.rows is not None:
            self.rows = self.rows[self.held[self.rows] > 0]
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
        for j, i in enumerate(winners.tolist()):
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

    The substrate for vectorized BestInterval refinements: each
    refinement call filters the pre-sorted columns by a membership
    mask.  The orders are those of
    :func:`~repro.subgroup.index.column_orders`, a stable argsort of
    every column, so inside a warm scope a pool REDS named shares its
    memoized index with the PRIM peels of that pool.  The
    filtered values and weights therefore come out in exactly the order
    a fresh ``np.argsort(values, kind="stable")`` of the subset would
    produce, and group sums (and therefore refined bounds) are
    bit-identical to the re-sorting reference
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
        # Column j of order: row indices sorted by x[:, j] (ties keep
        # ascending row order); values/sorted_weights hold the
        # corresponding column-sorted x values and WRAcc contributions.
        # Each column is contiguous for the per-column filters of the
        # hot loop; columns is the unsorted x in the same layout for
        # fast single-dimension interval checks.
        rows = np.ascontiguousarray(self.x.T)
        # Native-width indices: masks gather along them in the hot loop.
        order = column_orders(self.x)
        self.order = order.T
        self.values = np.take_along_axis(rows, order, axis=1).T
        self.sorted_weights = np.asfortranarray(
            (self.y - self.base_rate)[self.order])
        self.columns = rows.T

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
#: buffer (boxes per chunk * n_points): comparisons land in it and are
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
                   binary: bool | None = None, *,
                   jobs: int | None = 1) -> BoxBatchEvaluation:
    """Batched coverage statistics for many boxes on one dataset.

    One :func:`contains_many` call replaces the per-box masking loops
    of the bumping precision/recall pass and the peeling trajectory.
    For binary labels the per-box positive
    counts come from one exact integer reduction over the positive
    columns; for soft labels each box's sum and mean run through the
    same pairwise ``ndarray`` reductions as the scalar code, keeping
    every derived measure bit-identical to its reference.

    With ``jobs`` > 1 (or ``None`` for all CPUs) one contiguous box
    chunk per worker fans out over the plan engine — the large-test-set
    path of the harness: ``x``/``y`` cross process boundaries zero-copy
    through the data plane, each worker runs this very function on its
    slice, and the per-box statistics concatenate in box order.  Every per-box
    value is computed from the full ``y`` exactly as in the serial
    call (the ``binary`` regime is resolved once on the whole label
    vector, the totals come from the parent), so results stay
    bit-identical for any ``jobs``.
    """
    y = np.asarray(y, dtype=float)
    if binary is None:
        binary = bool(np.all((y == 0.0) | (y == 1.0)))
    boxes = BoxStack.of(boxes)
    if (jobs is None or jobs > 1) and len(boxes) > 1:
        from repro.experiments.parallel import run_chunked

        parts = run_chunked(
            _evaluate_boxes_chunk, len(boxes), jobs=jobs,
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
