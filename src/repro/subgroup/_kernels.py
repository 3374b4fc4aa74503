"""Vectorized subgroup-discovery kernels: sort once, then run sums.

The reference peel (:func:`repro.subgroup.prim._best_peel`) builds a
boolean mask and recomputes a mean for every one of the 2M candidate
cuts of a peeling step.  :class:`VectorizedPeeler` instead sorts every
dimension once per run and keeps the per-dimension sorted orders up to
date as the box shrinks (removing rows preserves sortedness, so each
peel is a filter, not a re-sort).  Every candidate cut keeps a
contiguous run of a column's sorted points: its support comes from two
binary searches and its output sum from the box total minus one slice
sum over the short removed run (about ``alpha * n`` rows) — no
per-candidate masking at all.

The kernel reproduces the reference semantics exactly:

* quantile cuts keep ties at the boundary inside (``values >= low_q``
  / ``values <= high_q``), with the quantiles computed from the sorted
  columns by :func:`sorted_quantile`, a bit-identical replication of
  ``np.quantile``'s default linear interpolation;
* when the whole box ties at an extreme value (discrete inputs), the
  cut falls back to peeling that entire level;
* all three peeling objectives (``mean`` / ``gain`` / ``wracc``) use
  :func:`peel_score`, shared with the scalar reference;
* candidates are ordered as in the reference iteration — dimension
  major, lower cut before upper cut — and the first maximum wins.  For
  binary outputs every candidate sum is an exact integer, so the
  vectorized scores equal the reference's bit for bit and the argmax
  breaks ties identically; for soft labels, near-tied candidates are
  re-scored through the reference formula (a pairwise-summed mean over
  the kept rows in original order) before picking the winner, so exact
  ties cannot be flipped by slice-sum rounding.

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
per-box references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.subgroup.box import cat_mask

__all__ = [
    "PeelCandidate",
    "VectorizedPeeler",
    "best_peel",
    "peel_score",
    "sorted_quantile",
    "sorted_group_sums",
    "max_sum_run",
    "best_cat_subset",
    "SortedDataset",
    "BoxBatchEvaluation",
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
    gamma = virtual - previous
    a = v[previous]
    b = v[previous + 1]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


@dataclass(frozen=True)
class PeelCandidate:
    """The winning cut of one peeling step.

    ``keep_rows`` holds the ascending row indices (into the arrays the
    peeler was built from) that survive the cut.  A categorical winner
    sets ``new_cats`` — the remaining allowed codes after removing one
    category — and leaves both bounds ``None``.
    """

    dim: int
    new_lower: float | None
    new_upper: float | None
    keep_rows: np.ndarray
    score: float
    new_cats: tuple | None = None


class VectorizedPeeler:
    """Incremental candidate-cut evaluator for one PRIM peeling run.

    Construction sorts every dimension once; :meth:`best_peel` scores
    every candidate cut of the current box from prefix sums — two
    alpha-cuts per numeric dimension, one removed level per categorical
    dimension (``cat_cols``) — and :meth:`apply` shrinks the maintained
    sorted orders to the rows kept by an accepted cut.  Categorical
    candidates ride the same sort-once machinery: equal codes form one
    contiguous run of the sorted column, so removing a category is a
    slice sum exactly like an alpha-cut.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, alpha: float,
                 objective: str, total_mean: float, total_n: int,
                 cat_cols=()) -> None:
        self.y = y
        self.alpha = alpha
        self.objective = objective
        self.total_mean = total_mean
        self.total_n = total_n
        self.cat_cols = frozenset(int(c) for c in cat_cols)
        self.in_box = np.arange(len(x))
        # Column j of sorted_rows: row indices ordered by x[:, j];
        # values holds the corresponding (column-sorted) x values.
        # Fortran order keeps every column contiguous for the
        # per-column binary searches and slice sums of the hot loop.
        self.sorted_rows = np.asfortranarray(np.argsort(x, axis=0))
        self.values = np.asfortranarray(
            np.take_along_axis(x, self.sorted_rows, axis=0))
        self._member = np.zeros(len(x), dtype=bool)
        # Binary outputs make every candidate sum an exact integer, so
        # the vectorized scores already equal the reference's bit for
        # bit and no near-tie re-scoring is ever needed.
        self._exact_sums = bool(np.all((y == 0.0) | (y == 1.0)))

    def best_peel(self) -> PeelCandidate | None:
        """The best-scoring candidate peel across all faces, or None."""
        v = self.values
        n, n_dim = v.shape
        if n < 2:
            return None
        y, rows = self.y, self.sorted_rows
        y_box = y[self.in_box]
        total_y = float(y_box.sum())
        mean_before = float(y_box.mean())
        low_q = sorted_quantile(v, self.alpha)
        high_q = sorted_quantile(v, 1.0 - self.alpha)

        # Candidate layout matches the reference iteration order:
        # dimension major; a numeric dimension contributes its lower
        # then its upper alpha-cut, a categorical dimension one
        # candidate per in-box level in ascending code order.  Every
        # candidate removes one contiguous run [start, stop) of its
        # column's sorted order (equal codes are adjacent after the
        # sort), so each candidate sum is one slice sum over the short
        # removed run, never a full pass.
        dims: list[int] = []
        bounds: list[float] = []
        starts: list[int] = []
        stops: list[int] = []
        cat_flags: list[bool] = []
        kept_counts: list[int] = []
        kept_sums: list[float] = []
        for j in range(n_dim):
            vj = v[:, j]

            if j in self.cat_cols:
                # One candidate per removable category: drop the whole
                # level's run; a single remaining level cannot be peeled.
                group_starts = np.flatnonzero(
                    np.concatenate(([True], vj[1:] > vj[:-1])))
                if len(group_starts) < 2:
                    continue
                group_stops = np.append(group_starts[1:], n)
                for g0, g1 in zip(group_starts.tolist(), group_stops.tolist()):
                    dims.append(j)
                    bounds.append(float(vj[g0]))
                    starts.append(g0)
                    stops.append(g1)
                    cat_flags.append(True)
                    kept_counts.append(n - (g1 - g0))
                    kept_sums.append(total_y - float(y[rows[g0:g1, j]].sum()))
                continue

            # Lower cut: drop everything below the alpha-quantile; if
            # the whole box ties at the minimum, peel that entire level.
            cut = int(np.searchsorted(vj, low_q[j], side="left"))
            bound = low_q[j]
            if cut == 0:
                cut = int(np.searchsorted(vj, vj[0], side="right"))
                if cut < n:
                    bound = vj[cut]
            if 0 < cut < n:
                dims.append(j)
                bounds.append(float(bound))
                starts.append(0)
                stops.append(cut)
                cat_flags.append(False)
                kept_counts.append(n - cut)
                kept_sums.append(total_y - float(y[rows[:cut, j]].sum()))

            # Upper cut: drop everything above the (1 - alpha)-quantile;
            # same whole-level fallback at the maximum.
            cut = int(np.searchsorted(vj, high_q[j], side="right"))
            bound = high_q[j]
            if cut == n:
                cut = int(np.searchsorted(vj, vj[n - 1], side="left"))
                if cut > 0:
                    bound = vj[cut - 1]
            if 0 < cut < n:
                dims.append(j)
                bounds.append(float(bound))
                starts.append(cut)
                stops.append(n)
                cat_flags.append(False)
                kept_counts.append(cut)
                kept_sums.append(total_y - float(y[rows[cut:, j]].sum()))

        if not dims:
            return None

        kept = np.array(kept_counts, dtype=np.int64)
        sums = np.array(kept_sums)
        mean_after = sums / np.maximum(kept, 1)
        if self.objective == "mean":
            scores = mean_after
        elif self.objective == "gain":
            scores = (mean_after - mean_before) / np.maximum(n - kept, 1)
        else:  # "wracc"
            scores = (kept / self.total_n) * (mean_after - self.total_mean)

        best = int(np.argmax(scores))
        if not self._exact_sums:
            best = self._resolve_near_ties(scores, best, dims, starts, stops,
                                           mean_before)

        dim = dims[best]
        start, stop = starts[best], stops[best]
        bound = bounds[best]
        # The removed run is short (about alpha * n rows, or one
        # category's level), so the ascending kept set comes cheaper
        # from deleting its positions in the ascending in_box than from
        # sorting the kept slice.
        removed = np.sort(rows[start:stop, dim])
        keep_rows = np.delete(self.in_box, np.searchsorted(self.in_box, removed))
        if cat_flags[best]:
            new_cats = tuple(float(c) for c in np.unique(v[:, dim])
                             if c != bound)
            return PeelCandidate(dim=dim, new_lower=None, new_upper=None,
                                 keep_rows=keep_rows,
                                 score=float(scores[best]), new_cats=new_cats)
        is_lower = start == 0
        return PeelCandidate(
            dim=dim,
            new_lower=bound if is_lower else None,
            new_upper=None if is_lower else bound,
            keep_rows=keep_rows,
            score=float(scores[best]),
        )

    def _resolve_near_ties(self, scores: np.ndarray, best: int, dims, starts,
                           stops, mean_before: float) -> int:
        """First candidate winning under exact reference scoring.

        Slice sums of soft labels carry rounding noise, so candidates
        whose true scores are equal (typically cuts keeping the same
        rows through different dimensions) may come out of the argmax
        in the wrong order.  Re-score every near-tied candidate the way
        the reference does — a numpy pairwise mean over the kept rows
        in original order — and keep the first strict maximum.
        """
        best_score = scores[best]
        tol = _TIE_RTOL * max(1.0, abs(best_score))
        contenders = np.nonzero(scores >= best_score - tol)[0]
        if len(contenders) < 2:
            return best
        n = self.values.shape[0]
        winner, winner_score = best, -np.inf
        for i in contenders:
            i = int(i)
            col = self.sorted_rows[:, dims[i]]
            rows = np.sort(np.concatenate((col[:starts[i]], col[stops[i]:])))
            exact = peel_score(
                self.objective, float(self.y[rows].mean()), len(rows), n,
                mean_before, self.total_mean, self.total_n,
            )
            if exact > winner_score:
                winner, winner_score = i, exact
        return winner

    def apply(self, step: PeelCandidate) -> None:
        """Shrink the maintained sorted orders to ``step.keep_rows``."""
        rows = self.sorted_rows
        n_dim = rows.shape[1]
        self._member[step.keep_rows] = True
        keep = self._member[rows]
        self._member[step.keep_rows] = False
        n_new = len(step.keep_rows)
        # Row removal preserves each column's sortedness, so peeling is
        # a per-column compaction (via the transpose, since each column
        # keeps a different pattern of positions), never a re-sort.
        self.sorted_rows = rows.T[keep.T].reshape(n_dim, n_new).T
        self.values = self.values.T[keep.T].reshape(n_dim, n_new).T
        self.in_box = step.keep_rows


def best_peel(
    x_box: np.ndarray,
    y_box: np.ndarray,
    alpha: float,
    objective: str = "mean",
    total_mean: float = 0.0,
    total_n: int = 1,
    cat_cols=(),
) -> PeelCandidate | None:
    """One-shot candidate search over the rows of ``x_box``/``y_box``."""
    peeler = VectorizedPeeler(x_box, y_box, alpha, objective,
                              total_mean, total_n, cat_cols=cat_cols)
    return peeler.best_peel()


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


#: Boolean-element budget per chunk of the batched membership kernel
#: (chunk_boxes * n_points); bounds peak temporaries to a few MB.
_CONTAINS_CHUNK_ELEMENTS = 1 << 23


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
        Sequence of hyperboxes (anything exposing ``lower``/``upper``).
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
    boxes = list(boxes)
    n_boxes = len(boxes)
    out = np.empty((n_boxes, n), dtype=bool)
    if n_boxes == 0:
        return out
    lowers = np.array([box.lower for box in boxes])
    uppers = np.array([box.upper for box in boxes])
    chunk = max(1, _CONTAINS_CHUNK_ELEMENTS // max(n, 1))
    for s in range(0, n_boxes, chunk):
        lo = lowers[s:s + chunk]
        hi = uppers[s:s + chunk]
        inside = np.ones((len(lo), n), dtype=bool)
        for j in range(dim):
            column = x[:, j]
            inside &= column >= lo[:, j, None]
            inside &= column <= hi[:, j, None]
        # Categorical restrictions (a minority of boxes in mixed runs)
        # apply per box through the same shared membership helper as
        # Hyperbox.contains, so batched rows stay bit-identical.
        for offset in range(len(lo)):
            cats = getattr(boxes[s + offset], "cats", None)
            if cats is not None:
                for j, allowed in enumerate(cats):
                    if allowed is not None:
                        inside[offset] &= cat_mask(x[:, j], allowed)
        out[s:s + chunk] = inside
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
        """Per-box ``(n+/n, n+/N+)``, empty boxes / no positives = 0.

        The one shared derivation of the scalar convention
        (:func:`repro.metrics.quality.precision_recall`): element for
        element, ``y_sums[i]/n_inside[i]`` and ``y_sums[i]/y_total``
        with the same zero-guards.
        """
        count = len(self.n_inside)
        precisions = np.divide(
            self.y_sums, self.n_inside,
            out=np.zeros(count), where=self.n_inside > 0)
        recalls = (self.y_sums / self.y_total if self.y_total
                   else np.zeros(count))
        return precisions, recalls


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
    boxes = list(boxes)
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
