"""PRIM with bumping (Kwakkel & Cunningham 2016) — Algorithm 2.

Runs PRIM on ``n_repeats`` bootstrap samples, each restricted to a
random subset of ``n_features`` inputs, pools every box of every peeling
trajectory, and returns the boxes not dominated in (precision, recall)
on the validation data.  The non-dominated set plays the role of the
peeling trajectory for the PR AUC measure; its highest-precision element
is the "last box".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engines import resolve as _resolve_engine
from repro.subgroup._kernels import (BoxStack, PeelRun, evaluate_boxes,
                                     peel_runs, precision_recall_of)
from repro.subgroup.box import Hyperbox
from repro.subgroup.inputs import check_peel_params, check_sd_data
from repro.subgroup.prim import prim_peel

__all__ = ["BumpingResult", "draw_repeats", "pareto_front",
           "pareto_trajectory", "prim_bumping"]


@dataclass
class BumpingResult:
    """Non-dominated boxes sorted by decreasing recall.

    ``precisions``/``recalls`` are measured on the validation data the
    Pareto filter used.  ``chosen`` indexes the highest-precision box.
    """

    boxes: list[Hyperbox]
    precisions: np.ndarray
    recalls: np.ndarray

    @property
    def chosen(self) -> int:
        return int(np.argmax(self.precisions))

    @property
    def chosen_box(self) -> Hyperbox:
        return self.boxes[self.chosen]

    def __len__(self) -> int:
        return len(self.boxes)


def _precision_recall(box: Hyperbox, x: np.ndarray, y: np.ndarray,
                      total_pos: float) -> tuple[float, float]:
    """One box's (precision, recall): the per-box reference of the
    batched evaluation (``benchmarks/bench_bi_kernel.py``)."""
    inside = box.contains(x)
    n = int(inside.sum())
    pos = float(y[inside].sum())
    precision = pos / n if n else 0.0
    recall = pos / total_pos if total_pos else 0.0
    return precision, recall


def pareto_front(points: np.ndarray) -> np.ndarray:
    """Indices of points not dominated by any other (maximising all axes).

    Dominance as in Definition 1 of the paper: ``b`` is dominated by
    ``B`` iff ``B`` is >= on every measure and > on at least one.
    Duplicate points are all kept.

    The two-measure case — the (precision, recall) filter of
    Algorithm 2, where candidate counts grow with ``Q`` times the
    trajectory length — runs as an ``O(n log n)`` sort-and-sweep
    instead of the ``O(n^2)`` pairwise scan, which survives as the
    reference for other dimensionalities (and for the differential
    test in ``tests/test_bumping_covering.py``).
    """
    points = np.asarray(points)
    if points.ndim == 2 and points.shape[1] == 2 and len(points) > 1:
        return _pareto_front_2d(points)
    return _pareto_front_reference(points)


def _pareto_front_reference(points: np.ndarray) -> np.ndarray:
    """Pairwise-scan Pareto filter for any number of measures."""
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        geq = (points >= points[i]).all(axis=1)
        gt = (points > points[i]).any(axis=1)
        if (geq & gt).any():
            keep[i] = False
    return np.nonzero(keep)[0]


def _pareto_front_2d(points: np.ndarray) -> np.ndarray:
    """Sort-and-sweep Pareto filter for two measures.

    Sorted by the first measure descending (second descending within
    ties), a point survives iff its second measure equals the maximum
    of its first-measure group *and* strictly exceeds every earlier
    group's maximum — identical keep-set to the pairwise scan,
    duplicates included.
    """
    first, second = points[:, 0], points[:, 1]
    order = np.lexsort((-second, -first))
    f_sorted = first[order]
    s_sorted = second[order]
    # Group boundaries over equal first-measure values; each group's
    # maximal second measure is its first element (ties sorted desc).
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.not_equal(f_sorted[1:], f_sorted[:-1], out=starts[1:])
    group_ids = np.cumsum(starts) - 1
    group_max = s_sorted[starts]
    # Best second measure over groups with strictly greater first
    # measure: running max of previous groups' maxima.
    best_above = np.empty(len(group_max))
    best_above[0] = -np.inf
    np.maximum.accumulate(group_max[:-1], out=best_above[1:])
    keep_sorted = ((s_sorted == group_max[group_ids])
                   & (s_sorted > best_above[group_ids]))
    keep = np.zeros(len(points), dtype=bool)
    keep[order[keep_sorted]] = True
    return np.nonzero(keep)[0]


def _embed_box(small_box: Hyperbox, subset: np.ndarray, dim: int) -> Hyperbox:
    """Embed a box over the feature subset back into the full space."""
    lower = np.full(dim, -np.inf)
    upper = np.full(dim, np.inf)
    lower[subset] = small_box.lower
    upper[subset] = small_box.upper
    cats = None
    if small_box.cats is not None:
        full: list[frozenset | None] = [None] * dim
        for i, d in enumerate(subset):
            full[int(d)] = small_box.cats[i]
        if any(c is not None for c in full):
            cats = tuple(full)
    return Hyperbox(lower, upper, cats)


def draw_repeats(rng: np.random.Generator, n: int, dim: int, m: int,
                 n_repeats: int) -> tuple[np.ndarray, np.ndarray]:
    """Every repeat's bootstrap rows and sorted feature subset.

    Drawn in the order the historical sequential loop consumed the
    stream — per repeat, the rows, then the subset — so callers that
    pre-draw (the fan-out below, the batched feature search of
    :func:`repro.core.hyperparams.optimize_bumping_features`) see the
    same repeats as one-at-a-time peeling.
    """
    samples = np.empty((n_repeats, n), dtype=np.int64)
    subsets = np.empty((n_repeats, m), dtype=np.int64)
    for r in range(n_repeats):
        samples[r] = rng.integers(0, n, size=n)
        subsets[r] = np.sort(rng.choice(dim, size=m, replace=False))
    return samples, subsets


def pareto_trajectory(pooled: BoxStack, n_inside: np.ndarray,
                      y_sums: np.ndarray, n_val: int, y_total: float):
    """Algorithm 2's output from the pooled boxes' validation statistics.

    ``n_inside``/``y_sums`` are each pooled box's count and output sum
    on the ``n_val`` validation rows, whose outputs sum to ``y_total``.
    Returns ``(front, precisions, recalls)``: the boxes not dominated in
    (precision, recall), one per distinct point (the first pooled box
    wins), by decreasing recall.  The trajectory is anchored at the
    unrestricted box — the common starting point A of every peeling
    trajectory, Figure 5 of the paper — so the PR AUC of the front is
    comparable with PRIM's; the front may legitimately dominate it, but
    as the trajectory origin it is kept.
    """
    stats = np.column_stack(precision_recall_of(y_sums, n_inside, y_total))
    seen: dict[tuple[float, float], int] = {}
    for idx in pareto_front(stats).tolist():
        seen.setdefault((stats[idx, 0], stats[idx, 1]), idx)
    kept = sorted(seen.values(), key=lambda i: -stats[i, 1])
    front = pooled[kept]
    precisions, recalls = stats[kept, 0], stats[kept, 1]
    full_precision, full_recall = (
        float(v[0]) for v in precision_recall_of([y_total], [n_val], y_total))
    if not kept or recalls[0] < 1.0 or precisions[0] > full_precision:
        dim = pooled.lower.shape[1]
        anchor = BoxStack(np.full((1, dim), -np.inf), np.full((1, dim), np.inf))
        front = BoxStack.concat((anchor, front))
        precisions = np.concatenate([[full_precision], precisions])
        recalls = np.concatenate([[full_recall], recalls])
    return front, precisions, recalls


def _bumping_chunk(context: dict, start: int, stop: int):
    """Peel bumping repeats ``[start, stop)``: pooled boxes and their
    ``(count, output sum)`` on the validation data.

    Module-level so :func:`repro.experiments.parallel.run_chunked` can
    fan repeats out over worker processes: the repeat randomness
    (bootstrap rows, feature subsets) is pre-drawn in the parent and
    shipped through the shared-memory data plane, so every repeat does
    identical work wherever it runs.  The vectorized engine peels the
    chunk's repeats as one lockstep batch and reads the validation
    statistics off its tracked rows; the reference engine peels them
    one by one and evaluates every box.
    """
    x, y = context["x"], context["y"]
    x_val, y_val = context["x_val"], context["y_val"]
    samples, subsets = context["samples"], context["subsets"]
    cat_cols = frozenset(context["cat_cols"])
    if context["engine"] != "reference":
        trace = peel_runs(
            x, y, [PeelRun(context["alpha"], rows=samples[r], cols=subsets[r])
                   for r in range(start, stop)],
            min_support=context["min_support"], cat_cols=cat_cols,
            x_val=x_val, y_val=y_val)
        return trace.stack, trace.val_n, trace.val_sum
    dim = x.shape[1]
    boxes: list[Hyperbox] = []
    for r in range(start, stop):
        sample = samples[r]
        subset = subsets[r]
        local_cats = tuple(
            i for i, d in enumerate(subset) if int(d) in cat_cols)
        result = prim_peel(
            x[np.ix_(sample, subset)], y[sample],
            alpha=context["alpha"], min_support=context["min_support"],
            engine="reference", cat_cols=local_cats,
        )
        boxes.extend(
            _embed_box(small_box, subset, dim) for small_box in result.boxes)
    stack = BoxStack.of(boxes)
    evaluation = evaluate_boxes(stack, x_val, y_val)
    return stack, evaluation.n_inside, evaluation.y_sums


def prim_bumping(
    x: np.ndarray,
    y: np.ndarray,
    *,
    alpha: float = 0.05,
    min_support: int = 20,
    n_repeats: int = 50,
    n_features: int | None = None,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    engine: str = "vectorized",
    cat_cols: Sequence[int] = (),
    jobs: int | None = 1,
) -> BumpingResult:
    """Algorithm 2: bootstrap + random feature subsets + Pareto filter.

    Parameters
    ----------
    x, y:
        Training data; ``y`` may be binary or soft labels in [0, 1].
    alpha, min_support:
        Passed to the inner :func:`prim_peel` runs.
    n_repeats:
        The ``Q`` hyperparameter: number of bootstrap PRIM runs.
    n_features:
        The ``m`` hyperparameter: random input subset size per run
        (defaults to all inputs).
    x_val, y_val:
        Validation data for the Pareto filter; defaults to the training
        data, as in the paper's experiments.
    rng:
        Source of bootstrap/subset randomness (fresh default if None).
    engine:
        Peeling engine of the inner PRIM runs (see :func:`prim_peel`):
        the vectorized engine peels the repeats (of each worker's
        chunk) as one lockstep batch, the reference engine one by one.
    cat_cols:
        Column indices of categorical inputs (full-space indices).
        Inner PRIM runs peel those columns category-wise; repeats whose
        random feature subset hits a categorical column remap it to the
        subset-local index and the resulting category restrictions are
        embedded back into the full space.
    jobs:
        Worker processes (None = all CPUs, default 1) for the
        ``n_repeats`` independent PRIM runs, one contiguous chunk of
        repeats per worker.  The bootstrap/subset draws happen up front
        in the parent — one rng stream regardless of scheduling — so
        the pooled box set, and hence the returned Pareto front, is
        bit-identical for every ``jobs`` (pinned by
        ``tests/test_budget_fanout.py``).

    Returns
    -------
    BumpingResult
        The (precision, recall)-non-dominated boxes sorted by
        decreasing recall — the trajectory for PR AUC — with the
        highest-precision box as ``chosen_box``.
    """
    x, y, x_val, y_val = check_sd_data(x, y, x_val, y_val,
                                       caller="prim_bumping")
    check_peel_params(alpha, min_support)
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    engine = _resolve_engine(engine)
    if rng is None:
        rng = np.random.default_rng()
    if x_val is None:
        x_val, y_val = x, y

    n, dim = x.shape
    if n_features is not None and not 1 <= n_features <= dim:
        raise ValueError(f"n_features must be in [1, {dim}] for {dim} "
                         f"columns, got {n_features}")
    m = dim if n_features is None else int(n_features)
    cat_set = frozenset(int(c) for c in cat_cols)
    if not all(0 <= c < dim for c in cat_set):
        raise ValueError(f"cat_cols must lie in [0, {dim}), got {sorted(cat_set)}")

    # Draw every repeat's randomness up front, so the fan-out below
    # cannot perturb the stream.
    samples, subsets = draw_repeats(rng, n, dim, m, n_repeats)

    from repro.experiments.parallel import run_chunked

    chunks = run_chunked(
        _bumping_chunk, n_repeats, jobs=jobs,
        context=dict(alpha=alpha, min_support=min_support, engine=engine,
                     cat_cols=tuple(sorted(cat_set))),
        shared=dict(x=x, y=y, samples=samples, subsets=subsets,
                    x_val=x_val, y_val=y_val),
    )
    front, precisions, recalls = pareto_trajectory(
        BoxStack.concat(chunk[0] for chunk in chunks),
        np.concatenate([chunk[1] for chunk in chunks]),
        np.concatenate([chunk[2] for chunk in chunks]),
        len(y_val), float(y_val.sum()))
    return BumpingResult(boxes=front.boxes(), precisions=precisions,
                         recalls=recalls)
