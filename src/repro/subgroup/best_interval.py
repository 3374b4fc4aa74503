"""The BestInterval (BI) algorithm (Mampaey et al. 2012) — Algorithm 3.

Beam search over hyperboxes maximising Weighted Relative Accuracy.  The
core subroutine re-optimises one input's interval exactly and in linear
time after sorting: WRAcc of a box equals ``(sum over covered points of
(y_i - pi)) / N`` with ``pi = N+/N`` the base rate, so the best interval
along a dimension is the maximum-sum run of sorted points — a
max-sum-run search over groups of equal values.  The sorted-column
index is shared with the PRIM peeling kernel
(:mod:`repro.subgroup.index`).

Soft labels are supported for REDS: the derivation only uses sums of
``y``, never counts of positives.

Two refinement engines produce identical results:
``engine="vectorized"`` (the default) rides the
:class:`~repro.subgroup._kernels.SortedDataset` index — every column
is sorted once per dataset, refinements filter the pre-sorted columns,
refined boxes are memoized by the bounds they keep, and candidate
qualities by box.  ``engine="reference"`` keeps the original per-call
re-sorting and per-candidate masking loops for differential testing
(see ``tests/test_bi_equivalence.py``).  ``y`` is converted to float
once at :func:`best_interval` entry; the engines' inner loops never
convert or copy it again.

One beam loop, :func:`beam_search`, drives either engine's refiner
(:func:`make_refiner`) at one depth.  The memos are pure functions of
the dataset, so one refiner serves every depth of a dataset:
:func:`~repro.core.hyperparams.optimize_bi_depth` builds one per
cross-validation fold and runs the whole ``m`` grid on it, and
:func:`best_interval` is the one-depth call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines import KNOWN_ENGINES
from repro.engines import resolve as _resolve_engine
from repro.subgroup._kernels import (
    SortedDataset,
    best_cat_subset,
    contains_many,
    max_sum_run,
    sorted_group_sums,
)
from repro.subgroup.box import Hyperbox, _contains_except, cat_mask
from repro.subgroup.inputs import check_sd_data

__all__ = ["BIResult", "BI_ENGINES", "best_interval", "best_interval_for_dim",
           "wracc"]

#: Valid beam-search engines — the central registry's names: the
#: sort-once kernel and the re-sorting masking reference.
BI_ENGINES = KNOWN_ENGINES


def wracc(box: Hyperbox, x: np.ndarray, y: np.ndarray,
          base_rate: float | None = None) -> float:
    """Weighted Relative Accuracy of ``box`` on the dataset ``(x, y)``.

    The quality measure BI maximises (Section 3.1 of the paper):
    ``(n/N) * (mean(y inside) - pi)`` with ``pi`` the base rate.

    Parameters
    ----------
    x, y:
        The full dataset; ``y`` may be binary or soft labels in [0, 1].
    base_rate:
        Precomputed ``pi = y.mean()``.  The base rate is a constant of
        the dataset, so callers scoring many boxes pass it once instead
        of re-reducing ``y`` on every call.  ``None`` computes it here.

    Returns
    -------
    float
        The WRAcc value; 0.0 for an empty box.
    """
    y = np.asarray(y, dtype=float)
    if base_rate is None:
        base_rate = float(y.mean())
    inside = box.contains(x)
    n = int(inside.sum())
    if n == 0:
        return 0.0
    total = len(y)
    return (n / total) * (float(y[inside].mean()) - base_rate)


@dataclass
class BIResult:
    """Output of a BI run: the best box and its training WRAcc."""

    box: Hyperbox
    wracc: float
    n_iterations: int


def best_interval_for_dim(
    x: np.ndarray,
    y: np.ndarray,
    box: Hyperbox,
    dim: int,
    base_rate: float | None = None,
    categorical: bool = False,
) -> Hyperbox:
    """Exact best re-optimisation of one dimension's restriction.

    The ``RefineInterval`` subroutine of Algorithm 3: considers the
    points inside ``box`` on every *other* dimension and finds the
    closed interval of ``x[:, dim]`` values maximising WRAcc with
    respect to the full dataset, in ``O(n log n)``.  With
    ``categorical=True`` the dimension's codes are treated as unordered
    and the WRAcc-optimal *subset* of categories is selected instead
    (every level with positive summed ``y - pi`` weight — the exact
    unordered analogue of the max-sum run).

    Parameters
    ----------
    x, y:
        The full dataset; ``y`` may be binary or soft labels in [0, 1].
    box:
        Current candidate box.
    dim:
        Index of the input whose restriction is re-optimised.
    base_rate:
        Precomputed ``pi = y.mean()``; ``None`` computes it here.
    categorical:
        Treat ``x[:, dim]`` as unordered category codes.

    Returns
    -------
    Hyperbox
        The refined box — possibly wider than the current one, or fully
        unrestricted on ``dim`` if no interval (or category subset)
        beats covering everything.
    """
    y = np.asarray(y, dtype=float)
    if base_rate is None:
        base_rate = float(y.mean())
    return _refine_reference(x, y, box, dim, base_rate, categorical)


def _refine_reference(x: np.ndarray, y: np.ndarray, box: Hyperbox,
                      dim: int, base_rate: float,
                      categorical: bool = False) -> Hyperbox:
    """One refinement through the original re-sorting code path."""
    mask = _contains_except(x, box, dim)
    if not mask.any():
        return box

    values = x[mask, dim]
    weights = y[mask] - base_rate  # per-point WRAcc contribution * N

    # Group equal values: an interval (or category subset) either
    # includes all points with a value or none of them.
    group_values, group_sums = sorted_group_sums(values, weights)

    if categorical:
        # Unordered codes: the optimal subset is every level with a
        # positive weight sum; selecting all observed levels means the
        # dimension carries no information and becomes unrestricted.
        selected = best_cat_subset(group_sums)
        if selected.all():
            return box.with_cats(dim, None)
        return box.with_cats(
            dim, tuple(float(v) for v in group_values[selected]))

    start, end, _ = max_sum_run(group_sums)
    lower = float(group_values[start])
    upper = float(group_values[end])

    # Unbounded sides stay unbounded when the run touches the extremes,
    # preserving interpretability (#restricted) exactly as BI does.
    new_lower = -np.inf if start == 0 else lower
    new_upper = np.inf if end == len(group_values) - 1 else upper
    return box.replace(dim, lower=new_lower, upper=new_upper)


class _ReferenceRefiner:
    """Per-call masking/re-sorting engine (the original code path)."""

    def __init__(self, x: np.ndarray, y: np.ndarray, base_rate: float,
                 cat_cols: frozenset = frozenset()) -> None:
        self.x = x
        self.y = y
        self.base_rate = base_rate
        self.dim = x.shape[1]
        self.cat_cols = cat_cols

    def refinements(self, box: Hyperbox, max_restricted: int):
        # Every dimension, at the depth cap too; the beam loop drops
        # what the cap forbids.
        for j in range(self.dim):
            yield _refine_reference(self.x, self.y, box, j, self.base_rate,
                                    categorical=j in self.cat_cols)

    def score(self, pending: dict) -> dict:
        return {key: (box, wracc(box, self.x, self.y, self.base_rate))
                for key, box in pending.items()}


class _VectorizedRefiner:
    """Sort-once engine: shared column index, memoized refinements,
    incremental candidate scoring.

    Every memo holds pure functions of the dataset, so one refiner
    serves beam searches at any number of depths.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, base_rate: float,
                 cat_cols: frozenset = frozenset()) -> None:
        self.dataset = SortedDataset(x, y, base_rate)
        self.dim = self.dataset.dim
        self.binary = bool(np.all((y == 0.0) | (y == 1.0)))
        self.positives = (y == 1.0) if self.binary else None
        self.cat_cols = cat_cols
        self._no_cats = (None,) * x.shape[1]
        # A refinement along j only depends on the *other* dimensions
        # (j's restriction is recomputed from scratch), and the refined
        # box is their bounds and category sets plus j's new
        # restriction, so the memo maps that except-footprint to the
        # refined box itself (``None``: no rows, the parent stays as it
        # is).  Re-refining a box along the dimension that produced it,
        # or any sibling differing only there, is a guaranteed hit.
        # Footprints hold the other bounds' bytes, so a hit carries the
        # bounds the parent would copy, -0.0 included; category sets
        # compare by key, which is exact because Hyperbox stores codes
        # canonically (0.0 for -0.0, ``cats=None`` when none is set).
        # Qualities are cached per box key (WRAcc on the data is a pure
        # function of the box), so re-discovered candidates never
        # re-scan the data either.
        self.memo: dict[tuple, Hyperbox | None] = {}
        self.quality_cache: dict[tuple, float] = {}
        # For freshly refined candidates, membership equals the parent's
        # except-mask intersected with the new interval on the refined
        # dimension — stashed here so scoring skips the full
        # all-dimensions contains pass.
        self._pending_masks: dict[tuple, tuple[np.ndarray, int]] = {}

    def refinements(self, box: Hyperbox, max_restricted: int):
        lower, upper = box.lower.tobytes(), box.upper.tobytes()
        cats_key = box.key()[2]
        if cats_key is None:
            cats_key = self._no_cats
        # At the depth cap, refining an unrestricted dimension gives a
        # box over the cap or ``box`` itself, already in the pool: a
        # numeric run touching both extremes keeps -inf/+inf, and a
        # category set keeping every level is no set (a box without
        # one stays at ``cats=None``).
        dims = (box.restricted_dims.tolist()
                if box.n_restricted == max_restricted else range(self.dim))
        mask_for = None
        for j in dims:
            start, stop = 8 * j, 8 * j + 8  # float64 bytes of dimension j
            footprint = (lower[:start] + lower[stop:],
                         upper[:start] + upper[stop:],
                         cats_key[:j] + cats_key[j + 1:], j)
            try:
                refined = self.memo[footprint]
            except KeyError:
                if mask_for is None:
                    mask_for = self.dataset.except_masks(box)
                mask = mask_for(j)
                refined = self.memo[footprint] = self._refine(box, j, mask)
                if refined is not None:
                    self._pending_masks.setdefault(refined.key(), (mask, j))
            yield box if refined is None else refined

    def _refine(self, box: Hyperbox, j: int,
                mask: np.ndarray) -> Hyperbox | None:
        """``box`` with dimension ``j`` re-optimised over ``mask``, or
        ``None`` when the mask selects no rows."""
        if j in self.cat_cols:
            # () = every level selected (unrestricted); tuple = allowed
            # codes.
            allowed = self.dataset.cat_allowed(j, mask)
            if allowed is None:
                return None
            return box.with_cats(j, None if allowed == () else allowed)
        bounds = self.dataset.interval_bounds(j, mask)
        if bounds is None:
            return None
        return box.replace(j, lower=bounds[0], upper=bounds[1])

    def score(self, pending: dict) -> dict:
        scored = {}
        for key, box in pending.items():
            quality = self.quality_cache.get(key)
            if quality is None:
                quality = self._wracc(key, box)
                self.quality_cache[key] = quality
            scored[key] = (box, quality)
        self._pending_masks.clear()
        return scored

    def _wracc(self, key: tuple, box: Hyperbox) -> float:
        """WRAcc of one candidate, bit-identical to :func:`wracc`.

        The membership mask comes from the stashed parent except-mask
        plus one single-column interval check (set-identical to
        ``box.contains``: the candidate only changed that column's
        bounds); re-discovered candidates without a stashed mask fall
        back to the batched contains kernel.
        """
        dataset = self.dataset
        stashed = self._pending_masks.get(key)
        if stashed is None:
            # columns is already Fortran-ordered, so the kernel's
            # column-contiguous conversion is a no-op.
            inside = contains_many((box,), dataset.columns)[0]
        else:
            except_mask, j = stashed
            column = dataset.columns[:, j]
            allowed = box.cat_restriction(j)
            if allowed is not None:
                inside = except_mask & cat_mask(column, allowed)
            else:
                inside = except_mask & (column >= box.lower[j])
                inside &= column <= box.upper[j]
        n = int(np.count_nonzero(inside))
        if n == 0:
            return 0.0
        if self.binary:
            # Pairwise summation of 0/1 labels is an exact integer, so
            # the count-based mean equals y[inside].mean() bit for bit.
            mean = int(np.count_nonzero(inside & self.positives)) / n
        else:
            mean = float(dataset.y[np.flatnonzero(inside)].mean())
        return (n / dataset.n) * (mean - dataset.base_rate)


def best_interval(
    x: np.ndarray,
    y: np.ndarray,
    *,
    depth: int | None = None,
    beam_size: int = 1,
    max_iterations: int = 50,
    engine: str = "vectorized",
    cat_cols=(),
) -> BIResult:
    """Algorithm 3: beam search with exact one-dimensional refinements.

    Parameters
    ----------
    depth:
        Maximal number of restricted inputs (the ``m`` hyperparameter),
        at least 1; ``None`` allows all.
    beam_size:
        Number of candidate boxes kept between iterations (``bs``).
    max_iterations:
        Safety cap on the outer while loop, at least 0 (it normally
        converges in about ``depth`` iterations).
    engine:
        ``"vectorized"`` (the default) runs refinements over a shared
        sort-once column index with memoization and batched candidate
        scoring; ``"reference"`` keeps the original per-call re-sorting
        loops.  Both return identical results bit for bit (see
        ``tests/test_bi_equivalence.py``).
    cat_cols:
        Column indices holding categorical codes.  Refining such a
        dimension selects the WRAcc-optimal unordered *subset* of its
        categories (every level with positive summed ``y - pi`` weight)
        instead of an interval; the refined boxes carry category sets
        (:attr:`Hyperbox.cats`) on these columns.

    Returns
    -------
    BIResult
        The best box found, its training WRAcc, and the number of beam
        iterations until convergence.
    """
    x, y, _, _ = check_sd_data(x, y, caller="best_interval")
    check_beam_params(depth, beam_size, max_iterations)
    engine = _resolve_engine(engine)
    cat_cols = frozenset(int(c) for c in cat_cols)
    if any(c < 0 or c >= x.shape[1] for c in cat_cols):
        raise ValueError(f"cat_cols out of range for {x.shape[1]} columns: "
                         f"{sorted(cat_cols)}")
    return beam_search(make_refiner(x, y, engine, cat_cols), depth,
                       beam_size=beam_size, max_iterations=max_iterations)


def make_refiner(x: np.ndarray, y: np.ndarray, engine: str,
                 cat_cols: frozenset = frozenset()):
    """The refinement engine of the checked dataset ``(x, y)``: one
    serves :func:`beam_search` at every depth."""
    base_rate = float(y.mean())
    if engine == "reference":
        return _ReferenceRefiner(x, y, base_rate, cat_cols)
    return _VectorizedRefiner(x, y, base_rate, cat_cols)


def check_beam_params(depth: int | None, beam_size: int,
                      max_iterations: int = 50) -> None:
    """``ValueError`` unless the beam search can run with these
    parameters: ``depth`` is ``None`` or at least 1, ``beam_size`` at
    least 1 and ``max_iterations`` at least 0."""
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1 or None, got {depth}")
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")


def beam_search(refiner, depth: int | None, *, beam_size: int,
                max_iterations: int = 50) -> BIResult:
    """The beam loop of Algorithm 3 over ``refiner``'s dataset, capped
    at ``depth`` restricted inputs (see :func:`best_interval`)."""
    check_beam_params(depth, beam_size, max_iterations)
    max_restricted = refiner.dim if depth is None else depth
    start = Hyperbox.unrestricted(refiner.dim)
    beam: dict[tuple, tuple[Hyperbox, float]] = {start.key(): (start, 0.0)}

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        pool = dict(beam)
        pending: dict[tuple, Hyperbox] = {}
        for box, _ in beam.values():
            for refined in refiner.refinements(box, max_restricted):
                if refined.n_restricted > max_restricted:
                    continue
                key = refined.key()
                if key not in pool and key not in pending:
                    pending[key] = refined
        pool.update(refiner.score(pending))

        ranked = sorted(pool.values(), key=lambda item: -item[1])[:beam_size]
        new_beam = {box.key(): (box, quality) for box, quality in ranked}
        if set(new_beam) == set(beam):
            beam = new_beam
            break
        beam = new_beam

    best_box, best_quality = max(beam.values(), key=lambda item: item[1])
    return BIResult(box=best_box, wracc=best_quality, n_iterations=iterations)
