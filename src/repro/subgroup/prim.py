"""PRIM: the Patient Rule Induction Method (Friedman & Fisher 1999).

Implements the peeling phase exactly as Algorithm 1 of the REDS paper:
starting from the unrestricted box, repeatedly cut off the share
``alpha`` of in-box points with the highest or lowest values of one
input, choosing the cut that leaves the highest mean output, while the
box keeps at least ``min_support`` points on both the training and the
validation set.  The optional pasting phase (re-expanding the chosen
box) is included for completeness; the paper found its effect
negligible and disables it, as do we by default.

The response may be real-valued in ``[0, 1]``: the mean-maximising
objective ``n+/n`` generalises verbatim to soft labels, which is what
the "p" variants of REDS rely on (Section 6.1).

Alternative peeling objectives (Kwakkel & Jaxa-Rozen 2016, which the
paper lists as REDS-compatible and orthogonal) are supported through
the ``objective`` parameter:

* ``"mean"`` — original PRIM: maximise the mean output of the
  remaining box;
* ``"gain"`` — "lenient" peeling: maximise the mean improvement per
  removed point, which prefers small cuts with a big effect;
* ``"wracc"`` — maximise the Weighted Relative Accuracy of the
  remaining box with respect to the full dataset, trading purity
  against coverage at every step.

Two peeling engines produce identical results: ``engine="vectorized"``
(the default) is the one-run case of the lockstep peeler
:func:`repro.subgroup._kernels.peel_runs`, while ``engine="reference"``
keeps the original per-candidate masking loop for differential testing
(see ``tests/test_prim_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engines import KNOWN_ENGINES
from repro.engines import resolve as _resolve_engine
from repro.subgroup import _kernels
from repro.subgroup.box import Hyperbox, _contains_except, cat_mask
from repro.subgroup.inputs import check_peel_params, check_sd_data

__all__ = ["PRIMResult", "prim_peel", "OBJECTIVES", "ENGINES"]


@dataclass
class PRIMResult:
    """A peeling run: the nested box sequence plus train-side statistics.

    ``boxes[0]`` is the unrestricted box; ``boxes[chosen]`` is the box
    with the highest validation mean — the paper's default "last box"
    used for the precision / #restricted / consistency measures.
    """

    boxes: list[Hyperbox]
    train_means: np.ndarray
    train_support: np.ndarray
    val_means: np.ndarray
    chosen: int

    @property
    def chosen_box(self) -> Hyperbox:
        return self.boxes[self.chosen]

    def __len__(self) -> int:
        return len(self.boxes)


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


#: Valid peeling objectives (see module docstring).
OBJECTIVES = ("mean", "gain", "wracc")

#: Valid peeling engines — the central registry's names.
ENGINES = KNOWN_ENGINES


def prim_peel(
    x: np.ndarray,
    y: np.ndarray,
    *,
    alpha: float = 0.05,
    min_support: int = 20,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
    paste: bool = False,
    objective: str = "mean",
    engine: str = "vectorized",
    cat_cols=(),
) -> PRIMResult:
    """Run one PRIM peeling (and optionally pasting) pass.

    Parameters
    ----------
    x, y:
        Training data; ``y`` may be binary or soft labels in [0, 1].
    alpha:
        Peeling fraction (share of in-box points removed per step).
    min_support:
        The ``mp`` of Algorithm 1: minimal number of points the box must
        keep on the training *and* validation data.
    x_val, y_val:
        Validation data used to select the final box; defaults to the
        training data (the paper uses ``D_val = D`` in Section 8.5).
    paste:
        Run the pasting phase from the chosen box.
    objective:
        Peeling criterion: ``"mean"`` (original PRIM), ``"gain"`` or
        ``"wracc"`` (Kwakkel & Jaxa-Rozen style alternatives).
    engine:
        ``"vectorized"`` (the lockstep kernel, the default) or
        ``"reference"`` (per-candidate masking); both return identical
        results.
    cat_cols:
        Column indices holding categorical codes.  Those dimensions
        peel one category at a time — one candidate per removable level,
        the classic Friedman & Fisher categorical rule — and pasting
        re-admits one category at a time; the resulting boxes carry
        category sets (:attr:`Hyperbox.cats`) instead of interval
        bounds on these columns.

    Returns
    -------
    PRIMResult
        The nested box sequence ``boxes`` (``boxes[0]`` unrestricted),
        per-box train/validation statistics, and ``chosen`` — the index
        of the box with the highest validation mean, the paper's "last
        box" (Section 8.5).
    """
    x, y, x_val, y_val = check_sd_data(x, y, x_val, y_val, caller="prim_peel")
    check_peel_params(alpha, min_support)
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    engine = _resolve_engine(engine)
    cat_cols = frozenset(int(c) for c in cat_cols)
    if any(c < 0 or c >= x.shape[1] for c in cat_cols):
        raise ValueError(f"cat_cols out of range for {x.shape[1]} columns: "
                         f"{sorted(cat_cols)}")

    if engine == "reference":
        boxes, train_means, train_support, val_means = _peel_reference(
            x, y, x_val, y_val, alpha, min_support, objective, cat_cols)
    else:
        trace = _kernels.peel_runs(
            x, y, [_kernels.PeelRun(alpha)], min_support=min_support,
            objective=objective, cat_cols=cat_cols, x_val=x_val, y_val=y_val,
            val_stop=True)
        boxes = trace.stack.boxes()
        train_means = list(trace.train_mean)
        train_support = trace.train_n
        # Without validation data the validation rows are the training
        # rows, so the validation means are the training means.
        val_means = train_means if x_val is None else list(np.divide(
            trace.val_sum, trace.val_n, out=np.zeros(len(boxes)),
            where=trace.val_n > 0))
    if x_val is None:
        x_val, y_val = x, y

    val_means_arr = np.array(val_means)
    chosen = int(np.argmax(val_means_arr))

    if paste and chosen > 0:
        pasted = _paste(x, y, boxes[chosen], alpha, chosen_mean=train_means[chosen])
        if pasted is not None:
            boxes[chosen] = pasted
            inside = pasted.contains(x)
            train_means[chosen] = _mean(y[inside])
            train_support[chosen] = int(inside.sum())
            inside_val = pasted.contains(x_val)
            val_means_arr[chosen] = _mean(y_val[inside_val])

    return PRIMResult(
        boxes=boxes,
        train_means=np.array(train_means),
        train_support=np.array(train_support, dtype=np.int64),
        val_means=val_means_arr,
        chosen=chosen,
    )


def _peel_reference(x, y, x_val, y_val, alpha, min_support, objective,
                    cat_cols):
    """The per-candidate masking peel loop: boxes and per-box statistics."""
    if x_val is None:
        x_val, y_val = x, y
    box = Hyperbox.unrestricted(x.shape[1])
    in_box = np.arange(len(x))
    in_val = np.arange(len(x_val))

    boxes = [box]
    train_means = [_mean(y)]
    train_support = [len(x)]
    val_means = [_mean(y_val)]

    total_mean = _mean(y)
    total_n = len(y)
    while True:
        step = _best_peel(x, y, in_box, alpha, objective, total_mean,
                          total_n, cat_cols)
        if step is None:
            break
        new_in_box = in_box[step.keep_mask]
        if step.new_cats is not None:
            new_box = box.with_cats(step.dim, step.new_cats)
        else:
            new_box = box.replace(step.dim, lower=step.new_lower,
                                  upper=step.new_upper)
        # A peel only tightens one dimension, and in_val already
        # satisfies the current box, so one column check updates
        # membership (set membership for a categorical peel).
        if step.new_cats is not None:
            new_in_val = in_val[cat_mask(x_val[in_val, step.dim],
                                         step.new_cats)]
        elif step.new_lower is not None:
            new_in_val = in_val[x_val[in_val, step.dim] >= step.new_lower]
        else:
            new_in_val = in_val[x_val[in_val, step.dim] <= step.new_upper]
        if len(new_in_box) < min_support or len(new_in_val) < min_support:
            break

        box, in_box, in_val = new_box, new_in_box, new_in_val
        boxes.append(box)
        train_means.append(_mean(y[in_box]))
        train_support.append(len(in_box))
        val_means.append(_mean(y_val[in_val]))
    return boxes, train_means, train_support, val_means


@dataclass(frozen=True)
class _PeelStep:
    dim: int
    new_lower: float | None
    new_upper: float | None
    keep_mask: np.ndarray
    score: float
    new_cats: tuple | None = None


# Shared with the vectorized kernel so both engines score candidates
# through the same formulas.
_peel_score = _kernels.peel_score


def _best_peel(x: np.ndarray, y: np.ndarray, in_box: np.ndarray,
               alpha: float, objective: str = "mean",
               total_mean: float = 0.0, total_n: int = 1,
               cat_cols: frozenset = frozenset()) -> _PeelStep | None:
    """The best-scoring candidate peel across all faces, or None.

    For each numeric input, the candidate cuts remove the points below
    the alpha-quantile or above the (1-alpha)-quantile of the in-box
    values (ties at the quantile stay inside, as in the reference
    implementation).  When more than an alpha share of points ties at
    the extreme value — the discrete-input case — the cut falls back to
    removing that entire level.  Inputs listed in ``cat_cols`` generate
    one candidate per in-box category (ascending code order), each
    removing that category — Friedman & Fisher's categorical peel.
    Candidates that remove nothing or everything are invalid.
    """
    y_box = y[in_box]
    n = len(in_box)
    mean_before = float(y_box.mean()) if n else 0.0
    best: _PeelStep | None = None
    for dim in range(x.shape[1]):
        values = x[in_box, dim]

        if dim in cat_cols:
            levels = np.unique(values)
            if len(levels) < 2:
                continue  # a single remaining level cannot be peeled
            for code in levels:
                keep = values != code
                kept = int(keep.sum())
                mean_after = float(y_box[keep].mean())
                score = _peel_score(objective, mean_after, kept, n,
                                    mean_before, total_mean, total_n)
                if best is None or score > best.score:
                    best = _PeelStep(
                        dim=dim, new_lower=None, new_upper=None,
                        keep_mask=keep, score=score,
                        new_cats=tuple(float(lv) for lv in levels
                                       if lv != code),
                    )
            continue

        low_q, high_q = np.quantile(values, (alpha, 1.0 - alpha))

        for is_lower, bound in ((True, low_q), (False, high_q)):
            keep = values >= bound if is_lower else values <= bound
            kept = int(keep.sum())
            if kept == n:
                # Tie fallback: peel the whole extreme level.
                if is_lower:
                    keep = values > values.min()
                    if not keep.any():
                        continue
                    bound = float(values[keep].min())
                else:
                    keep = values < values.max()
                    if not keep.any():
                        continue
                    bound = float(values[keep].max())
                kept = int(keep.sum())
            if kept == n or kept == 0:
                continue
            mean_after = float(y_box[keep].mean())
            score = _peel_score(objective, mean_after, kept, n,
                                mean_before, total_mean, total_n)
            if best is None or score > best.score:
                best = _PeelStep(
                    dim=dim,
                    new_lower=float(bound) if is_lower else None,
                    new_upper=None if is_lower else float(bound),
                    keep_mask=keep,
                    score=score,
                )
    return best


def _paste(x: np.ndarray, y: np.ndarray, box: Hyperbox, alpha: float,
           chosen_mean: float) -> Hyperbox | None:
    """Friedman & Fisher's pasting: greedily re-expand box faces.

    Repeatedly tries to widen each face so that about ``alpha * n`` new
    points enter; the expansion with the best resulting mean is kept
    while the mean does not decrease.  Returns the expanded box, or
    None if no expansion was accepted.
    """
    current = box
    current_mean = chosen_mean
    improved_any = False
    for _ in range(100):  # hard cap; each iteration grows the box
        inside = current.contains(x)
        n_inside = int(inside.sum())
        if n_inside == 0:
            break
        n_add = max(1, int(round(alpha * n_inside)))

        best_box: Hyperbox | None = None
        best_mean = current_mean
        for dim in range(x.shape[1]):
            others = _contains_except(x, current, dim)
            values = x[:, dim]
            allowed = current.cat_restriction(dim)
            if allowed is not None:
                # Categorical paste: one candidate per re-admittable
                # category (present in the others-mask rows but not
                # currently allowed), ascending code order.
                excluded = others & ~cat_mask(values, allowed)
                for code in np.unique(values[excluded]):
                    candidate_box = current.with_cats(
                        dim, allowed | {float(code)})
                    mean = _mean(y[candidate_box.contains(x)])
                    if mean > best_mean:
                        best_mean = mean
                        best_box = candidate_box
                continue
            for side in ("lower", "upper"):
                bound = current.lower[dim] if side == "lower" else current.upper[dim]
                if not np.isfinite(bound):
                    continue
                if side == "lower":
                    outside = others & (values < bound)
                    if not outside.any():
                        continue
                    candidates = np.sort(values[outside])[::-1]
                    new_bound = candidates[min(n_add, len(candidates)) - 1]
                    candidate_box = current.replace(dim, lower=float(new_bound))
                else:
                    outside = others & (values > bound)
                    if not outside.any():
                        continue
                    candidates = np.sort(values[outside])
                    new_bound = candidates[min(n_add, len(candidates)) - 1]
                    candidate_box = current.replace(dim, upper=float(new_bound))
                mean = _mean(y[candidate_box.contains(x)])
                if mean > best_mean:
                    best_mean = mean
                    best_box = candidate_box
        if best_box is None:
            break
        current, current_mean = best_box, best_mean
        improved_any = True
    return current if improved_any else None
