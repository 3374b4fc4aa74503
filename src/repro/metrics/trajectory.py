"""Peeling trajectories and their PR AUC (Section 4, Figure 5).

A PRIM run yields nested boxes; evaluating each on test data gives a
curve in (recall, precision) space — the peeling trajectory.  The paper
ranks two algorithms by the area of figure ABEF / ACDF in Figure 5: the
region between the trajectory and the *precision* axis, i.e. the
integral of recall over precision from the common starting point A
(full box: recall 1, precision = base rate) to the trajectory's
high-precision end.  This scale reproduces the paper's reported values
(e.g. Table 5: "lake"/Pc has precision 0.974 and PR AUC 0.581, which is
the average recall ~0.91 times the precision span 0.974 - 0.335).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.subgroup._kernels import evaluate_boxes
from repro.subgroup.box import Hyperbox

__all__ = ["peeling_trajectory", "pr_auc", "trajectory_of"]


def peeling_trajectory(boxes: Sequence[Hyperbox], x: np.ndarray,
                       y: np.ndarray, *, jobs: int | None = 1) -> np.ndarray:
    """``(len(boxes), 2)`` array of (recall, precision) per box.

    One batched :func:`~repro.subgroup._kernels.evaluate_boxes` call:
    its per-box statistics go through the scalar
    :func:`~repro.metrics.quality.precision_recall` convention element
    for element, so every point is bit-identical to evaluating the box
    alone.  With ``jobs`` > 1 (or ``None`` for all CPUs) one contiguous
    box chunk per worker fans out over the plan engine of
    :mod:`repro.experiments.parallel`, the test arrays crossing process
    boundaries zero-copy through the data plane — the knob a budgeted
    grid task threads its worker lease into when evaluating a long
    trajectory on a large test set.  ``boxes`` may also be a
    :class:`~repro.subgroup._kernels.BoxStack`.
    """
    precisions, recalls = evaluate_boxes(boxes, x, y,
                                         jobs=jobs).precision_recall()
    return np.column_stack((recalls, precisions))


def pr_auc(trajectory: np.ndarray) -> float:
    """Area between a peeling trajectory and the precision axis.

    The trajectory is reduced to its upper envelope (best recall per
    precision level) and recall is integrated over precision with the
    trapezoidal rule between the trajectory's extreme precisions.  A
    trajectory that climbs to higher precision while losing little
    recall therefore scores higher — exactly the ranking the paper's
    Figure 5 construction encodes.  A single point yields the rectangle
    ``precision * recall`` so that degenerate one-box outputs (e.g. a
    collapsed bumping Pareto set) still rank sensibly.
    """
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 2 or trajectory.shape[1] != 2:
        raise ValueError(f"trajectory must be (k, 2), got {trajectory.shape}")
    if len(trajectory) == 0:
        return 0.0

    # Sort by precision, collapse duplicate precisions to max recall.
    precisions = trajectory[:, 1]
    recalls = trajectory[:, 0]
    unique_precisions, inverse = np.unique(precisions, return_inverse=True)
    best_recall = np.zeros(len(unique_precisions))
    np.maximum.at(best_recall, inverse, recalls)

    if len(unique_precisions) == 1:
        return float(unique_precisions[0] * best_recall[0])
    return float(np.trapezoid(best_recall, unique_precisions))


def trajectory_of(boxes: Sequence[Hyperbox], x: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, float]:
    """Convenience: trajectory points and their PR AUC in one call."""
    points = peeling_trajectory(boxes, x, y)
    return points, pr_auc(points)
