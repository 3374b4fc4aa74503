"""Quality measures for scenarios (Section 4 of the paper).

Standard subgroup measures (precision, recall, WRAcc, #restricted) plus
the three the paper introduces: number of irrelevantly restricted
inputs, consistency (expected overlap/union volume ratio across runs),
and PR AUC of a peeling trajectory.
"""

from repro.metrics.quality import (
    precision,
    recall,
    precision_recall,
    wracc_score,
    n_restricted,
    n_irrelevant,
)
from repro.metrics.trajectory import peeling_trajectory, pr_auc, trajectory_of
from repro.metrics.consistency import box_consistency, pairwise_consistency

__all__ = [
    "precision",
    "recall",
    "precision_recall",
    "wracc_score",
    "n_restricted",
    "n_irrelevant",
    "peeling_trajectory",
    "pr_auc",
    "trajectory_of",
    "box_consistency",
    "pairwise_consistency",
]
