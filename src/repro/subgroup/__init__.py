"""Subgroup-discovery substrate: hyperboxes and the three algorithms.

Implements the algorithms of Section 3 of the paper, one module each:

* :mod:`repro.subgroup.box` — the hyperbox scenario representation
  (Section 3.1, Definition 2 volumes);
* :mod:`repro.subgroup.prim` — PRIM peeling/pasting (Algorithm 1),
  backed by the vectorized kernel in :mod:`repro.subgroup._kernels`;
* :mod:`repro.subgroup.index` — the sorted-column index the vectorized
  PRIM and BestInterval engines share;
* :mod:`repro.subgroup.bumping` — PRIM with bumping (Algorithm 2);
* :mod:`repro.subgroup.best_interval` — BestInterval beam search
  (Algorithm 3);
* :mod:`repro.subgroup.describe` — rule rendering for analysts
  (Section 5).
"""

from repro.subgroup.box import Hyperbox, cat_mask
from repro.subgroup.prim import PRIMResult, prim_peel, OBJECTIVES, ENGINES
from repro.subgroup.bumping import BumpingResult, pareto_front, prim_bumping
from repro.subgroup.best_interval import (
    BIResult,
    BI_ENGINES,
    best_interval,
    best_interval_for_dim,
)
from repro.subgroup._kernels import (
    BoxBatchEvaluation,
    SortedDataset,
    best_cat_subset,
    contains_many,
    evaluate_boxes,
)
from repro.subgroup.describe import (
    describe_box,
    describe_trajectory,
    summarize_box,
)

__all__ = [
    "Hyperbox",
    "cat_mask",
    "best_cat_subset",
    "PRIMResult",
    "prim_peel",
    "OBJECTIVES",
    "ENGINES",
    "BumpingResult",
    "pareto_front",
    "prim_bumping",
    "BIResult",
    "BI_ENGINES",
    "best_interval",
    "best_interval_for_dim",
    "BoxBatchEvaluation",
    "SortedDataset",
    "contains_many",
    "evaluate_boxes",
    "describe_box",
    "describe_trajectory",
    "summarize_box",
]
