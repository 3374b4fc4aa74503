"""Benchmark: grouped, fold-lockstep CV in metamodel tuning.

Times ``tune_metamodel`` on the paper cell's training set
(``borehole``, N = 400, M = 8, 5 folds) against the search it replaced:
one :func:`cross_val_accuracy` run per candidate, then a refit of the
most accurate one.  Both searches are timed as a whole and split into
their two stages: the cross-validation that scores the grid, and the
refit of the chosen configuration on all rows (the same code in both
searches).  Two families run:

* **boosting**, the default depth {2, 4} x rounds {60, 150} grid.  The
  replaced search fits every (candidate, fold) pair from scratch, 2250
  trees in all; the grouped search grows one chain per (depth, fold)
  to 150 rounds, snapshots the 60-round labels on the way, and grows
  the five fold chains of a depth as one block per round.  Its floor
  is on the whole search.
* **forest**, the default ``max_features`` grid ({2, 5} at M = 8, 100
  trees).  The grouped search grows the five fold forests of a
  candidate together in row-budget blocks (about 2^15 bootstrap rows,
  102 trees of a 320-row fold) that span folds, and labels each fold's
  held-out rows with one walk over its trees.  It runs against two
  per-(candidate, fold) loops: the replaced search, whose forest
  kernel grew fixed blocks of 16 trees (emulated by a 16-tree row
  budget), and the same loop on today's kernel, which already grows
  each fold's 100 trees as one block.  The floor is on the CV stage
  against the replaced search; the second ratio, the share of fold
  lockstep alone (shared ranks, fewer blocks, no per-fold stacked
  ensemble), is recorded without a floor.

Every run doubles as an equivalence check: the per-candidate
accuracies of :func:`grid_accuracies` must equal the per-candidate loop
float for float, and both searches must pick the same configuration.
Both floors are asserted on every runner (both searches are numpy on
one core); the tracked JSON records ``floor_asserted`` and whether each
floor was met.  Results land in ``benchmarks/results/BENCH_tune_kernel.json``
and are mirrored to the tracked repo-root ``results/``.
"""

import contextlib
import time

import numpy as np

from _common import emit, emit_json
from repro.data import get_model
from repro.metamodels import _kernels
from repro.experiments.harness import make_train_data
from repro.metamodels.tuning import (
    DEFAULT_GRIDS,
    cross_val_accuracy,
    grid_accuracies,
    make_metamodel,
    tune_metamodel,
)

FUNCTION, N, SEED = "borehole", 400, 0
REPEATS = 2
FOREST_REPEATS = 3

#: Speedup floor of the grouped boosting search over the per-candidate
#: loop.  Measured 2.5-2.6x on a shared 2-CPU x86_64 host; the floor
#: keeps ~20% headroom for runner noise.
TUNE_FLOOR = 2.0

#: CV-stage speedup floor of the grouped forest search over the
#: replaced 16-tree-block loop.  Measured 1.5-1.8x on a shared 2-CPU
#: x86_64 host.
FOREST_CV_FLOOR = 1.3

#: Trees per block of the replaced forest kernel.
OLD_FOREST_BLOCK = 16


def _per_candidate_search(kind, x, y, grid):
    """The replaced search: one CV loop per candidate, then a refit."""
    return _search(kind, x, y, grid, lambda: [
        cross_val_accuracy(lambda p=params: make_metamodel(kind, **p), x, y)
        for params in grid
    ])


def _grouped_search(kind, x, y, grid):
    """``tune_metamodel``'s search: grouped CV, then the same refit."""
    return _search(kind, x, y, grid,
                   lambda: grid_accuracies(kind, x, y, grid))


def _search(kind, x, y, grid, cross_validate):
    """``(accuracies, model, cv_seconds, refit_seconds)`` of one search."""
    t0 = time.perf_counter()
    accuracies = cross_validate()
    t1 = time.perf_counter()
    best = int(np.argmax(accuracies))
    model = make_metamodel(kind, **grid[best]).fit(x, y)
    return accuracies, model, t1 - t0, time.perf_counter() - t1


def _seconds(runs):
    """Best total, CV and refit seconds over repeated searches."""
    return (min(r[2] + r[3] for r in runs), min(r[2] for r in runs),
            min(r[3] for r in runs))


@contextlib.contextmanager
def _tree_blocks(trees, n_samp):
    """Grow forests of ``n_samp``-row samples in blocks of ``trees`` trees."""
    saved = _kernels._FOREST_BLOCK_ROWS
    _kernels._FOREST_BLOCK_ROWS = trees * n_samp
    try:
        yield
    finally:
        _kernels._FOREST_BLOCK_ROWS = saved


def _compare(kind, x, y, repeats):
    """Alternating per-candidate and grouped searches of one family.

    Forests also run the per-candidate loop in the replaced kernel's
    16-tree blocks, first in each repeat.
    """
    grid = DEFAULT_GRIDS[kind](x.shape[1])
    fold_rows = len(x) - len(x) // 5
    replaced_runs, old_runs, new_runs = [], [], []
    for _ in range(repeats):
        if kind == "forest":
            with _tree_blocks(OLD_FOREST_BLOCK, fold_rows):
                replaced_runs.append(_per_candidate_search(kind, x, y, grid))
        old_runs.append(_per_candidate_search(kind, x, y, grid))
        new_runs.append(_grouped_search(kind, x, y, grid))
    return grid, replaced_runs, old_runs, new_runs


def test_tune_kernel_speedup(benchmark):
    x, y = make_train_data(get_model(FUNCTION), N, SEED)

    def run():
        return (_compare("boosting", x, y, REPEATS),
                _compare("forest", x, y, FOREST_REPEATS))

    boosting, forest = benchmark.pedantic(run, rounds=1, iterations=1)

    grid, _, old_runs, new_runs = boosting
    oracle, old_model = old_runs[-1][:2]
    accuracies, new_model = new_runs[-1][:2]
    old_s, old_cv, old_refit = _seconds(old_runs)
    new_s, new_cv, new_refit = _seconds(new_runs)
    tuned = tune_metamodel("boosting", x, y)
    speedup = old_s / new_s
    chosen = {"max_depth": new_model.max_depth, "n_rounds": new_model.n_rounds}

    f_grid, f_replaced_runs, f_old_runs, f_new_runs = forest
    f_oracle, f_old_model = f_old_runs[-1][:2]
    f_accuracies, f_new_model = f_new_runs[-1][:2]
    f_replaced_cv = _seconds(f_replaced_runs)[1]
    _, f_old_cv, f_old_refit = _seconds(f_old_runs)
    _, f_new_cv, f_new_refit = _seconds(f_new_runs)
    f_tuned = tune_metamodel("forest", x, y)
    f_speedup = f_replaced_cv / f_new_cv
    f_lockstep = f_old_cv / f_new_cv

    emit("tune_kernel", "\n".join([
        f"Boosting tuning, {FUNCTION} N={N}, grid {grid} "
        f"(best of {REPEATS}):",
        f"  per-candidate CV + refit {old_s * 1e3:8.0f} ms   "
        f"(CV {old_cv * 1e3:.0f} ms, refit {old_refit * 1e3:.0f} ms)",
        f"  grouped lockstep search  {new_s * 1e3:8.0f} ms   "
        f"(CV {new_cv * 1e3:.0f} ms, refit {new_refit * 1e3:.0f} ms)   "
        f"{speedup:5.2f} x (floor {TUNE_FLOOR})",
        f"  accuracies {accuracies}, chosen {chosen}",
        f"Forest tuning, {FUNCTION} N={N}, grid {f_grid} "
        f"(best of {FOREST_REPEATS}):",
        f"  per-candidate CV, {OLD_FOREST_BLOCK}-tree blocks "
        f"{f_replaced_cv * 1e3:8.0f} ms",
        f"  per-candidate CV, row-budget blocks "
        f"{f_old_cv * 1e3:6.0f} ms   (refit {f_old_refit * 1e3:.0f} ms)",
        f"  fold-lockstep CV {f_new_cv * 1e3:25.0f} ms   "
        f"(refit {f_new_refit * 1e3:.0f} ms)   "
        f"{f_speedup:5.2f} x (floor {FOREST_CV_FLOOR}), "
        f"{f_lockstep:5.2f} x over row-budget blocks",
        f"  accuracies {f_accuracies}, "
        f"chosen max_features={f_new_model.max_features}",
    ]))
    emit_json("BENCH_tune_kernel", {
        "function": FUNCTION, "n": N, "m": int(x.shape[1]), "seed": SEED,
        "grid": grid, "n_splits": 5, "repeats": REPEATS,
        "per_candidate_seconds": old_s,
        "grouped_seconds": new_s,
        "per_candidate_cv_seconds": old_cv,
        "per_candidate_refit_seconds": old_refit,
        "grouped_cv_seconds": new_cv,
        "grouped_refit_seconds": new_refit,
        "speedup": speedup,
        "accuracies": accuracies,
        "accuracies_identical": accuracies == oracle,
        "chosen": chosen,
        "floor": TUNE_FLOOR,
        "floor_asserted": True,
        "floor_met": speedup >= TUNE_FLOOR,
        "forest_grid": f_grid,
        "forest_repeats": FOREST_REPEATS,
        "forest_old_block_trees": OLD_FOREST_BLOCK,
        "forest_replaced_cv_seconds": f_replaced_cv,
        "forest_per_candidate_cv_seconds": f_old_cv,
        "forest_per_candidate_refit_seconds": f_old_refit,
        "forest_grouped_cv_seconds": f_new_cv,
        "forest_grouped_refit_seconds": f_new_refit,
        "forest_cv_speedup": f_speedup,
        "forest_lockstep_cv_speedup": f_lockstep,
        "forest_accuracies": f_accuracies,
        "forest_accuracies_identical": f_accuracies == f_oracle,
        "forest_chosen": {"max_features": f_new_model.max_features},
        "forest_cv_floor": FOREST_CV_FLOOR,
        "forest_floor_met": f_speedup >= FOREST_CV_FLOOR,
    })

    assert accuracies == oracle
    assert (old_model.max_depth, old_model.n_rounds) == \
        (new_model.max_depth, new_model.n_rounds) == \
        (tuned.max_depth, tuned.n_rounds)
    assert f_accuracies == f_oracle == f_replaced_runs[-1][0]
    assert f_old_model.max_features == f_new_model.max_features \
        == f_tuned.max_features
    assert speedup >= TUNE_FLOOR
    assert f_speedup >= FOREST_CV_FLOOR
