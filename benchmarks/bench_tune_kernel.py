"""Benchmark: prefix-sharing, fold-lockstep boosting CV in metamodel tuning.

Times ``tune_metamodel("boosting")`` on the paper cell's training set
(``borehole``, N = 400, M = 8, the default depth {2, 4} x rounds
{60, 150} grid, 5 folds) against the search it replaced: one
:func:`cross_val_accuracy` run per candidate, then a refit of the most
accurate one.  The replaced search fits every (candidate, fold) pair
from scratch, 2250 trees in all; the grouped search grows one chain per
(depth, fold) to 150 rounds, snapshots the 60-round labels on the way,
and grows the five fold chains of a depth as one block per round.
Both searches are timed as a whole and split into their two stages:
the cross-validation that scores the grid, and the refit of the chosen
configuration on all rows (a single 150-round chain, the same code in
both searches).

Every run doubles as an equivalence check: the per-candidate
accuracies of :func:`grid_accuracies` must equal the per-candidate loop
float for float, and both searches must pick the same configuration.
The >= 2x floor is asserted on every runner (both searches are numpy on
one core); the tracked JSON records ``floor_asserted`` and whether the
floor was met.  Results land in ``benchmarks/results/BENCH_tune_kernel.json``
and are mirrored to the tracked repo-root ``results/``.
"""

import time

import numpy as np

from _common import emit, emit_json
from repro.data import get_model
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

#: Speedup floor of the grouped search over the per-candidate loop.
#: Measured 2.5-2.6x on a shared 2-CPU x86_64 host; the floor keeps
#: ~20% headroom for runner noise.
TUNE_FLOOR = 2.0


def _per_candidate_search(x, y, grid):
    """The replaced search: one CV loop per candidate, then a refit."""
    return _search(x, y, grid, lambda: [
        cross_val_accuracy(lambda p=params: make_metamodel("boosting", **p),
                           x, y)
        for params in grid
    ])


def _grouped_search(x, y, grid):
    """``tune_metamodel``'s search: grouped CV, then the same refit."""
    return _search(x, y, grid,
                   lambda: grid_accuracies("boosting", x, y, grid))


def _search(x, y, grid, cross_validate):
    """``(accuracies, model, cv_seconds, refit_seconds)`` of one search."""
    t0 = time.perf_counter()
    accuracies = cross_validate()
    t1 = time.perf_counter()
    best = int(np.argmax(accuracies))
    model = make_metamodel("boosting", **grid[best]).fit(x, y)
    return accuracies, model, t1 - t0, time.perf_counter() - t1


def _seconds(runs):
    """Best total, CV and refit seconds over repeated searches."""
    return (min(r[2] + r[3] for r in runs), min(r[2] for r in runs),
            min(r[3] for r in runs))


def test_tune_kernel_speedup(benchmark):
    x, y = make_train_data(get_model(FUNCTION), N, SEED)
    grid = DEFAULT_GRIDS["boosting"](x.shape[1])

    def run():
        return ([_per_candidate_search(x, y, grid) for _ in range(REPEATS)],
                [_grouped_search(x, y, grid) for _ in range(REPEATS)])

    old_runs, new_runs = benchmark.pedantic(run, rounds=1, iterations=1)
    oracle, old_model = old_runs[-1][:2]
    accuracies, new_model = new_runs[-1][:2]
    old_s, old_cv, old_refit = _seconds(old_runs)
    new_s, new_cv, new_refit = _seconds(new_runs)
    tuned = tune_metamodel("boosting", x, y)
    speedup = old_s / new_s
    chosen = {"max_depth": new_model.max_depth, "n_rounds": new_model.n_rounds}

    emit("tune_kernel", "\n".join([
        f"Boosting tuning, {FUNCTION} N={N}, grid {grid} "
        f"(best of {REPEATS}):",
        f"  per-candidate CV + refit {old_s * 1e3:8.0f} ms   "
        f"(CV {old_cv * 1e3:.0f} ms, refit {old_refit * 1e3:.0f} ms)",
        f"  grouped lockstep search  {new_s * 1e3:8.0f} ms   "
        f"(CV {new_cv * 1e3:.0f} ms, refit {new_refit * 1e3:.0f} ms)   "
        f"{speedup:5.2f} x (floor {TUNE_FLOOR})",
        f"  accuracies {accuracies}, chosen {chosen}",
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
    })

    assert accuracies == oracle
    assert (old_model.max_depth, old_model.n_rounds) == \
        (new_model.max_depth, new_model.n_rounds) == \
        (tuned.max_depth, tuned.n_rounds)
    assert speedup >= TUNE_FLOOR
