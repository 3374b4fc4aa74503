"""Benchmark: prefix-sharing, fold-lockstep boosting CV in metamodel tuning.

Times ``tune_metamodel("boosting")`` on the paper cell's training set
(``borehole``, N = 400, M = 8, the default depth {2, 4} x rounds
{60, 150} grid, 5 folds) against the search it replaced: one
:func:`cross_val_accuracy` run per candidate, then a refit of the most
accurate one.  The replaced search fits every (candidate, fold) pair
from scratch, 2250 trees in all; the grouped search grows one chain per
(depth, fold) to 150 rounds, snapshots the 60-round labels on the way,
and grows the five fold chains of a depth as one block per round.

Every run doubles as an equivalence check: the per-candidate
accuracies of :func:`grid_accuracies` must equal the per-candidate loop
float for float, and both searches must pick the same configuration.
The >= 2x floor is asserted on every runner (both searches are numpy on
one core); the tracked JSON records ``floor_asserted`` and whether the
floor was met.  Results land in ``benchmarks/results/BENCH_tune_kernel.json``
and are mirrored to the tracked repo-root ``results/``.
"""

import numpy as np

from _common import best_of as _best_of, emit, emit_json
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
    accuracies = [
        cross_val_accuracy(lambda p=params: make_metamodel("boosting", **p),
                           x, y)
        for params in grid
    ]
    best = int(np.argmax(accuracies))
    return accuracies, make_metamodel("boosting", **grid[best]).fit(x, y)


def test_tune_kernel_speedup(benchmark):
    x, y = make_train_data(get_model(FUNCTION), N, SEED)
    grid = DEFAULT_GRIDS["boosting"](x.shape[1])

    def run():
        old_s, (oracle, old_model) = _best_of(
            lambda: _per_candidate_search(x, y, grid), REPEATS)
        new_s, new_model = _best_of(
            lambda: tune_metamodel("boosting", x, y), REPEATS)
        return old_s, new_s, oracle, old_model, new_model

    old_s, new_s, oracle, old_model, new_model = benchmark.pedantic(
        run, rounds=1, iterations=1)
    accuracies = grid_accuracies("boosting", x, y, grid)
    speedup = old_s / new_s
    chosen = {"max_depth": new_model.max_depth, "n_rounds": new_model.n_rounds}

    emit("tune_kernel", "\n".join([
        f"Boosting tuning, {FUNCTION} N={N}, grid {grid} "
        f"(best of {REPEATS}):",
        f"  per-candidate CV + refit {old_s * 1e3:8.0f} ms",
        f"  grouped lockstep search  {new_s * 1e3:8.0f} ms   "
        f"{speedup:5.2f} x (floor {TUNE_FLOOR})",
        f"  accuracies {accuracies}, chosen {chosen}",
    ]))
    emit_json("BENCH_tune_kernel", {
        "function": FUNCTION, "n": N, "m": int(x.shape[1]), "seed": SEED,
        "grid": grid, "n_splits": 5, "repeats": REPEATS,
        "per_candidate_seconds": old_s,
        "grouped_seconds": new_s,
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
        (new_model.max_depth, new_model.n_rounds)
    assert speedup >= TUNE_FLOOR
