"""Microbenchmark: sort-once BI kernel and batched box evaluation.

Three legs:

* **beam search** — one BestInterval beam search on N = 10000, M = 10
  synthetic data under both engines; the acceptance bar is a >= 5x
  speedup of the sort-once/memoized kernel over the per-call
  re-sorting reference, with identical results.
* **depth search** — ``optimize_bi_depth`` (the "c" BI methods' 5-fold
  search over ``m``) on ``borehole``, N = 400, training sets 3-5,
  against a loop of one vectorized ``best_interval`` per (m, fold), as
  the search ran before one refiner served every depth of a fold.
  Both must give identical per-(m, fold) scores and the same ``m``;
  the floor is >= 2x on the summed searches (the median ratio of
  alternating loop/search pairs).
* **box evaluation** — the batched box-evaluation layer against the
  per-box masking loops it replaced in Algorithm 2's precision/recall
  pass and Pareto filter, with identical statistics.

Machine-readable results land in
``benchmarks/results/BENCH_bi_kernel.json`` (the two BI legs) and
``BENCH_box_eval_batch.json``, mirrored to the tracked repo-root
``results/`` so the perf trajectory is tracked across commits.
"""

import time

import numpy as np

from _common import emit, emit_json
from repro.core.hyperparams import (CV_FOLDS, _best, _depth_scores,
                                    depth_grid, optimize_bi_depth)
from repro.data import get_model
from repro.experiments.harness import make_train_data
from repro.metamodels.tuning import KFold
from repro.metrics.quality import wracc_score
from repro.subgroup._kernels import evaluate_boxes
from repro.subgroup.best_interval import best_interval
from repro.subgroup.bumping import (
    _pareto_front_reference,
    _precision_recall,
    pareto_front,
    prim_bumping,
)
from repro.subgroup.box import Hyperbox

N, M = 10_000, 10
BEAM_SIZE = 5
REPEATS = 5

BI_SPEEDUP_FLOOR = 5.0
BOX_EVAL_SPEEDUP_FLOOR = 3.0

#: Engines timed in the beam-search comparison.
TIMED_ENGINES = ("reference", "vectorized")

#: The depth-search leg: BI's m search on the paper's training sets.
SEARCH_FUNCTION, SEARCH_N, SEARCH_SEEDS = "borehole", 400, (3, 4, 5)
SEARCH_PAIRS = 15
DEPTH_SEARCH_FLOOR = 2.0

#: Legs of ``BENCH_bi_kernel.json``, filled as the tests run.
LEGS: dict = {}


def _best_of(f, repeats=REPEATS):
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _dataset():
    rng = np.random.default_rng(7)
    x = rng.random((N, M))
    y = ((x[:, 0] > 0.3) & (x[:, 1] < 0.7) & (x[:, 2] > 0.2)
         & (x[:, 3] < 0.8) & (x[:, 4] > 0.15)).astype(float)
    return x, y


def test_bi_kernel_speedup(benchmark):
    x, y = _dataset()

    def run():
        times, results = {}, {}
        for engine in TIMED_ENGINES:
            times[engine], results[engine] = _best_of(
                lambda engine=engine: best_interval(
                    x, y, beam_size=BEAM_SIZE, engine=engine))
        return times, results

    times, results = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = times["reference"] / times["vectorized"]

    lines = [
        f"BestInterval engines, N={N}, M={M}, beam={BEAM_SIZE} "
        f"(best of {REPEATS}):",
        f"  reference   {times['reference'] * 1e3:8.1f} ms",
        f"  vectorized  {times['vectorized'] * 1e3:8.1f} ms",
        f"  speedup     {speedup:8.2f} x",
    ]
    emit("bi_kernel", "\n".join(lines))
    LEGS["beam_search"] = {
        "n": N, "m": M, "beam_size": BEAM_SIZE, "repeats": REPEATS,
        "engines": list(TIMED_ENGINES),
        **{f"{engine}_seconds": times[engine] for engine in TIMED_ENGINES},
        "speedup": speedup, "floor": BI_SPEEDUP_FLOOR,
        "floor_asserted": True, "floor_met": speedup >= BI_SPEEDUP_FLOOR,
    }
    emit_json("BENCH_bi_kernel", {"legs": LEGS})

    ref, vec = results["reference"], results["vectorized"]
    np.testing.assert_array_equal(ref.box.lower, vec.box.lower)
    np.testing.assert_array_equal(ref.box.upper, vec.box.upper)
    assert ref.wracc == vec.wracc
    assert ref.n_iterations == vec.n_iterations
    assert speedup >= BI_SPEEDUP_FLOOR, \
        f"sort-once BI kernel only {speedup:.2f}x faster"


def _per_call_scores(x, y, grid, folds):
    """Test-fold WRAcc of every (m, fold), one fresh search each."""
    return [[wracc_score(best_interval(x[train], y[train], depth=m).box,
                         x[test], y[test])
             for train, test in folds] for m in grid]


def test_bi_depth_search_speedup(benchmark):
    model = get_model(SEARCH_FUNCTION)
    sets = [make_train_data(model, SEARCH_N, seed) for seed in SEARCH_SEEDS]

    def per_call():
        chosen = []
        for x, y in sets:
            grid = depth_grid(x.shape[1])
            folds = list(KFold(CV_FOLDS, 0).split(len(x)))
            chosen.append(_best(grid, _per_call_scores(x, y, grid, folds)))
        return chosen

    def search():
        return [optimize_bi_depth(x, y) for x, y in sets]

    def run():
        # The two sides alternate in pairs, so host-speed drift hits
        # both sides of a pair alike.
        times, chosen = {"per_call": [], "search": []}, {}
        for _ in range(SEARCH_PAIRS):
            for name, f in (("per_call", per_call), ("search", search)):
                t0 = time.perf_counter()
                chosen[name] = f()
                times[name].append(time.perf_counter() - t0)
        return times, chosen

    pairs, chosen = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = float(np.median(np.divide(pairs["per_call"], pairs["search"])))
    times = {name: float(np.median(seconds))
             for name, seconds in pairs.items()}

    for x, y in sets:
        grid = depth_grid(x.shape[1])
        folds = list(KFold(CV_FOLDS, 0).split(len(x)))
        assert (_depth_scores(x, y, grid, folds, 1, "vectorized")
                == _per_call_scores(x, y, grid, folds)), "m CV scores differ"
    assert chosen["search"] == chosen["per_call"], "chosen m differs"

    emit("bi_depth_search", "\n".join([
        f"BI depth search, {SEARCH_FUNCTION} N={SEARCH_N}, training sets "
        f"{SEARCH_SEEDS} (median of {SEARCH_PAIRS} alternating pairs):",
        f"  per-call loop  {times['per_call'] * 1e3:8.1f} ms",
        f"  shared refiner {times['search'] * 1e3:8.1f} ms",
        f"  speedup        {speedup:8.2f} x (median of the pairs' ratios)",
    ]))
    LEGS["depth_search"] = {
        "function": SEARCH_FUNCTION, "n": SEARCH_N,
        "training_sets": list(SEARCH_SEEDS), "pairs": SEARCH_PAIRS,
        "per_call_seconds": times["per_call"],
        "search_seconds": times["search"],
        "speedup": speedup, "floor": DEPTH_SEARCH_FLOOR,
        "chosen": chosen["search"], "outputs_identical": True,
        "floor_asserted": True, "floor_met": speedup >= DEPTH_SEARCH_FLOOR,
    }
    emit_json("BENCH_bi_kernel", {"legs": LEGS})
    assert speedup >= DEPTH_SEARCH_FLOOR, (
        f"shared-refiner depth search only {speedup:.2f}x faster")


def test_box_evaluation_batch_speedup(benchmark):
    """Batched precision/recall + Pareto vs the per-box loops."""
    x, y = _dataset()
    rng = np.random.default_rng(0)

    # A realistic pooled-box population: the trajectories of a few
    # bumping repeats, as Algorithm 2's evaluation pass sees them.
    result = prim_bumping(x, y, n_repeats=3, rng=rng)
    boxes = list(result.boxes)
    gen = np.random.default_rng(5)
    while len(boxes) < 600:
        box = Hyperbox.unrestricted(M)
        for j in range(M):
            if gen.random() < 0.4:
                lo, hi = np.sort(gen.random(2))
                box = box.replace(j, lower=lo, upper=hi)
        boxes.append(box)
    total_pos = float(y.sum())

    def loop_pass():
        stats = np.array([
            _precision_recall(box, x, y, total_pos) for box in boxes
        ])
        return stats, _pareto_front_reference(stats)

    def batched_pass():
        evaluation = evaluate_boxes(boxes, x, y)
        stats = np.column_stack(evaluation.precision_recall())
        return stats, pareto_front(stats)

    def run():
        loop_time, (loop_stats, loop_front) = _best_of(loop_pass, repeats=3)
        batch_time, (batch_stats, batch_front) = _best_of(batched_pass,
                                                          repeats=3)
        return loop_time, batch_time, (loop_stats, loop_front), \
            (batch_stats, batch_front)

    loop_time, batch_time, loop_out, batch_out = benchmark.pedantic(
        run, rounds=1, iterations=1)
    speedup = loop_time / batch_time

    emit("box_eval_batch", "\n".join([
        f"Box-evaluation pass, {len(boxes)} boxes on N={N}, M={M} "
        "(precision/recall + Pareto, best of 3):",
        f"  per-box loops  {loop_time * 1e3:8.1f} ms",
        f"  batched kernel {batch_time * 1e3:8.1f} ms",
        f"  speedup        {speedup:8.2f} x",
    ]))
    emit_json("BENCH_box_eval_batch", {
        "n": N, "m": M, "n_boxes": len(boxes),
        "loop_seconds": loop_time,
        "batched_seconds": batch_time,
        "speedup": speedup,
        "speedup_floor": BOX_EVAL_SPEEDUP_FLOOR,
    })

    np.testing.assert_array_equal(loop_out[0], batch_out[0])
    np.testing.assert_array_equal(loop_out[1], batch_out[1])
    assert speedup >= BOX_EVAL_SPEEDUP_FLOOR, \
        f"batched box evaluation only {speedup:.2f}x faster"
