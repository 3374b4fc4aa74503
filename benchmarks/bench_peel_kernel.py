"""Microbenchmark: lockstep peel kernel and parallel experiment engine.

Three legs:

* **one run** — one full PRIM peeling run on N = 10000, M = 10
  synthetic data under both engines.  The vectorized engine peels it
  as a one-run lockstep batch; the acceptance bar is >= 3x over the
  per-candidate masking reference (the median ratio of alternating
  reference/vectorized pairs), which guards the single-run path.
* **SD search** — the hyperparameter searches of the paper's "c"
  cells on ``borehole``, N = 400, training sets 3-5: ``optimize_alpha``
  (7 alphas x 5 folds), ``optimize_bumping_features`` at the chosen
  alpha (depth grid x 5 folds x Q = 10 repeats) and ``prim_bumping``
  with Q = 50 at the chosen alpha and m.  Each runs batched — every
  run of a search peeled as one lockstep batch — against a per-run
  loop that calls ``prim_peel`` once per run, as the searches did
  before batching.  Both must pick the same alpha and m from
  identical per-candidate CV scores and return identical fronts; the
  floor is >= 3x on the summed searches.  The leg also records the
  batched searches' microseconds per lockstep step.
* **shared pool** — REDS step 4 at one seed: RPx, RPxp, RPcx and RPf
  all peel the same drawn L = 10^5, M = 8 pool with their own labels.
  Four label vectors (two hard, two soft) are peeled one after the
  other with ``prim_peel``, cold and then inside one warm scope with
  the read-only pool named as REDS names it
  (:func:`repro.subgroup.index.named_pool`), where the first peel sorts
  the pool and the other three read its memoized column index
  (:func:`repro.subgroup.index.column_index`).  Boxes
  and statistics must be identical; the floor is >= 1.08x on the
  four-peel total (the median ratio of alternating cold/warm pairs).
* **pool peel** — REDS step 4's one-run peel at full scale: ``prim_peel``
  on an L = 10^5, M = 8 pool with a 400-row validation set, hard and
  soft labels, inside a warm scope with the pool named (the column
  index built once, as a session's sibling methods share it).  Boxes, supports, means and the
  chosen box must equal ``engine="reference"``; the leg records the
  median ms per peel and the steps, and the floor is >= 4x over the
  reference on the summed peels (the median ratio of alternating
  reference/vectorized pairs).  Each label kind also records its
  microseconds per peeling step.  The pool is the caller's array, so it
  is found in the memo by its content, as a caller's ``pool=`` is.
* **parallel harness** — a small ``run_batch`` grid serial vs fanned
  out over all CPUs (identical records asserted elsewhere).

The four kernel legs land in ``benchmarks/results/BENCH_peel_kernel.json``,
mirrored to the tracked repo-root ``results/``.
"""

import time

import numpy as np

from _common import emit, emit_json
from repro import warm
from repro.core.hyperparams import (ALPHA_GRID, CV_BUMPING_REPEATS, CV_FOLDS,
                                    _alpha_scores, _best, _feature_scores,
                                    depth_grid)
from repro.data import get_model
from repro.experiments.harness import make_train_data, run_batch
from repro.experiments.parallel import cpu_budget
from repro.metamodels.tuning import KFold
from repro.metrics.trajectory import trajectory_of
from repro.subgroup import _kernels
from repro.subgroup._kernels import BoxStack, evaluate_boxes
from repro.subgroup.bumping import (_embed_box, draw_repeats,
                                    pareto_trajectory, prim_bumping)
from repro.subgroup.index import named_pool
from repro.subgroup.prim import prim_peel

N, M = 10_000, 10
REPEATS = 5
ONE_RUN_PAIRS = 9

SEARCH_FUNCTION, SEARCH_N, SEARCH_SEEDS = "borehole", 400, (3, 4, 5)
SEARCH_REPEATS = 2
BUMPING_REPEATS = 50
MIN_SUPPORT = 20
POOL_N, POOL_M, POOL_VAL_N = 100_000, 8, 400
POOL_PAIRS = 7
POOL_PEEL_PAIRS = 5
#: Speedup floors: the one-run kernel over the masking reference, the
#: batched searches over the per-run loop, and four warm peels of one
#: pool over four cold ones.  A warm hit saves one column sort (about
#: 35-40 ms of a 145-220 ms peel on a 2-CPU x86_64 host), so the shared
#: pool measures 1.10-1.25x there; a memo that never hits measures
#: about 0.96x.
ONE_RUN_FLOOR = 3.0
SEARCH_FLOOR = 3.0
SHARED_POOL_FLOOR = 1.08
#: The warm L=10^5 one-run peel over the masking reference: 57-110 ms
#: against 0.50-0.65 s per peel (6.7-8.1x) on a 2-CPU x86_64 host.
POOL_PEEL_FLOOR = 4.0

#: Legs of the tracked JSON, filled in by the tests that run.
LEGS: dict = {}


def _best_of(f, repeats=REPEATS):
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = f()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_peel_kernel_speedup(benchmark):
    rng = np.random.default_rng(7)
    x = rng.random((N, M))
    y = ((x[:, 0] > 0.3) & (x[:, 1] < 0.7)).astype(float)

    def run():
        # The engines alternate in pairs, so host-speed drift hits both
        # sides of a pair alike.
        times, results = {"reference": [], "vectorized": []}, {}
        for _ in range(ONE_RUN_PAIRS):
            for engine in times:
                seconds, results[engine] = _best_of(
                    lambda engine=engine: prim_peel(x, y, engine=engine),
                    repeats=1)
                times[engine].append(seconds)
        return times, results

    pairs, results = benchmark.pedantic(run, rounds=1, iterations=1)
    times = {engine: min(seconds) for engine, seconds in pairs.items()}
    speedup = float(np.median(np.divide(pairs["reference"],
                                        pairs["vectorized"])))

    emit("peel_kernel", "\n".join([
        f"PRIM peeling engines, N={N}, M={M} "
        f"(best of {ONE_RUN_PAIRS} pairs):",
        f"  reference   {times['reference'] * 1e3:8.1f} ms",
        f"  vectorized  {times['vectorized'] * 1e3:8.1f} ms",
        f"  speedup     {speedup:8.2f} x (median of the pairs' ratios)",
    ]))

    ref, vec = results["reference"], results["vectorized"]
    assert ref.chosen == vec.chosen and len(ref.boxes) == len(vec.boxes)
    for a, b in zip(ref.boxes, vec.boxes):
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
    LEGS["one_run"] = {
        "n": N, "m": M, "pairs": ONE_RUN_PAIRS,
        "reference_seconds": times["reference"],
        "vectorized_seconds": times["vectorized"],
        "speedup": speedup, "floor": ONE_RUN_FLOOR,
        "floor_asserted": True, "floor_met": speedup >= ONE_RUN_FLOOR,
    }
    emit_json("BENCH_peel_kernel", {"legs": LEGS})
    assert speedup >= ONE_RUN_FLOOR, (
        f"vectorized kernel only {speedup:.2f}x faster")


# ----------------------------------------------------------------------
# SD-search leg: the per-run loops the searches replaced.
# ----------------------------------------------------------------------

def _per_run_front(x, y, alpha, m, n_repeats, rng):
    """``prim_bumping`` as one ``prim_peel`` call per repeat."""
    dim = x.shape[1]
    samples, subsets = draw_repeats(rng, len(x), dim, m, n_repeats)
    boxes = []
    for sample, subset in zip(samples, subsets):
        result = prim_peel(x[np.ix_(sample, subset)], y[sample], alpha=alpha,
                           min_support=MIN_SUPPORT)
        boxes.extend(_embed_box(b, subset, dim) for b in result.boxes)
    evaluation = evaluate_boxes(boxes, x, y)
    return pareto_trajectory(BoxStack.of(boxes), evaluation.n_inside,
                             evaluation.y_sums, len(y), float(y.sum()))


def _per_run_searches(x, y, seed):
    folds = list(KFold(CV_FOLDS, seed).split(len(x)))
    alpha_scores = [[trajectory_of(
        prim_peel(x[train], y[train], alpha=alpha,
                  min_support=MIN_SUPPORT).boxes, x[test], y[test])[1]
        for train, test in folds] for alpha in ALPHA_GRID]
    alpha = _best(ALPHA_GRID, alpha_scores)
    grid = depth_grid(x.shape[1])
    rng = np.random.default_rng(seed)
    feature_scores = [[trajectory_of(
        _per_run_front(x[train], y[train], alpha, m, CV_BUMPING_REPEATS,
                       rng)[0], x[test], y[test])[1]
        for train, test in folds] for m in grid]
    m = _best(grid, feature_scores)
    front = _per_run_front(x, y, alpha, m, BUMPING_REPEATS,
                           np.random.default_rng(seed))
    return alpha_scores, feature_scores, front


def _batched_searches(x, y, seed):
    folds = list(KFold(CV_FOLDS, seed).split(len(x)))
    alpha_scores = _alpha_scores(x, y, ALPHA_GRID, folds, MIN_SUPPORT,
                                 "vectorized")
    alpha = _best(ALPHA_GRID, alpha_scores)
    grid = depth_grid(x.shape[1])
    feature_scores = _feature_scores(
        x, y, alpha, grid, folds, np.random.default_rng(seed), MIN_SUPPORT,
        CV_BUMPING_REPEATS, "vectorized")
    m = _best(grid, feature_scores)
    result = prim_bumping(x, y, alpha=alpha, min_support=MIN_SUPPORT,
                          n_repeats=BUMPING_REPEATS, n_features=m,
                          rng=np.random.default_rng(seed))
    front = (BoxStack.of(result.boxes), result.precisions, result.recalls)
    return alpha_scores, feature_scores, front


def _lockstep_steps(f):
    """The lockstep steps (``_Lockstep.decide`` calls) ``f()`` runs."""
    decide = _kernels._Lockstep.decide
    steps = [0]

    def counting(batch):
        steps[0] += 1
        return decide(batch)

    _kernels._Lockstep.decide = counting
    try:
        f()
    finally:
        _kernels._Lockstep.decide = decide
    return steps[0]


def _front_key(front):
    stack, precisions, recalls = front
    return ([b.key() for b in stack.boxes()], precisions.tolist(),
            recalls.tolist())


def test_sd_search_speedup(benchmark):
    model = get_model(SEARCH_FUNCTION)
    sets = [make_train_data(model, SEARCH_N, seed) for seed in SEARCH_SEEDS]

    def run():
        times, outputs = {}, {}
        for name, search in (("per_run", _per_run_searches),
                             ("batched", _batched_searches)):
            times[name], outputs[name] = _best_of(
                lambda search=search: [search(x, y, seed) for (x, y), seed
                                       in zip(sets, SEARCH_SEEDS)],
                repeats=SEARCH_REPEATS)
        return times, outputs

    times, outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = times["per_run"] / times["batched"]
    steps = _lockstep_steps(lambda: [_batched_searches(x, y, seed) for (x, y),
                                     seed in zip(sets, SEARCH_SEEDS)])
    us_per_step = times["batched"] / steps * 1e6
    chosen = []
    for old, new in zip(outputs["per_run"], outputs["batched"]):
        assert old[0] == new[0], "alpha CV scores differ"
        assert old[1] == new[1], "m CV scores differ"
        assert _front_key(old[2]) == _front_key(new[2]), "fronts differ"
        chosen.append({"alpha": _best(ALPHA_GRID, new[0]),
                       "m": _best(depth_grid(len(new[2][0].lower[0])), new[1])})

    emit("sd_search", "\n".join([
        f"SD-hyperparameter searches, {SEARCH_FUNCTION} N={SEARCH_N}, "
        f"training sets {SEARCH_SEEDS} (best of {SEARCH_REPEATS}):",
        f"  per-run loop  {times['per_run']:8.3f} s",
        f"  batched       {times['batched']:8.3f} s "
        f"({steps} lockstep steps, {us_per_step:.0f} us per step)",
        f"  speedup       {speedup:8.2f} x",
    ]))
    LEGS["sd_search"] = {
        "function": SEARCH_FUNCTION, "n": SEARCH_N,
        "training_sets": list(SEARCH_SEEDS), "repeats": SEARCH_REPEATS,
        "bumping_repeats": BUMPING_REPEATS,
        "cv_bumping_repeats": CV_BUMPING_REPEATS,
        "per_run_seconds": times["per_run"],
        "batched_seconds": times["batched"],
        "lockstep_steps": steps, "us_per_step": us_per_step,
        "speedup": speedup, "floor": SEARCH_FLOOR,
        "chosen": chosen, "outputs_identical": True,
        "floor_asserted": True, "floor_met": speedup >= SEARCH_FLOOR,
    }
    emit_json("BENCH_peel_kernel", {"legs": LEGS})
    assert speedup >= SEARCH_FLOOR, (
        f"batched SD searches only {speedup:.2f}x faster")


# ----------------------------------------------------------------------
# Shared-pool leg: the sibling REDS methods of one seed peel one pool.
# ----------------------------------------------------------------------

def _pool_labels(x):
    """Two hard and two soft label vectors over the pool ``x``."""
    score = x[:, 0] + 0.5 * x[:, 1] - 0.3 * x[:, 2]
    noise = np.random.default_rng(12).random(len(x))
    soft = 1.0 / (1.0 + np.exp(-6.0 * (score - 0.6)))
    return {"hard": ((x[:, 0] > 0.3) & (x[:, 1] < 0.7)).astype(float),
            "hard_noisy": (soft > noise).astype(float),
            "soft": soft,
            "soft_rounded": np.round(soft, 2)}


def _peel_result_key(result):
    return ([b.key() for b in result.boxes], result.chosen,
            list(result.train_means), np.asarray(result.train_support).tolist(),
            list(result.val_means))


def test_shared_pool_speedup(benchmark):
    rng = np.random.default_rng(11)
    x = rng.random((POOL_N, POOL_M))
    x.flags.writeable = False
    labels = _pool_labels(x)
    x_val = rng.random((POOL_VAL_N, POOL_M))
    y_val = ((x_val[:, 0] > 0.3) & (x_val[:, 1] < 0.7)).astype(float)

    def peel_all():
        return [prim_peel(x, y, x_val=x_val, y_val=y_val)
                for y in labels.values()]

    def peel_all_warm():
        warm.enter()
        try:
            with named_pool(x, "shared pool"):
                return peel_all()
        finally:
            warm.leave()

    def run():
        # Cold and warm alternate in pairs, so host-speed drift hits
        # both sides of a pair alike.
        times, results = {"cold": [], "warm": []}, {}
        for _ in range(POOL_PAIRS):
            for name, f in (("cold", peel_all), ("warm", peel_all_warm)):
                seconds, results[name] = _best_of(f, repeats=1)
                times[name].append(seconds)
        return times, results

    pairs, results = benchmark.pedantic(run, rounds=1, iterations=1)
    for cold, warmed in zip(results["cold"], results["warm"]):
        assert _peel_result_key(cold) == _peel_result_key(warmed)
    times = {name: min(seconds) for name, seconds in pairs.items()}
    speedup = float(np.median(np.divide(pairs["cold"], pairs["warm"])))

    emit("shared_pool", "\n".join([
        f"Four prim_peel calls on one pool, L={POOL_N}, M={POOL_M}, "
        f"labels {', '.join(labels)} (best of {POOL_PAIRS} pairs):",
        f"  cold        {times['cold'] * 1e3:8.1f} ms",
        f"  warm scope  {times['warm'] * 1e3:8.1f} ms",
        f"  speedup     {speedup:8.2f} x (median of the pairs' ratios)",
    ]))
    LEGS["shared_pool"] = {
        "n": POOL_N, "m": POOL_M, "val_n": POOL_VAL_N,
        "labels": list(labels), "pairs": POOL_PAIRS,
        "cold_seconds": times["cold"], "warm_seconds": times["warm"],
        "speedup": speedup, "floor": SHARED_POOL_FLOOR,
        "outputs_identical": True,
        "floor_asserted": True, "floor_met": speedup >= SHARED_POOL_FLOOR,
    }
    emit_json("BENCH_peel_kernel", {"legs": LEGS})
    assert speedup >= SHARED_POOL_FLOOR, (
        f"warm peels of one pool only {speedup:.2f}x faster")


def test_pool_peel_speedup(benchmark):
    rng = np.random.default_rng(13)
    x = rng.random((POOL_N, POOL_M))
    x.flags.writeable = False
    pool_labels = _pool_labels(x)
    labels = {"hard": pool_labels["hard_noisy"], "soft": pool_labels["soft"]}
    x_val = rng.random((POOL_VAL_N, POOL_M))
    y_val = ((x_val[:, 0] > 0.3) & (x_val[:, 1] < 0.7)).astype(float)

    def peel(y, engine):
        return prim_peel(x, y, x_val=x_val, y_val=y_val, engine=engine)

    def run():
        # The engines alternate in pairs, so host-speed drift hits both
        # sides of a pair alike.
        times = {(name, engine): [] for name in labels
                 for engine in ("reference", "vectorized")}
        results = {}
        warm.enter()
        try:
            with named_pool(x, "pool"):
                for y in labels.values():
                    peel(y, "vectorized")  # builds the pool's column index
                for _ in range(POOL_PEEL_PAIRS):
                    for (name, engine), seconds in times.items():
                        t0 = time.perf_counter()
                        results[name, engine] = peel(labels[name], engine)
                        seconds.append(time.perf_counter() - t0)
        finally:
            warm.leave()
        return times, results

    times, results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name in labels:
        assert (_peel_result_key(results[name, "reference"])
                == _peel_result_key(results[name, "vectorized"])), name
    # Each pair's summed peels, per engine.
    reference, vectorized = (
        np.sum([times[name, engine] for name in labels], axis=0)
        for engine in ("reference", "vectorized"))
    speedup = float(np.median(reference / vectorized))
    per_label = {}
    for name in labels:
        ms = float(np.median(times[name, "vectorized"])) * 1e3
        steps = len(results[name, "vectorized"].boxes) - 1
        per_label[name] = {
            "ms_per_peel": ms, "steps": steps,
            "us_per_step": ms * 1e3 / max(steps, 1),
            "reference_ms": float(np.median(times[name, "reference"])) * 1e3}

    emit("pool_peel", "\n".join(
        [f"Warm one-run prim_peel, L={POOL_N}, M={POOL_M}, "
         f"{POOL_VAL_N}-row validation (median of {POOL_PEEL_PAIRS} pairs):"]
        + [f"  {name:5s} {leg['ms_per_peel']:8.1f} ms ({leg['steps']} steps, "
           f"{leg['us_per_step']:.0f} us per step), "
           f"reference {leg['reference_ms']:8.1f} ms"
           for name, leg in per_label.items()]
        + [f"  speedup     {speedup:8.2f} x (median of the pairs' ratios, "
           "summed peels)"]))
    LEGS["pool_peel"] = {
        "n": POOL_N, "m": POOL_M, "val_n": POOL_VAL_N,
        "pairs": POOL_PEEL_PAIRS, "labels": per_label,
        "reference_seconds": float(np.median(reference)),
        "vectorized_seconds": float(np.median(vectorized)),
        "speedup": speedup, "floor": POOL_PEEL_FLOOR,
        "outputs_identical": True,
        "floor_asserted": True, "floor_met": speedup >= POOL_PEEL_FLOOR,
    }
    emit_json("BENCH_peel_kernel", {"legs": LEGS})
    assert speedup >= POOL_PEEL_FLOOR, (
        f"warm L={POOL_N} peel only {speedup:.2f}x faster than the reference")


def test_parallel_harness_timings(benchmark):
    grid = dict(functions=("ishigami", "willetal06"), methods=("P", "BI"),
                n=300, n_reps=3, test_size=2000)
    jobs = cpu_budget()

    def run():
        serial, _ = _best_of(
            lambda: run_batch(grid["functions"], grid["methods"],
                              grid["n"], grid["n_reps"],
                              test_size=grid["test_size"], jobs=1),
            repeats=1)
        fanned, records = _best_of(
            lambda: run_batch(grid["functions"], grid["methods"],
                              grid["n"], grid["n_reps"],
                              test_size=grid["test_size"], jobs=jobs),
            repeats=1)
        return serial, fanned, records

    serial, fanned, records = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("parallel_harness", "\n".join([
        "run_batch grid (2 functions x 2 methods x 3 reps, N=300):",
        f"  serial (jobs=1)       {serial:8.2f} s",
        f"  parallel (jobs={jobs})     {fanned:8.2f} s",
        "(speedup tracks the machine's core count; identical records "
        "are asserted in tests/test_parallel_harness.py)",
    ]))

    assert len(records) == 12
