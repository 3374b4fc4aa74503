"""Microbenchmark: vectorized peel kernel and parallel experiment engine.

Times one full PRIM peeling run on N = 10000, M = 10 synthetic data
under both engines (the acceptance bar is a >= 3x speedup of the
sort-once/slice-sum kernel over the per-candidate masking reference)
and a small ``run_batch`` grid serial vs fanned out over all CPUs.
Both comparisons double as equivalence checks: same boxes, same
records.
"""

import time

import numpy as np

from _common import emit
from repro.experiments.harness import run_batch
from repro.experiments.parallel import cpu_budget
from repro.subgroup.prim import prim_peel

N, M = 10_000, 10
REPEATS = 5


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
        times, results = {}, {}
        for engine in ("reference", "vectorized"):
            times[engine], results[engine] = _best_of(
                lambda engine=engine: prim_peel(x, y, engine=engine))
        return times, results

    times, results = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = times["reference"] / times["vectorized"]

    emit("peel_kernel", "\n".join([
        f"PRIM peeling engines, N={N}, M={M} (best of {REPEATS}):",
        f"  reference   {times['reference'] * 1e3:8.1f} ms",
        f"  vectorized  {times['vectorized'] * 1e3:8.1f} ms",
        f"  speedup     {speedup:8.2f} x",
    ]))

    ref, vec = results["reference"], results["vectorized"]
    assert ref.chosen == vec.chosen and len(ref.boxes) == len(vec.boxes)
    for a, b in zip(ref.boxes, vec.boxes):
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
    assert speedup >= 3.0, f"vectorized kernel only {speedup:.2f}x faster"


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
