"""Benchmark: cost of the fault-tolerant dispatch loop.

Every plan runs through the one guarded dispatch loop — ``retries=0``
is just a one-attempt :class:`~repro.experiments.parallel.RetryPolicy`
— so its bookkeeping (attempt accounting, failure journalling, and in
the process executor heartbeat files and the ready/in-flight queues)
must stay a bookkeeping term, not a tax on the science.  Two legs, each
checking the results stay bit-identical:

1. **serial** — one 40-task grid at ``retries=0`` and ``retries=1``
   (every task succeeding, so the retry machinery is armed but never
   fires), then under a seeded ``REDS_FAULT_PLAN`` injecting worker
   crashes and hangs at ``retries=3``: the grid rides out the faults
   and still returns the same results;
2. **process** — a warm ``Session(jobs=2)`` whose cached pool serves
   2-task and 40-task plans at ``retries=0`` and ``retries=1``; the
   per-plan dispatch time is the best of several plans.  A 2-task plan
   is what one warm labelling request issues.

The ``retries=1``/``retries=0`` ratio of both legs is asserted under a
deliberately generous ceiling; the chaos timing is recorded, not
asserted — it measures injected faults plus backoff, not substrate
overhead.  Machine-readable results land in
``benchmarks/results/BENCH_fault_overhead.json`` and are mirrored to
the tracked repo-root ``results/``.
"""

import time

import numpy as np

from _common import best_of, emit, emit_json
from repro.experiments import faults
from repro.experiments.parallel import execute
from repro.experiments.session import Session

N_TASKS = 40
SIZE = 20_000
REPEATS = 3

#: Plan sizes and plans timed per size on the warm process pool.
PROCESS_PLANS = (2, 40)
PROCESS_REPEATS = 10

#: Generous ceiling on retries=1 / retries=0: the guarded loop's retry
#: bookkeeping must not dominate trivially small tasks.
GUARD_CEILING = 5.0

CHAOS_PLAN = "seed=13,worker_crash=0.15,task_hang=0.15,hang_s=0.005"


def _spin(value: int, size: int) -> float:
    """A small deterministic numpy workload (~1 ms)."""
    rng = np.random.default_rng(value)
    data = rng.random(size)
    return float(np.sort(data).sum())


def _process_leg() -> dict:
    """Per-plan dispatch ms on a warm cached pool, by plan size."""
    plans = {}
    with Session(jobs=2):
        for n_tasks in PROCESS_PLANS:
            tasks = [{"value": v, "size": SIZE} for v in range(n_tasks)]
            baseline = execute(_spin, tasks, jobs=2)  # spawns or reuses
            timings = {}
            for retries in (0, 1):
                seconds, out = best_of(
                    lambda: execute(_spin, tasks, jobs=2, retries=retries),
                    PROCESS_REPEATS)
                assert out == baseline
                timings[retries] = seconds * 1e3
            plans[str(n_tasks)] = {
                "retries0_ms": timings[0],
                "retries1_ms": timings[1],
                "ratio": timings[1] / timings[0],
            }
    return plans


def test_fault_overhead(benchmark, monkeypatch):
    tasks = [{"value": v, "size": SIZE} for v in range(N_TASKS)]

    monkeypatch.delenv("REDS_FAULT_PLAN", raising=False)
    plain_s, baseline = best_of(lambda: execute(_spin, tasks), REPEATS)
    guarded_s, guarded = best_of(
        lambda: execute(_spin, tasks, retries=1), REPEATS)
    benchmark.pedantic(lambda: execute(_spin, tasks, retries=1),
                       rounds=1, iterations=1)
    process = _process_leg()

    monkeypatch.setenv("REDS_FAULT_PLAN", CHAOS_PLAN)
    faults.clear_injection_log()
    start = time.perf_counter()
    chaos = execute(_spin, tasks, retries=3)
    chaos_s = time.perf_counter() - start
    injected = len(faults.injection_log())
    monkeypatch.delenv("REDS_FAULT_PLAN")
    faults.clear_injection_log()

    assert guarded == baseline
    assert chaos == baseline
    assert injected > 0, "the chaos plan must actually fire"
    ratio = guarded_s / plain_s
    assert ratio < GUARD_CEILING, (
        f"serial retries=1 is {ratio:.2f}x retries=0 "
        f"(ceiling {GUARD_CEILING}x)")
    for n_tasks, leg in process.items():
        assert leg["ratio"] < GUARD_CEILING, (
            f"process {n_tasks}-task plan: retries=1 is "
            f"{leg['ratio']:.2f}x retries=0 (ceiling {GUARD_CEILING}x)")

    lines = [
        f"guarded dispatch loop, serial ({N_TASKS} tasks, best of "
        f"{REPEATS})",
        f"  {'retries=0':<28} {plain_s * 1e3:>8.1f} ms",
        f"  {'retries=1':<28} {guarded_s * 1e3:>8.1f} ms  ({ratio:.2f}x)",
        f"  {'chaos ({} injections)'.format(injected):<28} "
        f"{chaos_s * 1e3:>8.1f} ms  (crashes+hangs+backoff)",
        f"guarded dispatch loop, warm Session(jobs=2) pool (per plan, "
        f"best of {PROCESS_REPEATS})",
    ]
    for n_tasks, leg in process.items():
        lines.append(
            f"  {n_tasks + ' tasks':<10} "
            f"retries=0 {leg['retries0_ms']:>7.2f} ms   "
            f"retries=1 {leg['retries1_ms']:>7.2f} ms  ({leg['ratio']:.2f}x)")
    emit("fault_overhead", "\n".join(lines))
    emit_json("BENCH_fault_overhead", {
        "guard_ceiling": GUARD_CEILING,
        "serial": {
            "n_tasks": N_TASKS,
            "retries0_s": plain_s,
            "retries1_s": guarded_s,
            "ratio": ratio,
        },
        "process": {"jobs": 2, "plans": process},
        "chaos_s": chaos_s,
        "chaos_plan": CHAOS_PLAN,
        "chaos_injections": injected,
    })
