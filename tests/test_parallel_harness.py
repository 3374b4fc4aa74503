"""Determinism tests for the plan experiment engine.

``run_batch(..., jobs=4)`` must return ``RunRecord``s identical field
by field (boxes and trajectories included) to the serial run, in the
same grid order, no matter how the pool schedules the tasks.  Runtime
is the one legitimate difference: it is wall-clock measured inside
each run.  The same contract holds for both run paths — inline and
process pool.
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.methods import discover
from repro.core.reds import reds
from repro.experiments import parallel
from repro.experiments.dataplane import active_segments
from repro.experiments.session import Session
from repro.experiments.harness import (
    evaluate_boxes as harness_evaluate_boxes,
    get_test_data,
    run_batch,
    run_third_party,
)
from repro.metamodels.base import predict_chunked
from repro.metamodels.tuning import make_metamodel
from repro.metrics.trajectory import peeling_trajectory
from repro.subgroup import Hyperbox
from repro.subgroup._kernels import evaluate_boxes as kernel_evaluate_boxes


def assert_records_identical(serial, parallel_records):
    """Field-by-field equality, boxes included; runtime excluded."""
    assert len(serial) == len(parallel_records)
    for a, b in zip(serial, parallel_records):
        assert (a.function, a.method, a.n, a.seed) == \
               (b.function, b.method, b.n, b.seed)
        assert a.pr_auc == b.pr_auc
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert a.wracc == b.wracc
        assert a.n_restricted == b.n_restricted
        assert a.n_irrelevant == b.n_irrelevant
        np.testing.assert_array_equal(a.chosen_box.lower, b.chosen_box.lower)
        np.testing.assert_array_equal(a.chosen_box.upper, b.chosen_box.upper)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)


def _delayed_echo(index: int) -> int:
    # Early tasks sleep longest, so completion order is roughly the
    # reverse of submission order.
    time.sleep(0.02 * max(8 - index, 0))
    return index


def _fail_on_one(index: int) -> int:
    if index == 1:
        raise ValueError("boom")
    return index


def _context_row(index: int) -> float:
    return float(parallel.plan_context()["values"][index])


def _report_lease(index: int) -> int:
    # What a task would pass to its own chunked fan-outs.
    return parallel.budgeted_jobs()


def _range_sum_chunk(context, start: int, stop: int) -> float:
    return float(sum(context["offset"] + i for i in range(start, stop)))


def _fanout_task(index: int, n_rows: int) -> float:
    # A grid task that spends its whole lease on an inner fan-out —
    # the shape of run_single's discover/evaluate calls.
    parts = parallel.run_chunked(_range_sum_chunk, n_rows,
                                 jobs=parallel.budgeted_jobs(),
                                 context={"offset": index})
    return float(sum(parts))


class TestExecute:
    def test_serial_fallback_preserves_order(self):
        tasks = [dict(index=i) for i in range(5)]
        assert parallel.execute(_delayed_echo, tasks, jobs=1) == list(range(5))

    def test_results_in_task_order_not_completion_order(self):
        tasks = [dict(index=i) for i in range(8)]
        assert parallel.execute(_delayed_echo, tasks, jobs=4) == list(range(8))

    def test_jobs_none_uses_all_cpus(self):
        assert parallel.cpu_budget() >= 1
        tasks = [dict(index=i) for i in range(3)]
        assert parallel.execute(_delayed_echo, tasks, jobs=None) == [0, 1, 2]

    def test_single_task_runs_inline(self):
        assert parallel.execute(_delayed_echo, [dict(index=9)], jobs=8) == [9]

    def test_task_failure_propagates(self):
        tasks = [dict(index=i) for i in range(6)]
        with pytest.raises(ValueError, match="boom"):
            parallel.execute(_fail_on_one, tasks, jobs=2)
        with pytest.raises(ValueError, match="boom"):
            parallel.execute(_fail_on_one, tasks, jobs=1)


class TestFanoutArguments:
    """A bad ``jobs`` raises before any task is dispatched."""

    @pytest.mark.parametrize("jobs", [-1, -3])
    def test_execute_rejects_negative_jobs(self, jobs):
        tasks = [dict(index=i) for i in range(3)]
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            parallel.execute(_delayed_echo, tasks, jobs=jobs)

    def test_run_batch_rejects_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            run_batch(("ishigami",), ("P",), 60, 1, jobs=-3,
                      variant="continuous", test_size=200)

    @pytest.mark.parametrize("jobs", [-1, -3])
    def test_negative_jobs_fail_where_set_without_a_fan_out(self, jobs):
        """A negative ``jobs`` raises at every entry point that takes
        it, also on paths that never fan out (an untuned REDS fit, an
        inline prediction, a method without a search)."""
        gen = np.random.default_rng(0)
        x = gen.random((60, 3))
        y = (x[:, 0] > 0.5).astype(float)
        model = make_metamodel("forest", n_trees=5).fit(x, y)
        match = rf"jobs must be >= 0 or None, got {jobs}"
        with pytest.raises(ValueError, match=match):
            predict_chunked(model, x, jobs=jobs)
        with pytest.raises(ValueError, match=match):
            reds(x, y, lambda a, b: None, n_new=50, tune=False, jobs=jobs)
        for method in ("RPx", "RPcx", "RBIcxp", "P", "PB", "BIc"):
            for tune in (False, True):
                with pytest.raises(ValueError, match=match):
                    discover(method, x, y, jobs=jobs, n_new=50,
                             n_repeats=3, tune_metamodel=tune)
        with pytest.raises(ValueError, match=match):
            Session(jobs=jobs)
        assert Session(jobs=None).jobs is None
        assert Session(jobs=0).jobs == 0


class TestWorkerBudget:
    """``jobs`` is one global budget, split by the planner across the
    grid level and each task's inner chunked fan-out."""

    def test_outside_any_plan_the_lease_defaults_to_serial(self):
        assert parallel.worker_budget() is None
        assert parallel.budgeted_jobs() == 1
        assert parallel.budgeted_jobs(default=3) == 3

    def test_cpu_budget_respects_affinity(self):
        budget = parallel.cpu_budget()
        assert budget >= 1
        if hasattr(os, "sched_getaffinity"):
            assert budget == len(os.sched_getaffinity(0))
        assert budget <= (os.cpu_count() or 1)

    def test_serial_tasks_see_lease_one(self):
        tasks = [dict(index=i) for i in range(3)]
        assert parallel.execute(_report_lease, tasks, jobs=1) == [1, 1, 1]

    def test_single_task_inherits_the_whole_budget(self):
        # One task, jobs=8: the inline fallback hands the full budget
        # to the task's own fan-outs instead of wasting it on a pool.
        assert parallel.execute(_report_lease, [dict(index=0)], jobs=8) == [8]

    def test_narrow_grid_splits_the_budget_across_levels(self):
        # Two tasks, jobs=4: two grid workers, each with a lease of 2.
        tasks = [dict(index=i) for i in range(2)]
        assert parallel.execute(_report_lease, tasks, jobs=4) == [2, 2]

    def test_wide_grid_leaves_lease_one(self):
        # More tasks than budget: pure grid parallelism, lease 1.
        tasks = [dict(index=i) for i in range(6)]
        assert parallel.execute(_report_lease, tasks, jobs=3) == [1] * 6

    def test_nested_fanout_results_match_serial(self):
        tasks = [dict(index=i, n_rows=101 + i) for i in range(2)]
        serial = parallel.execute(_fanout_task, tasks, jobs=1)
        budgeted = parallel.execute(_fanout_task, tasks, jobs=4)
        assert budgeted == serial
        assert serial == [float(sum(range(101))),
                          float(sum(1 + i for i in range(102)))]

    def test_env_budget_matches_serial(self):
        # CI runs the suite once with REDS_BENCH_JOBS=2, driving this
        # test (and everything else) through an explicit multi-worker
        # budget even when the developer machine has one core.
        raw = int(os.environ.get("REDS_BENCH_JOBS", "2"))
        budget = parallel.cpu_budget() if raw < 1 else max(raw, 2)
        tasks = [dict(index=i, n_rows=77 + 13 * i) for i in range(3)]
        serial = parallel.execute(_fanout_task, tasks, jobs=1)
        assert parallel.execute(_fanout_task, tasks, jobs=budget) == serial

    def test_budgeted_grid_never_oversubscribes(self, tmp_path, monkeypatch):
        # Instrument every pool spawn: a jobs=N grid with chunked inner
        # fan-out must never put more than N workers to work at once,
        # at any nesting level.
        budget = 4
        log = tmp_path / "spawns.log"
        monkeypatch.setenv("REDS_SPAWN_LOG", str(log))
        tasks = [dict(index=i, n_rows=400) for i in range(2)]
        out = parallel.execute(_fanout_task, tasks, jobs=budget)
        assert out == [float(sum(i + j for j in range(400)))
                       for i in range(2)]

        spawns = [line.split() for line in log.read_text().splitlines()]
        assert spawns, "the budgeted run never logged a pool spawn"
        top = [(int(w), int(lease)) for _, ambient, w, lease in spawns
               if ambient == "-"]
        inner = [(int(ambient), int(w), int(lease))
                 for _, ambient, w, lease in spawns if ambient != "-"]
        # Exactly one top-level pool; its workers carry the whole budget.
        assert top == [(2, 2)]
        assert inner, "the grid workers never fanned out"
        for ambient, workers, lease in inner:
            # A nested pool is clamped to its worker's lease, and the
            # lease it hands down cannot multiply the budget back up.
            assert ambient == 2
            assert workers <= ambient
            assert workers * lease <= ambient
        # Peak concurrently-working processes: each of the two grid
        # workers idles in as_completed while its inner pool (<= its
        # lease) works, so the total stays within the global budget.
        assert sum(w for _, w, _ in inner) <= budget


class TestRunBatchParallel:
    @pytest.fixture(scope="class")
    def grids(self):
        kwargs = dict(variant="continuous", test_size=1500)
        serial = run_batch(("ishigami", "willetal06"), ("P", "BI"), 120, 2,
                           jobs=1, **kwargs)
        fanned = run_batch(("ishigami", "willetal06"), ("P", "BI"), 120, 2,
                           jobs=4, **kwargs)
        return serial, fanned

    def test_records_identical_to_serial(self, grids):
        serial, fanned = grids
        assert_records_identical(serial, fanned)

    def test_grid_order_is_function_method_rep(self, grids):
        _, fanned = grids
        keys = [(r.function, r.method, r.seed) for r in fanned]
        expected = [(fn, m, 1000 + rep)
                    for fn in ("ishigami", "willetal06")
                    for m in ("P", "BI")
                    for rep in range(2)]
        assert keys == expected

    def test_seeds_depend_on_grid_position_only(self, grids):
        serial, _ = grids
        assert [r.seed for r in serial] == [1000, 1001] * 4

    def test_narrow_reds_grid_budget_matches_serial(self):
        # Two REDS cells under jobs=4: each grid worker gets a lease of
        # 2 and fans its labeling/tuning/trajectory stages out — the
        # full nested-budget path — with bit-identical records.
        kwargs = dict(variant="continuous", test_size=1200,
                      n_new=2000, tune_metamodel=False)
        serial = run_batch(("ishigami",), ("RPf",), 150, 2,
                           jobs=1, **kwargs)
        budgeted = run_batch(("ishigami",), ("RPf",), 150, 2,
                             jobs=4, **kwargs)
        assert_records_identical(serial, budgeted)


class TestRunThirdPartyParallel:
    def test_records_identical_to_serial(self):
        kwargs = dict(n_splits=3, n_reps=2, tune_metamodel=False)
        serial = run_third_party("lake", "P", jobs=1, **kwargs)
        fanned = run_third_party("lake", "P", jobs=3, **kwargs)
        assert_records_identical(serial, fanned)
        # rep-major, fold-minor ordering with position-derived seeds
        assert [r.seed for r in serial] == [77, 78, 79, 80, 81, 82]


class TestExecutionPlan:
    def test_seeds_and_indices_fixed_at_plan_time(self):
        tasks = [dict(index=i, seed=100 + i) for i in range(4)]
        plan = parallel.compile_plan(_delayed_echo, tasks)
        assert plan.indices == (0, 1, 2, 3)
        assert [t["seed"] for t in plan.tasks] == [100, 101, 102, 103]

class TestExecutors:
    def test_all_executors_agree(self):
        tasks = [dict(index=i) for i in range(6)]
        serial = parallel.execute(_delayed_echo, tasks, jobs=1)
        process = parallel.execute(_delayed_echo, tasks, jobs=3)
        assert serial == process == list(range(6))

    def test_serial_contexts_are_thread_isolated(self):
        # Two in-process executions with different contexts must not
        # cross-contaminate when driven from concurrent threads.
        out: dict[int, list] = {}

        def invoke(which: int) -> None:
            values = np.full(30, float(which))
            tasks = [dict(index=i) for i in range(30)]
            out[which] = parallel.execute(_context_row, tasks, jobs=1,
                                          shared={"values": values})

        threads = [threading.Thread(target=invoke, args=(w,))
                   for w in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert out[1] == [1.0] * 30
        assert out[2] == [2.0] * 30

    def test_context_shared_array_reaches_every_executor(self, tmp_path):
        values = np.linspace(0.0, 1.0, 5)
        tasks = [dict(index=i) for i in range(5)]
        for kwargs in (dict(jobs=1), dict(jobs=2)):
            out = parallel.execute(_context_row, tasks,
                                   shared={"values": values}, **kwargs)
            assert out == list(values)


def _shm_dir_entries() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith("reds-dp-")}


class TestDataPlaneTeardown:
    def test_poisoned_task_unlinks_all_segments(self):
        """A failing task must not leak shared-memory segments: the
        executor's finalizer unlinks the plan's data plane on the
        exceptional path too."""
        before = _shm_dir_entries()
        tasks = [dict(index=i) for i in range(6)]
        with pytest.raises(ValueError, match="boom"):
            parallel.execute(_fail_on_one, tasks, jobs=2,
                             warmup=[("ishigami", "continuous", 400)])
        assert active_segments() == []
        assert _shm_dir_entries() <= before

    def test_clean_run_unlinks_all_segments(self):
        before = _shm_dir_entries()
        tasks = [dict(index=i) for i in range(4)]
        out = parallel.execute(_delayed_echo, tasks, jobs=2,
                               warmup=[("ishigami", "continuous", 400)])
        assert out == list(range(4))
        assert active_segments() == []
        assert _shm_dir_entries() <= before


class TestTestDataCache:
    def test_cache_is_bounded(self):
        """Regression: the per-process test-data cache must stay small —
        20000-point samples used to accumulate per (function, variant,
        size) for the life of a worker."""
        info = get_test_data.cache_info()
        assert info.maxsize is not None and info.maxsize <= 32
        for size in range(40, 40 + 2 * info.maxsize):
            get_test_data("ishigami", "continuous", size)
        info = get_test_data.cache_info()
        assert info.currsize <= info.maxsize


class TestDegenerateFanoutInputs:
    """Degenerate inputs through the fanned-out evaluation paths.

    Empty box lists, single-row test sets and constant labels must all
    produce the same well-defined answer under every jobs/chunk
    setting — the fan-out machinery may never turn an edge case into a
    shape error or a divergence from the serial loop.
    """

    def _planted(self, n, seed=0, y_const=None):
        gen = np.random.default_rng(seed)
        x = gen.random((n, 3))
        if y_const is None:
            y = ((x[:, 0] > 0.3) & (x[:, 1] < 0.7)).astype(float)
        else:
            y = np.full(n, float(y_const))
        return x, y

    def _boxes(self):
        return [
            Hyperbox.unrestricted(3),
            Hyperbox.unrestricted(3).replace(0, lower=0.3, upper=np.inf)
            .replace(1, lower=-np.inf, upper=0.7),
        ]

    def test_empty_box_list(self):
        x, y = self._planted(40)
        for jobs in (1, 3, 4):
            trajectory = peeling_trajectory([], x, y, jobs=jobs)
            assert trajectory.shape == (0, 2)
        for jobs in (1, 4):
            evaluation = kernel_evaluate_boxes([], x, y, jobs=jobs)
            assert evaluation.masks.shape == (0, len(x))
            assert evaluation.n_inside.shape == (0,)
            assert evaluation.n_total == len(x)
            assert evaluation.base_rate == y.mean()

    def test_single_row(self):
        x, y = self._planted(1, seed=3)
        boxes = self._boxes()
        serial = peeling_trajectory(boxes, x, y, jobs=1)
        np.testing.assert_array_equal(
            serial, peeling_trajectory(boxes, x, y, jobs=4))
        a = kernel_evaluate_boxes(boxes, x, y, jobs=1)
        b = kernel_evaluate_boxes(boxes, x, y, jobs=4)
        np.testing.assert_array_equal(a.n_inside, b.n_inside)
        np.testing.assert_array_equal(a.y_means, b.y_means)

    @pytest.mark.parametrize("y_const", [0.0, 1.0])
    def test_all_identical_labels(self, y_const):
        x, y = self._planted(60, seed=5, y_const=y_const)
        boxes = self._boxes()
        serial = peeling_trajectory(boxes, x, y, jobs=1)
        for jobs in (2, 4):
            np.testing.assert_array_equal(
                serial, peeling_trajectory(boxes, x, y, jobs=jobs))
        a = kernel_evaluate_boxes(boxes, x, y, jobs=1)
        b = kernel_evaluate_boxes(boxes, x, y, jobs=3)
        np.testing.assert_array_equal(a.y_sums, b.y_sums)
        assert a.base_rate == b.base_rate == y_const

    def test_harness_evaluation_degenerate_test_sets(self):
        x_train, y_train = self._planted(300, seed=9)
        result = discover("P", x_train, y_train, seed=0)
        for x_test, y_test in ((self._planted(1, seed=11)),
                               (self._planted(50, seed=13, y_const=1.0))):
            serial = harness_evaluate_boxes(
                result, x_test, y_test, relevant=(0, 1), jobs=1)
            fanned = harness_evaluate_boxes(
                result, x_test, y_test, relevant=(0, 1), jobs=4)
            np.testing.assert_array_equal(serial.pop("trajectory"),
                                          fanned.pop("trajectory"))
            assert serial == fanned
            assert np.isfinite(serial["pr_auc"])
