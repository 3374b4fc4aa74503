"""Chaos suite for the fault-tolerant execution substrate.

The contract: under injected worker crashes, task hangs, torn store
writes and shared-memory failures — driven deterministically by
``REDS_FAULT_PLAN`` — a grid completes with results bit-identical to a
fault-free run, leaks no shared-memory segments, and never re-executes
a task its store already holds; tasks that exhaust their retry budget
are quarantined with a structured post-mortem instead of killing the
grid on first error.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import dataplane, faults, parallel
from repro.experiments.faults import FaultPlan, InjectedFault, parse_fault_plan
from repro.experiments.harness import run_batch
from repro.experiments.parallel import (
    GridFailureError,
    RetryPolicy,
    execute,
)
from repro.experiments.store import MISSING, open_store

SHM_ROOT = Path("/dev/shm")


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REDS_FAULT_PLAN", raising=False)
    faults.clear_injection_log()
    yield
    faults.clear_injection_log()


def _shm_segments() -> set[str]:
    if not SHM_ROOT.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir(SHM_ROOT)
            if name.startswith(dataplane.SEGMENT_PREFIX)}


# ----------------------------------------------------------------------
# Module-level task functions (workers import them by qualified name)
# ----------------------------------------------------------------------

def _double(value: int) -> int:
    return value * 2


def _fail_once(value: int, markerdir: str) -> int:
    """Fail the first execution of each value, succeed afterwards."""
    marker = Path(markerdir) / f"fail-{value}"
    if not marker.exists():
        marker.write_text("")
        raise ValueError(f"transient failure for {value}")
    return value * 2


def _fail_some(value: int) -> int:
    """Permanently fail values congruent to 1 mod 3."""
    if value % 3 == 1:
        raise ValueError(f"permanent failure for {value}")
    return value * 2


def _fail_unless_marker(value: int, markerdir: str) -> int:
    """Fail until an external fix (the marker file) lands."""
    if not (Path(markerdir) / f"ok-{value}").exists():
        raise ValueError(f"no marker for {value}")
    return value * 2


def _kill_once(value: int, markerdir: str, victims: tuple) -> int:
    """SIGKILL the executing pool worker the first time each victim runs.

    The marker is written *before* the kill, so every retry survives;
    only pool workers die (killing the dispatcher on the degraded
    inline path would take the test run with it).
    """
    if value in victims:
        marker = Path(markerdir) / f"killed-{value}"
        if not marker.exists():
            marker.write_text("")
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _sleep_once(value: int, markerdir: str, victim: int,
                sleep_s: float) -> int:
    """Hang the first execution of ``victim`` for ``sleep_s`` seconds."""
    if value == victim:
        marker = Path(markerdir) / f"slept-{value}"
        if not marker.exists():
            marker.write_text("")
            time.sleep(sleep_s)
    return value * 2


def _count_executions(value: int, countdir: str) -> int:
    """Append one line per *execution* (not per attempt that crashed
    before reaching the task body), so duplicated work is observable."""
    with open(Path(countdir) / f"exec-{value}", "a") as handle:
        handle.write("x\n")
    return value * 2


# ----------------------------------------------------------------------
# Grid helpers (mirrors tests/test_store.py)
# ----------------------------------------------------------------------

GRID = dict(functions=("willetal06",), methods=("P", "BI"),
            n=120, n_reps=2, test_size=1500)


def run_grid(**overrides):
    kwargs = dict(GRID)
    kwargs.update(overrides)
    functions = kwargs.pop("functions")
    methods = kwargs.pop("methods")
    n = kwargs.pop("n")
    n_reps = kwargs.pop("n_reps")
    return run_batch(functions, methods, n, n_reps, **kwargs)


def assert_records_equal(expected, actual):
    """Field-by-field equality of two record lists (runtime excluded)."""
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
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


# ----------------------------------------------------------------------
# The fault plan itself
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = parse_fault_plan(
            "seed=42,worker_crash=0.2,task_hang=0.1,hang_s=0.3")
        assert plan.seed == 42
        assert plan.rates == {"worker_crash": 0.2, "task_hang": 0.1}
        assert plan.hang_s == 0.3

    def test_parse_tolerates_empty_chunks(self):
        plan = parse_fault_plan(" seed=1 , , store_write_torn=1.0 ,")
        assert plan.seed == 1
        assert plan.rates == {"store_write_torn": 1.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            parse_fault_plan("seed=1,worker_crush=0.5")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            parse_fault_plan("worker_crash=1.5")

    def test_rate_zero_never_fires_rate_one_always(self):
        plan = FaultPlan(seed=0, rates={"worker_crash": 1.0})
        for i in range(50):
            assert plan.should_inject("worker_crash", f"k{i}")
            assert not plan.should_inject("task_hang", f"k{i}")

    def test_decisions_are_deterministic(self):
        a = parse_fault_plan("seed=9,worker_crash=0.5")
        b = parse_fault_plan("seed=9,worker_crash=0.5")
        decisions = [a.should_inject("worker_crash", f"k{i}")
                     for i in range(200)]
        assert decisions == [b.should_inject("worker_crash", f"k{i}")
                             for i in range(200)]
        assert any(decisions) and not all(decisions)

    def test_empirical_rate_tracks_configured_rate(self):
        plan = FaultPlan(seed=3, rates={"worker_crash": 0.2})
        fired = sum(plan.should_inject("worker_crash", f"k{i}")
                    for i in range(2000))
        assert 0.15 < fired / 2000 < 0.25

    def test_attempt_tokens_are_independent(self):
        # A task crashed on attempt 0 must be able to survive attempt 1:
        # the attempt number is part of the token, so the draw re-rolls.
        plan = FaultPlan(seed=0, rates={"worker_crash": 0.5})
        assert any(plan.should_inject("worker_crash", f"k{i}#a0")
                   and not plan.should_inject("worker_crash", f"k{i}#a1")
                   for i in range(50))

    def test_active_plan_reads_env_and_caches(self, monkeypatch):
        assert faults.active_plan() is None
        assert not faults.enabled()
        monkeypatch.setenv("REDS_FAULT_PLAN", "seed=4,task_hang=0.5")
        assert faults.enabled()
        assert faults.active_plan() is faults.active_plan()
        assert faults.active_plan().seed == 4

    def test_check_logs_fired_injections_only(self, monkeypatch):
        monkeypatch.setenv("REDS_FAULT_PLAN",
                           "seed=0,store_write_torn=1.0")
        assert not faults.check("worker_crash", "t0")
        assert faults.check("store_write_torn", "t0")
        assert faults.injection_log() == (("store_write_torn", "t0"),)

    def test_maybe_inject_crash_raises_in_main_process(self, monkeypatch):
        monkeypatch.setenv("REDS_FAULT_PLAN", "seed=0,worker_crash=1.0")
        with pytest.raises(InjectedFault) as err:
            faults.maybe_inject("worker_crash", "t1")
        assert err.value.point == "worker_crash"
        assert err.value.token == "t1"

    def test_maybe_inject_hang_sleeps_then_returns(self, monkeypatch):
        monkeypatch.setenv("REDS_FAULT_PLAN",
                           "seed=0,task_hang=1.0,hang_s=0.05")
        start = time.monotonic()
        faults.maybe_inject("task_hang", "t2")
        assert time.monotonic() - start >= 0.04

    def test_task_scope_marks_only_the_outermost(self):
        with faults.task_scope("outer") as outermost:
            assert outermost
            with faults.task_scope("inner") as nested:
                assert not nested
        with faults.task_scope("again") as outermost:
            assert outermost


class TestRetryPolicy:
    def test_zero_attempts_means_no_delay(self):
        assert RetryPolicy().delay("k", 0) == 0.0

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.delay("k", 2) == policy.delay("k", 2)
        assert policy.delay("k", 2) != policy.delay("other", 2)

    def test_delay_within_jittered_backoff_bounds(self):
        policy = RetryPolicy(max_attempts=8)
        for attempt in range(1, 8):
            base = min(policy.backoff_base
                       * policy.backoff_factor ** (attempt - 1),
                       policy.backoff_max)
            delay = policy.delay("k", attempt)
            assert 0.5 * base <= delay <= base

    def test_delay_is_capped(self):
        policy = RetryPolicy(max_attempts=50)
        assert policy.delay("k", 30) <= policy.backoff_max


# ----------------------------------------------------------------------
# Retries and quarantine (serial path)
# ----------------------------------------------------------------------

class TestSerialRetries:
    def test_transient_failures_recover(self, tmp_path):
        tasks = [{"value": v, "markerdir": str(tmp_path)} for v in range(5)]
        out = execute(_fail_once, tasks, retries=1)
        assert out == [v * 2 for v in range(5)]
        assert len(list(tmp_path.glob("fail-*"))) == 5

    def test_exhausted_tasks_are_quarantined_grid_completes(self):
        tasks = [{"value": v} for v in range(6)]
        with pytest.raises(GridFailureError) as err:
            execute(_fail_some, tasks, retries=2)
        exc = err.value
        assert [f.index for f in exc.failures] == [1, 4]
        assert all(f.attempts == 3 for f in exc.failures)
        assert all("permanent failure" in f.error for f in exc.failures)
        assert [r for r in exc.results if r is not MISSING] == [0, 4, 6, 10]
        assert exc.results[1] is MISSING and exc.results[4] is MISSING

    def test_failure_summary_is_a_compact_table(self):
        with pytest.raises(GridFailureError) as err:
            execute(_fail_some, [{"value": 1}, {"value": 2}], retries=1)
        summary = err.value.summary()
        assert "1 task(s) quarantined after retries" in summary
        assert "(1 of 2 completed)" in summary
        assert "grid-index" in summary and "attempts" in summary
        assert "ValueError: permanent failure for 1" in summary

    def test_default_is_fail_fast(self):
        with pytest.raises(ValueError, match="permanent failure"):
            execute(_fail_some, [{"value": v} for v in range(6)])

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            execute(_double, [{"value": 1}], retries=-1)

    def test_failure_records_journal_and_clear(self, tmp_path):
        store = open_store(tmp_path / "store")
        markerdir = tmp_path / "markers"
        markerdir.mkdir()
        tasks = [{"value": v, "markerdir": str(markerdir)} for v in range(3)]
        keys = [store.key(_fail_unless_marker, task) for task in tasks]

        with pytest.raises(GridFailureError):
            execute(_fail_unless_marker, tasks, store=store, retries=1)
        for key in keys:
            failure = store.failure_for(key)
            assert failure is not None
            assert failure["quarantined"] is True
            assert failure["attempts"] == 2
            assert "no marker" in failure["error"]

        # The operator fixes the environment and re-runs: the grid
        # completes and the failure journal is wiped by the successes.
        for v in range(3):
            (markerdir / f"ok-{v}").write_text("")
        out = execute(_fail_unless_marker, tasks, store=store, retries=1)
        assert out == [0, 2, 4]
        for key in keys:
            assert store.failure_for(key) is None
            assert store.get(key) is not MISSING


# ----------------------------------------------------------------------
# Pool-level fault tolerance: crashes, hangs, degradation
# ----------------------------------------------------------------------

class TestPoolFaultTolerance:
    def test_sigkilled_worker_mid_grid_recovers(self, tmp_path):
        tasks = [{"value": v, "markerdir": str(tmp_path), "victims": (3,)}
                 for v in range(8)]
        out = execute(_kill_once, tasks, jobs=2, retries=2)
        assert out == [v * 2 for v in range(8)]
        assert (tmp_path / "killed-3").exists()

    def test_double_poisoning_degrades_to_serial(self, tmp_path, caplog):
        # Every task kills its first *pooled* execution, so whatever the
        # scheduling, the respawned pool is poisoned again — after two
        # poisonings the dispatcher must degrade the rest to inline
        # serial execution (where _kill_once no longer kills).
        victims = tuple(range(8))
        tasks = [{"value": v, "markerdir": str(tmp_path),
                  "victims": victims} for v in range(8)]
        with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
            out = execute(_kill_once, tasks, jobs=2, retries=5)
        assert out == [v * 2 for v in range(8)]
        assert "degrading the remaining" in caplog.text

    def test_watchdog_kills_hung_worker_and_retries(self, tmp_path):
        tasks = [{"value": v, "markerdir": str(tmp_path), "victim": 2,
                  "sleep_s": 30.0} for v in range(6)]
        start = time.monotonic()
        out = execute(_sleep_once, tasks, jobs=2, retries=1,
                      task_timeout=0.75)
        elapsed = time.monotonic() - start
        assert out == [v * 2 for v in range(6)]
        assert elapsed < 20.0  # nowhere near the 30 s hang
        assert (tmp_path / "slept-2").exists()

    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf])
    def test_task_timeout_must_be_positive_and_finite(self, timeout):
        # Rejected up front: a timeout of 0 or less would kill every
        # worker at its first heartbeat, and nan would disable the
        # watchdog without a word.
        tasks = [{"value": v} for v in range(4)]
        match = "task_timeout must be positive and finite"
        with pytest.raises(ValueError, match=match):
            execute(_double, tasks, jobs=2, task_timeout=timeout)
        with pytest.raises(ValueError, match=match):
            run_grid(jobs=2, task_timeout=timeout)

    def test_task_timeout_without_retries_fails_fast(self, tmp_path):
        tasks = [{"value": v, "markerdir": str(tmp_path), "victim": 1,
                  "sleep_s": 30.0} for v in range(4)]
        with pytest.raises(RuntimeError, match="task_timeout"):
            execute(_sleep_once, tasks, jobs=2, task_timeout=0.5)

    def test_pool_spawn_failure_degrades_fast_path(self, monkeypatch,
                                                   caplog):
        def broken_pool(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", broken_pool)
        tasks = [{"value": v} for v in range(5)]
        with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
            out = execute(_double, tasks, jobs=2)
        assert out == [v * 2 for v in range(5)]
        assert "pool spawn failed" in caplog.text

    def test_pool_spawn_failure_degrades_tolerant_path(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", broken_pool)
        tasks = [{"value": v} for v in range(5)]
        assert execute(_double, tasks, jobs=2, retries=1) == \
            [v * 2 for v in range(5)]


class TestWarmSessionChaos:
    """Fault tolerance composed with the warm-session pool cache.

    A crash must evict the poisoned pool (checkout is exclusive, a
    broken pool is never checked back in), the retried grid must stay
    bit-identical to the fault-free baseline, and later warm calls must
    be served by the healthy respawned pool — never a stale cached one.
    """

    def test_crashed_pool_evicted_respawned_results_identical(
            self, tmp_path):
        from repro import warm
        from repro.experiments.parallel import pool_stats
        from repro.experiments.session import Session

        calm = [{"value": v, "markerdir": str(tmp_path), "victims": ()}
                for v in range(8)]
        baseline = execute(_kill_once, calm, jobs=2, retries=2)
        tasks = [{"value": v, "markerdir": str(tmp_path), "victims": (3,)}
                 for v in range(8)]
        with Session(jobs=2):
            warm.reset_counters()
            out = execute(_kill_once, tasks, jobs=2, retries=2)
            # The SIGKILL poisoned the first pool; the dispatcher must
            # have evicted it and spawned a replacement mid-grid.
            mid = pool_stats()
            # A follow-up warm call reuses the healthy replacement (the
            # markers exist now, so nothing kills) — and must not spawn.
            again = execute(_kill_once, tasks, jobs=2, retries=2)
            after = pool_stats()
        assert out == baseline
        assert again == baseline
        assert (tmp_path / "killed-3").exists()
        assert mid["spawned"] >= 2
        assert after["spawned"] == mid["spawned"]
        assert after["reused"] >= mid["reused"] + 1
        # Session close drains the cache: no warm pool outlives it.
        assert pool_stats()["cached"] == 0

    def test_chaos_grid_inside_session_matches_baseline(self, monkeypatch):
        from repro.experiments.parallel import pool_stats
        from repro.experiments.session import Session

        baseline = run_grid()
        before = _shm_segments()
        monkeypatch.setenv(
            "REDS_FAULT_PLAN",
            "seed=11,worker_crash=0.25,task_hang=0.25,hang_s=0.05")
        with Session(jobs=2):
            records = run_grid(jobs=2, retries=6)
        monkeypatch.delenv("REDS_FAULT_PLAN")
        assert_records_equal(baseline, records)
        assert pool_stats()["cached"] == 0
        assert _shm_segments() - before == set()


# ----------------------------------------------------------------------
# Store robustness: envelopes, torn writes
# ----------------------------------------------------------------------

class TestStoreRobustness:
    def test_envelope_key_mismatch_is_quarantined(self, tmp_path):
        store = open_store(tmp_path / "store")
        key_a = store.key(_double, {"value": 1})
        key_b = store.key(_double, {"value": 2})
        store.put(key_a, 2)
        # A record copied under the wrong key (sync gone wrong, tooling
        # bug): the envelope check catches it instead of returning the
        # wrong task's result.
        store.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key_b).write_bytes(store.path_for(key_a).read_bytes())
        assert store.get(key_b) is MISSING
        assert not store.path_for(key_b).exists()
        assert store.corrupt_path(key_b).exists()
        assert store.get(key_a) == 2

    def test_fsync_can_be_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REDS_STORE_FSYNC", "0")
        store = open_store(tmp_path / "store")
        key = store.key(_double, {"value": 7})
        store.put(key, 14)
        assert store.get(key) == 14

    def test_torn_writes_resume_cleanly(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        tasks = [{"value": v} for v in range(6)]
        monkeypatch.setenv("REDS_FAULT_PLAN", "seed=1,store_write_torn=1.0")
        out = execute(_double, tasks, store=open_store(root))
        assert out == [v * 2 for v in range(6)]
        monkeypatch.delenv("REDS_FAULT_PLAN")

        # Every record on disk is torn.  A resumed (fault-free) run
        # quarantines them to corrupt/ and recomputes — results
        # identical, store healthy afterwards.
        store = open_store(root)
        assert execute(_double, tasks, store=store) == out
        assert len(list((root / "corrupt").rglob("*.pkl"))) == 6
        for task in tasks:
            assert store.get(store.key(_double, task)) == task["value"] * 2


# ----------------------------------------------------------------------
# Replay: the same plan draws the same faults
# ----------------------------------------------------------------------

class TestFaultPlanDeterminism:
    def test_same_plan_replays_bit_identically(self, monkeypatch):
        tasks = [{"value": v} for v in range(12)]
        baseline = execute(_double, tasks)
        spec = "seed=5,worker_crash=0.3,task_hang=0.3,hang_s=0.01"
        logs, outs = [], []
        for _ in range(2):
            monkeypatch.setenv("REDS_FAULT_PLAN", spec)
            faults.clear_injection_log()
            outs.append(execute(_double, tasks, retries=5))
            logs.append(faults.injection_log())
        assert outs[0] == outs[1] == baseline
        assert logs[0] == logs[1]
        assert any(point == "worker_crash" for point, _ in logs[0])
        assert any(point == "task_hang" for point, _ in logs[0])

    def test_hangs_never_change_results(self, monkeypatch):
        tasks = [{"value": v} for v in range(8)]
        baseline = execute(_double, tasks)
        monkeypatch.setenv("REDS_FAULT_PLAN",
                           "seed=2,task_hang=1.0,hang_s=0.01")
        assert execute(_double, tasks) == baseline
        assert len(faults.injection_log()) == 8


# ----------------------------------------------------------------------
# Shared-memory degradation and orphan sweep
# ----------------------------------------------------------------------

class TestShmPublishFallback:
    def test_publish_failure_degrades_to_inline_ref(self, monkeypatch,
                                                    caplog):
        monkeypatch.setenv("REDS_FAULT_PLAN",
                           "seed=0,shm_publish_fail=1.0")
        array = np.arange(12.0).reshape(3, 4)
        with caplog.at_level("WARNING",
                             logger="repro.experiments.dataplane"):
            with dataplane.DataPlane() as plane:
                ref = plane.publish(array, key="k1")
                assert ref.segment is None
                np.testing.assert_array_equal(ref.resolve(), array)
                assert not ref.resolve().flags.writeable
                assert plane.segment_names() == []
        assert ("shm_publish_fail", "k1") in faults.injection_log()
        assert "degrading to an inline ref" in caplog.text

    def test_grid_with_publish_failures_matches_baseline(self, monkeypatch):
        tasks = [{"value": v} for v in range(6)]
        shared = {"table": np.arange(64.0)}
        baseline = execute(_double, tasks, jobs=2, shared=shared)
        before = _shm_segments()
        monkeypatch.setenv("REDS_FAULT_PLAN",
                           "seed=0,shm_publish_fail=1.0")
        out = execute(_double, tasks, jobs=2, shared=shared)
        assert out == baseline
        assert _shm_segments() - before == set()

    def test_pooled_grid_reads_inline_test_sets(self, monkeypatch):
        """With every publish failing, a pooled grid's test sets reach
        the workers as inline refs, and its records equal the serial
        run's."""
        from test_parallel_harness import assert_records_identical

        grid = (("ishigami",), ("P", "BI"), 80, 2)
        kwargs = dict(test_size=500, tune_metamodel=False)
        serial = run_batch(*grid, jobs=1, **kwargs)
        before = _shm_segments()
        monkeypatch.setenv("REDS_FAULT_PLAN",
                           "seed=0,shm_publish_fail=1.0")
        pooled = run_batch(*grid, jobs=2, **kwargs)
        assert_records_identical(serial, pooled)
        # The test sample's x and y both fell back.
        assert len([point for point, _ in faults.injection_log()
                    if point == "shm_publish_fail"]) == 2
        assert dataplane.active_segments() == []
        assert _shm_segments() - before == set()


class TestOrphanSweep:
    @pytest.fixture()
    def dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", ""])
        proc.wait()
        return proc.pid

    @pytest.fixture()
    def shm(self):
        if not SHM_ROOT.is_dir():  # pragma: no cover - non-Linux
            pytest.skip("/dev/shm not available")
        created = []

        def make(name):
            path = SHM_ROOT / name
            path.write_bytes(b"x")
            created.append(path)
            return path

        yield make
        for path in created:
            path.unlink(missing_ok=True)

    def test_sweep_removes_only_dead_pid_segments(self, shm, dead_pid):
        orphan = shm(f"{dataplane.SEGMENT_PREFIX}{dead_pid}-deadbeef")
        own = shm(f"{dataplane.SEGMENT_PREFIX}{os.getpid()}-cafe")
        other = shm("unrelated-segment")
        removed = dataplane.sweep_orphan_segments()
        assert orphan.name in removed
        assert not orphan.exists()
        assert own.exists()
        assert other.exists()

    def test_sweep_removes_only_dead_pid_heartbeats(self, shm, dead_pid):
        # A dispatcher SIGKILLed mid-plan never reaches the pool loop's
        # ``finally``, so its in-flight heartbeat files stay behind.
        orphan = shm(f"{dataplane.HEARTBEAT_PREFIX}{dead_pid}-0123abcd-t3")
        own = shm(f"{dataplane.HEARTBEAT_PREFIX}{os.getpid()}-0123abcd-t0")
        live = shm(f"{dataplane.HEARTBEAT_PREFIX}{os.getppid()}-4567ef-t1")
        removed = dataplane.sweep_orphan_segments()
        assert orphan.name in removed
        assert not orphan.exists()
        for kept in (own, live):
            assert kept.name not in removed
            assert kept.exists()

    def test_sweep_removes_dead_pid_heartbeats_in_the_temp_dir(
            self, tmp_path, dead_pid, monkeypatch):
        # Hosts without a writable /dev/shm keep heartbeats in the temp
        # directory; a SIGKILLed dispatcher leaks them there too.
        monkeypatch.setattr(dataplane, "_HEARTBEAT_ROOT", str(tmp_path))
        names = {
            "orphan": f"{dataplane.HEARTBEAT_PREFIX}{dead_pid}-0123abcd-t3",
            "own": f"{dataplane.HEARTBEAT_PREFIX}{os.getpid()}-0123abcd-t0",
            "live": f"{dataplane.HEARTBEAT_PREFIX}{os.getppid()}-4567ef-t1",
            # Only heartbeats fall back there; segments never do.
            "segment": f"{dataplane.SEGMENT_PREFIX}{dead_pid}-deadbeef",
        }
        for name in names.values():
            (tmp_path / name).write_bytes(b"x")
        removed = dataplane.sweep_orphan_segments()
        assert names["orphan"] in removed
        assert not (tmp_path / names["orphan"]).exists()
        for kept in ("own", "live", "segment"):
            assert names[kept] not in removed
            assert (tmp_path / names[kept]).exists()

    def test_sweep_is_gated_by_env(self, shm, dead_pid, monkeypatch):
        monkeypatch.setattr(dataplane, "_SWEPT", False)
        orphan = shm(f"{dataplane.SEGMENT_PREFIX}{dead_pid}-feedface")
        monkeypatch.delenv("REDS_DATAPLANE_SWEEP", raising=False)
        with dataplane.DataPlane():
            assert orphan.exists()
        monkeypatch.setenv("REDS_DATAPLANE_SWEEP", "1")
        with dataplane.DataPlane():
            assert not orphan.exists()

    def test_dataplane_init_sweeps_once(self, shm, dead_pid, monkeypatch):
        monkeypatch.setenv("REDS_DATAPLANE_SWEEP", "1")
        monkeypatch.setattr(dataplane, "_SWEPT", False)
        orphan = shm(f"{dataplane.SEGMENT_PREFIX}{dead_pid}-0beef")
        with dataplane.DataPlane():
            assert not orphan.exists()
        # One sweep per process: a later plane does not rescan.
        late = shm(f"{dataplane.SEGMENT_PREFIX}{dead_pid}-1beef")
        with dataplane.DataPlane():
            assert late.exists()


# ----------------------------------------------------------------------
# The acceptance chaos grid
# ----------------------------------------------------------------------

class TestChaosGrid:
    def test_pooled_chaos_grid_is_bit_identical(self, tmp_path,
                                                monkeypatch):
        baseline = run_grid()
        before = _shm_segments()
        # Store writes and shm publishes always happen in the
        # dispatching process, so those injections are observable here;
        # crash/hang decisions are evaluated wherever the task lands
        # (pool worker or degraded inline), so their log entries stay
        # in the worker processes.
        wanted = {"store_write_torn", "shm_publish_fail"}
        # Fault tokens hash the store keys, which include the source
        # fingerprint, so the draws reshuffle whenever the code changes.
        # With four store writes at rate 0.25 a given seed tears none
        # about a third of the time, so walk seeds until one run has
        # exercised both dispatcher-side points; every run must still be
        # bit-identical and leak nothing.
        for seed in range(11, 31):
            faults.clear_injection_log()
            # All four fault points at rate >= 0.2, against a
            # store-backed pooled grid with retries.
            monkeypatch.setenv(
                "REDS_FAULT_PLAN",
                f"seed={seed},worker_crash=0.25,task_hang=0.25,hang_s=0.05,"
                "store_write_torn=0.25,shm_publish_fail=0.25")
            # A generous retry budget keeps the chance of a task drawing
            # crashes on every attempt negligible (0.25^7).
            records = run_grid(jobs=2,
                               store=str(tmp_path / f"store-{seed}"),
                               retries=6)
            assert_records_equal(baseline, records)
            assert _shm_segments() - before == set()
            fired = {point for point, _ in faults.injection_log()}
            if wanted <= fired:
                break
        assert wanted <= fired

    def test_store_backed_grid_never_reexecutes_a_stored_task(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REDS_FAULT_PLAN",
            "seed=7,worker_crash=0.2,task_hang=0.2,hang_s=0.02")
        expected = [v * 2 for v in range(14)]

        def grid(name):
            countdir = tmp_path / name
            countdir.mkdir()
            return countdir, [{"value": v, "countdir": str(countdir)}
                              for v in range(14)]

        def counts(countdir):
            return {path.name: path.read_text()
                    for path in countdir.iterdir()}

        # Tokens hash the store keys, and these keys embed the per-run
        # tmp_path — the draws differ every run, so the retry budget
        # must make exhaustion negligible (0.2^7).
        serial_dir, serial_tasks = grid("serial")
        serial_store = str(tmp_path / "serial-store")
        assert execute(_count_executions, serial_tasks, jobs=1,
                       store=serial_store, retries=6) == expected
        # Inline, an injected crash raises before the task body runs,
        # so every task ran exactly once.
        assert counts(serial_dir) == {f"exec-{v}": "x\n" for v in range(14)}

        # Pooled, a task can run more than once: when a sibling worker
        # crashes, the whole pool dies, and an in-flight task whose
        # body already ran is charged or requeued by heartbeat
        # attribution.  So the first pooled run only pins its results.
        pooled_dir, pooled_tasks = grid("pooled")
        pooled_store = str(tmp_path / "pooled-store")
        assert execute(_count_executions, pooled_tasks, jobs=2,
                       store=pooled_store, retries=6) == expected
        assert sorted(counts(pooled_dir)) == \
            sorted(f"exec-{v}" for v in range(14))

        # Against a completed store, nothing runs again at any ``jobs``.
        for countdir, tasks, store in ((serial_dir, serial_tasks,
                                        serial_store),
                                       (pooled_dir, pooled_tasks,
                                        pooled_store)):
            before = counts(countdir)
            for jobs in (1, 2):
                assert execute(_count_executions, tasks, jobs=jobs,
                               store=store, retries=6) == expected
                assert counts(countdir) == before


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCLI:
    def test_parser_accepts_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["compare", "--function", "morris", "--retries", "2",
             "--task-timeout", "1.5"])
        assert args.retries == 2
        assert args.task_timeout == 1.5

    def test_compare_failed_grid_exits_nonzero_with_table(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REDS_FAULT_PLAN", "seed=1,worker_crash=1.0")
        code = main(["compare", "--function", "willetal06",
                     "--methods", "P", "--n", "120", "--reps", "2",
                     "--no-tune", "--test-size", "1500",
                     "--n-new", "1000", "--retries", "1",
                     "--store", str(tmp_path / "store")])
        assert code == 1
        err = capsys.readouterr().err
        assert "grid incomplete" in err
        assert "quarantined after retries" in err
        assert "grid-index" in err
        assert "re-run to retry the quarantined cells" in err

    def test_compare_retries_ride_out_moderate_chaos(self, monkeypatch,
                                                     capsys):
        monkeypatch.setenv("REDS_FAULT_PLAN", "seed=2,worker_crash=0.3")
        code = main(["compare", "--function", "willetal06",
                     "--methods", "P", "--n", "120", "--reps", "2",
                     "--no-tune", "--test-size", "1500",
                     "--n-new", "1000", "--retries", "8"])
        assert code == 0
        assert "PR AUC %" in capsys.readouterr().out

    def test_discover_retries_recover(self, monkeypatch, capsys):
        from repro.core.methods import discover as real_discover

        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient discover failure")
            return real_discover(*args, **kwargs)

        monkeypatch.setattr("repro.cli.run_discover", flaky)
        code = main(["discover", "--function", "willetal06",
                     "--method", "P", "--n", "150",
                     "--test-size", "1500", "--retries", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "attempt 1 failed" in captured.err
        assert "PR AUC" in captured.out
        assert calls["n"] == 2

    def test_discover_exhausted_retries_reraise(self, monkeypatch):
        def always_broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.cli.run_discover", always_broken)
        with pytest.raises(RuntimeError, match="boom"):
            main(["discover", "--function", "willetal06", "--method", "P",
                  "--n", "120", "--test-size", "1500", "--retries", "1"])
