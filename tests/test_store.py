"""Tests for the persistent content-addressed experiment store.

The contract (ISSUE 2 / ROADMAP caching layer): a warm store reproduces
the cold run's records exactly — field by field, runtime included —
while executing zero new tasks; a partially-filled store executes only
the missing tasks; and any code/config change misses instead of
returning stale records.
"""

import json
import pickle

import numpy as np
import pytest

from repro.experiments import parallel
from repro.experiments.harness import run_batch, run_third_party
from repro.experiments.store import (
    MISSING,
    STORE_FORMAT,
    ExperimentStore,
    ExperimentStoreError,
    code_fingerprint,
    open_store,
    task_key,
)

CALLS: list[int] = []


def _tracked(value: int) -> int:
    """Module-level task function whose invocations are observable."""
    CALLS.append(value)
    return value * 2


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


def assert_records_equal(expected, actual, *, include_runtime=False):
    """Field-by-field equality of two record lists.

    ``include_runtime=True`` additionally pins the wall-clock field —
    valid only when ``actual`` was *loaded* from the store (a cached
    record keeps the runtime of the run that produced it), never when
    comparing two independent computations.
    """
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
        if include_runtime:
            assert a.runtime == b.runtime
        np.testing.assert_array_equal(a.chosen_box.lower, b.chosen_box.lower)
        np.testing.assert_array_equal(a.chosen_box.upper, b.chosen_box.upper)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)


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


class TestTaskKey:
    def test_stable_across_calls(self):
        task = dict(function="ishigami", method="P", n=400, seed=7)
        assert task_key(_tracked, task) == task_key(_tracked, task)

    def test_kwarg_order_irrelevant(self):
        a = task_key(_tracked, dict(n=400, seed=7, method="P"))
        b = task_key(_tracked, dict(method="P", seed=7, n=400))
        assert a == b

    def test_any_config_change_changes_key(self):
        base = dict(function="ishigami", method="P", n=400, seed=7,
                    variant="continuous", n_new=None, tune_metamodel=True)
        reference = task_key(_tracked, base)
        for field, value in [("function", "morris"), ("method", "RPx"),
                             ("n", 401), ("seed", 8), ("variant", "mixed"),
                             ("n_new", 10_000), ("tune_metamodel", False)]:
            changed = dict(base, **{field: value})
            assert task_key(_tracked, changed) != reference, field

    def test_function_identity_is_part_of_key(self):
        task = dict(n=1)
        assert task_key(_tracked, task) != task_key("other.func", task)

    def test_code_fingerprint_is_part_of_key(self):
        task = dict(n=1)
        assert (task_key(_tracked, task, fingerprint="a")
                != task_key(_tracked, task, fingerprint="b"))

    def test_rejects_unstorable_values(self):
        with pytest.raises(TypeError, match="not\\s+storable"):
            task_key(_tracked, dict(x=np.arange(3)))

    def test_fingerprint_covers_algorithm_sources(self):
        # The default fingerprint is a hex digest derived from package
        # sources; it must be importable-state independent (pure file
        # content), hence equal across calls.
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestStoreBasics:
    def test_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        store.put("ab" + "0" * 62, {"answer": 42})
        assert store.get("ab" + "0" * 62) == {"answer": 42}
        assert store.hits == 1 and store.writes == 1

    def test_missing_returns_sentinel(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        assert store.get("ff" + "0" * 62) is MISSING
        assert not MISSING
        assert store.misses == 1

    def test_len_contains_keys(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, i)
        assert len(store) == 3
        assert set(store.keys()) == set(keys)
        assert keys[0] in store
        assert "ee" + "0" * 62 not in store

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        store.put("ab" + "0" * 62, list(range(100)))
        assert not list((tmp_path / "s").rglob("*.tmp"))

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        key = "ab" + "0" * 62
        store.put(key, {"answer": 42})
        store.path_for(key).write_bytes(b"\x80corrupt")
        assert store.get(key) is MISSING
        assert not store.path_for(key).exists()

    def test_transient_read_failure_does_not_delete(self, tmp_path):
        # An OSError on open (here: the path is a directory) is a plain
        # miss; only genuine unpickle corruption may delete the entry.
        store = ExperimentStore(tmp_path / "s")
        key = "ab" + "0" * 62
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).mkdir()
        assert store.get(key) is MISSING
        assert store.path_for(key).exists()

    def test_meta_format_mismatch_raises(self, tmp_path):
        root = tmp_path / "s"
        ExperimentStore(root)
        (root / "meta.json").write_text(
            json.dumps({"format": STORE_FORMAT + 1}))
        with pytest.raises(ExperimentStoreError, match="format"):
            ExperimentStore(root)

    def test_open_store_coercion(self, tmp_path):
        assert open_store(None) is None
        store = ExperimentStore(tmp_path / "s")
        assert open_store(store) is store
        opened = open_store(tmp_path / "other")
        assert isinstance(opened, ExperimentStore)
        assert opened.root == tmp_path / "other"

    def test_leftover_claim_markers_are_inert(self, tmp_path):
        # Older versions wrote claim markers under ``claims/`` beside the
        # records; a store that still holds them reads as before.
        store = ExperimentStore(tmp_path / "s")
        key = "ab" + "0" * 62
        store.put(key, {"value": 1})
        marker = store.root / "claims" / key[:2] / f"{key}.claim"
        marker.parent.mkdir(parents=True)
        marker.write_text("owner")
        reopened = ExperimentStore(tmp_path / "s")
        assert list(reopened.keys()) == [key]
        assert reopened.get(key) == {"value": 1}


class TestExecuteWithStore:
    def test_second_run_executes_nothing(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        tasks = [dict(value=i) for i in range(4)]
        first = parallel.execute(_tracked, tasks, store=store)
        assert first == [0, 2, 4, 6]
        assert CALLS == [0, 1, 2, 3]
        second = parallel.execute(_tracked, tasks,
                                  store=ExperimentStore(tmp_path / "s"))
        assert second == first
        assert CALLS == [0, 1, 2, 3], "warm run must not call the task fn"

    def test_partial_store_executes_only_missing(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        tasks = [dict(value=i) for i in range(6)]
        parallel.execute(_tracked, tasks[:3], store=store)
        CALLS.clear()
        resumed = parallel.execute(_tracked, tasks, store=store)
        assert resumed == [0, 2, 4, 6, 8, 10]
        assert CALLS == [3, 4, 5], "cached prefix must not re-execute"

    def test_results_keep_task_order_with_interleaved_cache(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        tasks = [dict(value=i) for i in range(6)]
        parallel.execute(_tracked, tasks[::2], store=store)  # 0, 2, 4 cached
        CALLS.clear()
        out = parallel.execute(_tracked, tasks, store=store)
        assert out == [0, 2, 4, 6, 8, 10]
        assert CALLS == [1, 3, 5]

    def test_no_resume_recomputes_and_overwrites(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        tasks = [dict(value=i) for i in range(3)]
        keys = [store.key(_tracked, task) for task in tasks]
        parallel.execute(_tracked, tasks, store=store)
        store.put(keys[1], -999)  # poison one entry
        poisoned = parallel.execute(_tracked, tasks, store=store)
        assert poisoned == [0, -999, 4], "resume=True must trust the store"
        fresh = parallel.execute(_tracked, tasks, store=store, resume=False)
        assert fresh == [0, 2, 4]
        assert store.get(keys[1]) == 2, "no-cache run must repair the entry"

    def test_store_accepts_plain_path(self, tmp_path):
        tasks = [dict(value=i) for i in range(2)]
        parallel.execute(_tracked, tasks, store=tmp_path / "s")
        CALLS.clear()
        parallel.execute(_tracked, tasks, store=tmp_path / "s")
        assert CALLS == []

    def test_fingerprint_change_invalidates(self, tmp_path):
        tasks = [dict(value=i) for i in range(2)]
        parallel.execute(_tracked, tasks,
                         store=ExperimentStore(tmp_path / "s"))
        CALLS.clear()
        changed = ExperimentStore(tmp_path / "s", fingerprint="edited-code")
        parallel.execute(_tracked, tasks, store=changed)
        assert CALLS == [0, 1], "a code change must miss, never go stale"

    def test_parallel_jobs_persist_every_record(self, tmp_path):
        store = ExperimentStore(tmp_path / "s")
        tasks = [dict(value=i) for i in range(5)]
        out = parallel.execute(_tracked, tasks, jobs=3, store=store)
        assert out == [0, 2, 4, 6, 8]
        assert store.writes == 5
        warm = ExperimentStore(tmp_path / "s")
        assert parallel.execute(_tracked, tasks, jobs=3, store=warm) == out
        assert warm.writes == 0 and warm.hits == 5


class TestRunBatchStore:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("store")
        store = ExperimentStore(root)
        records = run_grid(store=store)
        assert store.writes == len(records) == 4
        return root, records

    def test_warm_rerun_is_identical_and_executes_nothing(self, cold):
        root, cold_records = cold
        store = ExperimentStore(root)
        warm = run_grid(store=store)
        assert store.writes == 0, "warm store must dispatch zero tasks"
        assert store.hits == len(cold_records)
        assert_records_equal(cold_records, warm, include_runtime=True)

    def test_warm_parallel_rerun_is_identical(self, cold):
        root, cold_records = cold
        store = ExperimentStore(root)
        warm = run_grid(store=store, jobs=3)
        assert store.writes == 0
        assert_records_equal(cold_records, warm, include_runtime=True)

    def test_store_backed_equals_storeless(self, cold):
        _, cold_records = cold
        assert_records_equal(cold_records, run_grid())

    def test_partial_store_runs_only_missing_cells(self, cold, tmp_path):
        _, cold_records = cold
        store = ExperimentStore(tmp_path / "partial")
        # Simulate an interrupted grid: only the "P" cells finished.
        run_grid(methods=("P",), store=store)
        assert store.writes == 2
        resumed = run_grid(store=store)
        assert store.hits == 2 and store.writes == 4
        assert_records_equal(cold_records, resumed)

    def test_partial_store_parallel_resume(self, cold, tmp_path):
        # Exercises the pooled path on a half-warm store, including the
        # warmup filtering down to the functions with pending tasks.
        _, cold_records = cold
        store = ExperimentStore(tmp_path / "partial-par")
        run_grid(methods=("P",), store=store)
        resumed = run_grid(store=store, jobs=2)
        assert store.hits == 2 and store.writes == 4
        assert_records_equal(cold_records, resumed)

    def test_config_change_does_not_hit_cache(self, cold):
        root, _ = cold
        store = ExperimentStore(root)
        run_grid(store=store, n_reps=1, n=121)
        assert store.hits == 0 and store.writes == 2


class TestRunThirdPartyStore:
    def test_warm_rerun_is_identical_and_executes_nothing(self, tmp_path):
        kwargs = dict(n_splits=3, n_reps=2, tune_metamodel=False)
        store = ExperimentStore(tmp_path / "s")
        cold = run_third_party("lake", "P", store=store, **kwargs)
        assert store.writes == len(cold) == 6
        warm_store = ExperimentStore(tmp_path / "s")
        warm = run_third_party("lake", "P", store=warm_store, **kwargs)
        assert warm_store.writes == 0 and warm_store.hits == 6
        assert_records_equal(cold, warm, include_runtime=True)
        assert_records_equal(cold, run_third_party("lake", "P", **kwargs))
