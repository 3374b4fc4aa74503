"""Warm execution sessions: equivalence, reuse accounting, zero leaks.

The contract (ISSUE 10): a :class:`repro.experiments.session.Session`
serves repeated discovery work from warm state — cached worker pools,
a resident shared-memory registry, memoized metamodel fits — with
results **bit-identical** to the one-shot path at every
engine/executor/jobs setting, zero redundant pool spawns and zero
redundant segment publications across warm calls (CPU-count
independent: everything here pins explicit ``jobs=`` values, so it
asserts the same counts on a 1-CPU container), and zero leaked shm
segments after session close.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import warm
from repro.cli import main
from repro.core.reds import LABEL_MEMO, fit_metamodel, fit_stats
from repro.experiments import parallel
from repro.experiments.dataplane import (
    active_segments,
    resident_segment_names,
    resident_stats,
)
from repro.experiments.harness import run_batch
from repro.experiments.parallel import pool_stats
from repro.experiments.session import Session
from repro.metamodels.base import predict_chunked
from repro.metamodels.tuning import make_metamodel
from repro.subgroup.index import INDEX_MEMO

from test_parallel_harness import assert_records_identical


@pytest.fixture(autouse=True)
def _cold_start():
    """Every test starts and ends with no warm state."""
    warm.clear_all()
    warm.reset_counters()
    yield
    warm.clear_all()


def _square(value: int) -> int:
    return value * value


def _raise_on(value: int, bad: int) -> int:
    if value == bad:
        raise ValueError(f"bad value {value}")
    return value


def _toy_data(n=240, m=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, m))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0.9).astype(float)
    return x, y


class TestSessionLifecycle:
    def test_env_toggled_and_restored(self):
        assert not warm.active()
        with Session():
            assert warm.active()
        assert not warm.active()

    def test_spawned_worker_joins_scope_from_bootstrap(self):
        # The scope reaches pool workers through _init_worker's
        # arguments, not through fork inheritance.
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        for flag in (True, False):
            with ProcessPoolExecutor(
                    1, mp_context=context,
                    initializer=parallel._init_worker,
                    initargs=(None, None, 1, flag)) as pool:
                assert pool.submit(warm.active).result(timeout=60) is flag

    def test_nested_sessions_refcount(self):
        with Session():
            with Session():
                assert warm.active()
            # The inner close must not tear the outer session down.
            assert warm.active()
        assert not warm.active()

    def test_requests_require_open_session(self):
        session = Session()
        x, y = _toy_data()
        with pytest.raises(RuntimeError, match="not open"):
            session.label(x, y, x)

    def test_label_rejects_non_binary_labels(self):
        x, y = _toy_data()
        with Session(tune=False) as session:
            with pytest.raises(ValueError, match="binary labels"):
                session.label(x, 2 * y, x, metamodel="forest")

    @pytest.mark.parametrize("case,match", [
        ("nan", "x_new column 1 holds NaN or inf"),
        ("inf", "x_new column 1 holds NaN or inf"),
        ("1-D", "x_new must be a 2-D array with the 4 columns"),
        ("wide", "x_new must be a 2-D array with the 4 columns"),
        ("empty", "x_new holds no rows"),
    ])
    def test_label_rejects_unusable_rows(self, case, match):
        x, y = _toy_data()
        x_new = np.random.default_rng(1).random((50, 4))
        if case in ("nan", "inf"):
            x_new[3, 1] = np.nan if case == "nan" else np.inf
        elif case == "1-D":
            x_new = x_new[0]
        elif case == "wide":
            x_new = np.random.default_rng(1).random((50, 5))
        else:
            x_new = x_new[:0]
        with Session(tune=False) as session:
            with pytest.raises(ValueError, match=match):
                session.label(x, y, x_new, metamodel="forest")

    def test_close_is_idempotent(self):
        session = Session().open()
        session.close()
        session.close()
        assert not warm.active()


class TestFitMemo:
    def test_same_object_and_identical_predictions(self):
        x, y = _toy_data()
        x_new = np.random.default_rng(7).random((500, x.shape[1]))
        cold = make_metamodel("boosting").fit(x, y).predict(x_new)
        before = fit_stats()
        with Session(tune=False):
            a = fit_metamodel("boosting", x, y, tune=False)
            b = fit_metamodel("boosting", x, y, tune=False)
            assert a is b
            warm = a.predict(x_new)
        after = fit_stats()
        assert after["fits"] - before["fits"] == 1
        assert after["hits"] - before["hits"] == 1
        np.testing.assert_array_equal(cold, warm)

    def test_distinct_configs_do_not_collide(self):
        x, y = _toy_data()
        x2, y2 = _toy_data(seed=3)
        with Session(tune=False):
            a = fit_metamodel("boosting", x, y, tune=False)
            b = fit_metamodel("boosting", x2, y2, tune=False)
            c = fit_metamodel("forest", x, y, tune=False)
            assert a is not b
            assert a is not c

    def test_no_memo_outside_session(self):
        x, y = _toy_data()
        a = fit_metamodel("boosting", x, y, tune=False)
        b = fit_metamodel("boosting", x, y, tune=False)
        assert a is not b


class TestWarmEquivalence:
    def test_label_matches_cold_hard_and_soft(self):
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((3000, x.shape[1]))
        cold_model = make_metamodel("boosting").fit(x, y)
        cold_hard = predict_chunked(cold_model, x_new, jobs=2)
        cold_soft = predict_chunked(cold_model, x_new, soft=True, jobs=2)
        with Session(jobs=2, tune=False) as session:
            warm_hard = session.label(x, y, x_new)
            warm_soft = session.label(x, y, x_new, soft=True)
        np.testing.assert_array_equal(cold_hard, warm_hard)
        np.testing.assert_array_equal(cold_soft, warm_soft)

    def test_label_batch_shares_one_fit(self):
        x, y = _toy_data()
        rng = np.random.default_rng(11)
        news = [rng.random((400, x.shape[1])) for _ in range(3)]
        before = fit_stats()
        with Session(jobs=1, tune=False) as session:
            out = session.label_batch(
                [dict(x=x, y=y, x_new=xn) for xn in news])
        after = fit_stats()
        assert after["fits"] - before["fits"] == 1
        assert after["hits"] - before["hits"] == 2
        cold_model = make_metamodel("boosting").fit(x, y)
        for xn, warm in zip(news, out):
            np.testing.assert_array_equal(cold_model.predict(xn), warm)

    def test_run_batch_warm_identical_to_cold(self):
        kwargs = dict(n_new=1200, tune_metamodel=False, test_size=1200,
                      jobs=2)
        cold = run_batch(("ishigami",), ("P", "RPf"), 120, 2, **kwargs)
        with Session(jobs=2, tune=False):
            warm1 = run_batch(("ishigami",), ("P", "RPf"), 120, 2, **kwargs)
            warm2 = run_batch(("ishigami",), ("P", "RPf"), 120, 2, **kwargs)
        assert_records_identical(cold, warm1)
        assert_records_identical(cold, warm2)

    def test_discover_and_trajectory_match_cold(self):
        from repro.core.methods import discover
        from repro.experiments.harness import get_test_data
        from repro.metrics.trajectory import peeling_trajectory

        x, y = _toy_data(n=150, m=3)
        cold = discover("P", x, y, jobs=1)
        x_test, y_test = get_test_data("ishigami", size=1000)
        cold_traj = peeling_trajectory(cold.boxes, x_test, y_test, jobs=2)
        with Session(jobs=2) as session:
            warm = session.discover("P", x, y, jobs=1)
            warm_traj = session.trajectory(warm.boxes, x_test, y_test)
        np.testing.assert_array_equal(cold.chosen_box.lower,
                                      warm.chosen_box.lower)
        np.testing.assert_array_equal(cold.chosen_box.upper,
                                      warm.chosen_box.upper)
        np.testing.assert_array_equal(cold_traj, warm_traj)

    def test_sibling_peels_share_one_column_index(self, monkeypatch):
        """RPx, RPxp, RPcx and RPf at one seed peel one drawn pool: the
        first peel sorts it and the others read its memoized index.  A
        pool of the same shape drawn at another seed gets its own, and
        RPcx's alpha search over the training set memoizes none."""
        from repro.core.methods import discover
        from repro.experiments import dataplane

        x, y = _toy_data()
        requests = [("RPx", 4), ("RPxp", 4), ("RPcx", 4), ("RPf", 4),
                    ("RPx", 5)]
        kwargs = dict(n_new=3000, tune_metamodel=False, jobs=1)
        INDEX_MEMO.reset_counters()
        with monkeypatch.context() as patch:
            # The cold path neither hashes nor stores.
            patch.setattr(dataplane, "content_key", None)
            cold = [discover(method, x, y, seed=seed, **kwargs)
                    for method, seed in requests]
        assert INDEX_MEMO.stats() == {"hits": 0, "misses": 0, "size": 0,
                                      "weight": 0}
        seen = []
        with Session(jobs=1, tune=False) as session:
            for (method, seed), before in zip(requests, cold):
                after = session.discover(method, x, y, seed=seed, **kwargs)
                assert ([b.key() for b in after.boxes + [after.chosen_box]]
                        == [b.key() for b in before.boxes + [before.chosen_box]])
                index = session.stats()["index"]
                seen.append((index["hits"], index["misses"]))
            # Two pools of 4 columns: int32 orders and keys over whole
            # blocks (13 rows a block for a 3000-row pool: 3003
            # positions) and a uint16 block number per row.
            assert index["size"] == 2
            assert index["bytes"] == 2 * (2 * 4 * 4 * 3003 + 2 * 4 * 3000)
            for entry in INDEX_MEMO.values():
                for array in (entry.orders, entry.keys, entry.blocks):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0, 0] = 1
        # One miss for the seed-4 pool, then hits, and one miss for the
        # seed-5 pool.
        assert seen == [(0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        assert len(INDEX_MEMO) == 0

    def test_drawn_pools_are_keyed_by_their_draw(self, monkeypatch):
        """RPx, RPxp and RPf at one seed find the column index of the
        pool they draw by its draw: the pool is never hashed.  A shorter
        draw from the same generator state, a prefix of that pool with
        the same block size, gets its own index, and a caller's
        ``pool=`` is still hashed."""
        from repro.core.methods import discover
        from repro.experiments import dataplane

        x, y = _toy_data()
        n_new, n_short = 3000, 2800
        content_key = dataplane.content_key
        hashed = []

        def spy(array):
            hashed.append(np.shape(array))
            return content_key(array)

        monkeypatch.setattr(dataplane, "content_key", spy)
        kwargs = dict(tune_metamodel=False, jobs=1)
        cold_short = discover("RPx", x, y, seed=4, n_new=n_short, **kwargs)
        with Session(jobs=1, tune=False) as session:
            for method in ("RPx", "RPxp", "RPf"):
                session.discover(method, x, y, seed=4, n_new=n_new, **kwargs)
            assert hashed and (n_new, x.shape[1]) not in hashed
            assert len(INDEX_MEMO) == 1
            short = session.discover("RPx", x, y, seed=4, n_new=n_short,
                                     **kwargs)
            assert len(INDEX_MEMO) == 2
            assert ([b.key() for b in short.boxes]
                    == [b.key() for b in cold_short.boxes])
            assert (n_short, x.shape[1]) not in hashed
            pool = np.random.default_rng(4).random((n_new, x.shape[1]))
            session.discover("RPx", x, y, seed=4, pool=pool, **kwargs)
            assert (n_new, x.shape[1]) in hashed
            assert len(INDEX_MEMO) == 3

    def test_bi_pool_index_is_memoized_by_name(self, monkeypatch):
        """A warm RBIcxp request memoizes the column index of its
        10^4-row pool under the pool's name, memoizes none of its
        depth-search folds, and returns a cold run's boxes."""
        from repro.core.methods import discover
        from repro.subgroup import index

        x, y = _toy_data()
        kwargs = dict(tune_metamodel=False, jobs=1)
        cold = discover("RBIcxp", x, y, seed=4, **kwargs)
        built, sorted_columns = [], []
        build, order = index._build_column_index, index._column_order

        def spy(rows, block):
            built.append(len(rows))
            return build(rows, block)

        def spy_order(column):
            sorted_columns.append(len(column))
            return order(column)

        monkeypatch.setattr(index, "_build_column_index", spy)
        monkeypatch.setattr(index, "_column_order", spy_order)
        INDEX_MEMO.reset_counters()
        with Session(jobs=1, tune=False) as session:
            warm = session.discover("RBIcxp", x, y, seed=4, **kwargs)
            stats = session.stats()["index"]
            [entry] = INDEX_MEMO.values()
        assert (stats["misses"], stats["size"]) == (1, 1)
        assert entry.blocks.shape == (10_000, x.shape[1])
        # The pool's index is built once; every fold of the depth
        # search sorts its orders alone, afresh, and is dropped.
        assert built == [10_000]
        assert any(rows != 10_000 for rows in sorted_columns)
        assert ([b.key() for b in warm.boxes + [warm.chosen_box]]
                == [b.key() for b in cold.boxes + [cold.chosen_box]])

    def test_caller_pool_is_hashed_once(self, monkeypatch):
        """A caller's ``pool=`` is hashed once per warm REDS request: the
        label memo's content key also names the pool for the column
        index.  The boxes equal a cold run's."""
        from repro.core.methods import discover
        from repro.experiments import dataplane

        x, y = _toy_data()
        pool = np.random.default_rng(4).random((3000, x.shape[1]))
        content_key = dataplane.content_key
        hashed = []

        def spy(array):
            hashed.append(np.shape(array))
            return content_key(array)

        kwargs = dict(tune_metamodel=False, jobs=1)
        cold = discover("RPx", x, y, seed=4, pool=pool, **kwargs)
        monkeypatch.setattr(dataplane, "content_key", spy)
        with Session(jobs=1, tune=False) as session:
            warm = session.discover("RPx", x, y, seed=4, pool=pool, **kwargs)
            assert hashed.count(pool.shape) == 1
            assert len(INDEX_MEMO) == 1
        assert pool.flags.writeable
        assert [b.key() for b in warm.boxes] == [b.key() for b in cold.boxes]


class TestReuseAccounting:
    """The spawn-count regression tests (ISSUE 10 satellite)."""

    def test_warm_labels_spawn_each_signature_once(self, tmp_path,
                                                   monkeypatch):
        log = tmp_path / "spawns.log"
        monkeypatch.setenv("REDS_SPAWN_LOG", str(log))
        # A zero byte cap keeps the label memo from serving the repeats,
        # so every call labels through the cached pool
        # (tests/test_label_memo.py covers the memo serving them).
        monkeypatch.setattr(LABEL_MEMO, "cap", 0)
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((3000, x.shape[1]))
        warm.reset_counters()
        outs = []
        with Session(jobs=2, tune=False) as session:
            outs.append(session.label(x, y, x_new))
            after_first = (len(log.read_text().splitlines()),
                           resident_stats()["published"])
            for _ in range(3):
                outs.append(session.label(x, y, x_new))
            after_last = (len(log.read_text().splitlines()),
                          resident_stats()["published"])
            stats = session.stats()
        # Every warm call after the first: zero new pool spawns, zero
        # new segment publications — one spawn per distinct signature,
        # one publish per distinct content key, total.
        assert after_last == after_first
        assert stats["pools"]["spawned"] == 1
        assert stats["pools"]["reused"] == 3
        assert stats["dataplane"]["reused"] >= 3
        assert stats["metamodel"]["fits"] == 1
        assert stats["metamodel"]["hits"] == 3
        for out in outs[1:]:
            np.testing.assert_array_equal(outs[0], out)

    def test_distinct_signatures_each_spawn_once(self, tmp_path,
                                                 monkeypatch):
        log = tmp_path / "spawns.log"
        monkeypatch.setenv("REDS_SPAWN_LOG", str(log))
        x, y = _toy_data()
        a = np.random.default_rng(1).random((2000, x.shape[1]))
        b = np.random.default_rng(2).random((2000, x.shape[1]))
        warm.reset_counters()
        with Session(jobs=2, tune=False) as session:
            for _ in range(2):
                session.label(x, y, a)
                session.label(x, y, b)
        # Two distinct x_new contents -> two plan signatures -> exactly
        # two spawn-log lines however many times each is requested.
        assert len(log.read_text().splitlines()) == 2
        assert pool_stats()["spawned"] == 2


class TestGuardedDispatchInSession:
    """Cached pools run through the one guarded dispatch loop at
    ``retries=0`` too: a pool that died between plans is respawned,
    and a task's own error still reaches the caller unchanged."""

    def test_pool_killed_between_plans_respawns_once(self):
        tasks = [{"value": v} for v in range(6)]
        with Session(jobs=2):
            first = parallel.execute(_square, tasks, jobs=2)
            assert pool_stats()["cached"] == 1
            spawned = pool_stats()["spawned"]
            workers = multiprocessing.active_children()
            assert workers
            for worker in workers:
                os.kill(worker.pid, signal.SIGKILL)
            for worker in workers:
                worker.join(5)
            second = parallel.execute(_square, tasks, jobs=2)
            assert pool_stats()["spawned"] == spawned + 1
            assert pool_stats()["cached"] == 1
        assert first == [v * v for v in range(6)]
        assert second == first

    def test_task_error_propagates_pool_not_cached(self):
        tasks = [{"value": v, "bad": 3} for v in range(6)]
        with Session(jobs=2):
            with pytest.raises(ValueError, match="bad value 3"):
                parallel.execute(_raise_on, tasks, jobs=2)
            assert pool_stats()["spawned"] == 1
            assert pool_stats()["cached"] == 0


class TestTeardown:
    def test_close_leaves_zero_warm_state(self):
        from repro.data import get_model
        from repro.experiments.harness import make_train_data

        model = get_model("ishigami")
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((2000, x.shape[1]))
        with Session(jobs=2, tune=False) as session:
            session.label(x, y, x_new)
            train_x, _ = make_train_data(model, 100, 3)
            assert make_train_data(model, 100, 3)[0] is train_x
            assert pool_stats()["cached"] >= 1
            assert resident_stats()["resident"] >= 1
        assert pool_stats()["cached"] == 0
        assert resident_segment_names() == []
        assert resident_stats()["resident"] == 0
        assert active_segments() == []
        assert fit_stats()["cached"] == 0
        # The training-set cache was emptied too: a new session
        # regenerates instead of serving the closed session's arrays.
        with Session():
            assert make_train_data(model, 100, 3)[0] is not train_x

    def test_train_cache_entries_are_read_only(self):
        from repro.data import get_model
        from repro.experiments.harness import make_train_data

        model = get_model("ishigami")
        cold_x, cold_y = make_train_data(model, 100, 3)
        with Session():
            x1, y1 = make_train_data(model, 100, 3)
            x2, y2 = make_train_data(model, 100, 3)
            assert x1 is x2 and y1 is y2
            with pytest.raises(ValueError):
                x1[0, 0] = 99.0
        np.testing.assert_array_equal(cold_x, x1)
        np.testing.assert_array_equal(cold_y, y1)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states from /proc")
    def test_sigterm_leaves_no_orphaned_workers(self):
        """A SIGTERM skips every exit handler of a warm session, so its
        cached pool is never shut down; the workers must notice their
        parent is gone and exit on their own."""
        script = "\n".join([
            "import multiprocessing, time",
            "from repro.experiments import parallel",
            "from repro.experiments.session import Session",
            "def square(value):",
            "    return value * value",
            "with Session(jobs=2):",
            "    parallel.execute(square, [{'value': v} for v in range(4)],",
            "                     jobs=2)",
            "    print(*[p.pid for p in multiprocessing.active_children()],",
            "          flush=True)",
            "    time.sleep(120)",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        workers = []
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while (any(_process_alive(pid) for pid in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not [pid for pid in workers if _process_alive(pid)]
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in workers:
                if _process_alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _process_alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody reaped yet counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


class TestSessionCLI:
    def test_session_subcommand_prints_table_and_stats(self, capsys):
        assert main(["session", "--function", "ishigami",
                     "--methods", "P,BI", "--n", "100", "--reps", "2",
                     "--n-new", "500", "--no-tune",
                     "--test-size", "800", "--jobs", "2"]) == 0
        outerr = capsys.readouterr()
        assert "warm session:" in outerr.out
        assert "pool(s) spawned" in outerr.out
        # The CLI session must also tear down cleanly.
        assert pool_stats()["cached"] == 0
        assert resident_segment_names() == []

    def test_session_matches_compare_table(self, capsys):
        args = ["--function", "ishigami", "--methods", "P", "--n", "100",
                "--reps", "2", "--n-new", "400", "--no-tune",
                "--test-size", "800", "--jobs", "1"]
        assert main(["compare"] + args) == 0
        cold_out = capsys.readouterr().out
        assert main(["session"] + args) == 0
        warm_out = capsys.readouterr().out
        cold_rows = [line for line in cold_out.splitlines()
                     if line and not line.startswith(("-", "ishigami"))
                     and "runtime" not in line]
        warm_rows = [line for line in warm_out.splitlines()
                     if line and not line.startswith(("-", "ishigami"))
                     and "runtime" not in line and "warm session" not in line]
        assert cold_rows == warm_rows
