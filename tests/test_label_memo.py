"""The warm label memo: labelled pools shared across requests.

Inside a warm scope REDS step 3 and ``Session.label`` memoize the
labels a fitted metamodel gave a pool, keyed by the fit memo's key plus
the pool (its content, or the generator state and sampler it is drawn
with).  The memo is a cache, never a semantic change: every result here
is compared bit for bit (boxes, chosen box, hyperparameters, training
quality, labels and their dtype) with the one-shot path, and the number
of labelling passes (calls of the ``repro.core.reds.predict_chunked``
binding) pins what was shared.
"""

import importlib
import os

import numpy as np
import pytest

from repro import warm
from repro.core.methods import discover
from repro.core.reds import LABEL_MEMO, LABEL_MEMO_BYTES, reds
from repro.experiments import parallel
from repro.experiments.dataplane import shutdown_resident
from repro.experiments.harness import run_batch
from repro.experiments.session import Session
from repro.metamodels.base import predict_chunked
from repro.metamodels.tuning import make_metamodel
from repro.sampling.designs import QuantizedUniform, quantize_levels

from test_parallel_harness import assert_records_identical

reds_module = importlib.import_module("repro.core.reds")


@pytest.fixture(autouse=True)
def _cold_memo():
    """Every test starts and ends with an empty memo and a closed scope."""
    LABEL_MEMO.clear()
    LABEL_MEMO.reset_counters()
    yield
    while warm.active():
        warm.leave()
    parallel.close_pools()
    shutdown_resident()
    LABEL_MEMO.clear()
    LABEL_MEMO.reset_counters()


@pytest.fixture
def passes(monkeypatch):
    """The ``(rows, soft)`` of every labelling pass REDS makes."""
    calls = []

    def counting(model, x, **kwargs):
        calls.append((len(x), bool(kwargs.get("soft"))))
        return predict_chunked(model, x, **kwargs)

    monkeypatch.setattr(reds_module, "predict_chunked", counting)
    return calls


def _toy_data(n=240, m=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, m))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0.9).astype(float)
    return x, y


def _mixed_data(n=240, seed=0):
    """Two numeric columns and a 3-level categorical code column."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    x[:, 2] = rng.integers(0, 3, n)
    y = ((x[:, 0] > 0.4) & (x[:, 2] != 1)).astype(float)
    return x, y


def _same_result(a, b):
    assert a.hyperparams == b.hyperparams
    assert a.train_quality == b.train_quality
    assert len(a.boxes) == len(b.boxes)
    for box_a, box_b in zip(a.boxes + [a.chosen_box], b.boxes + [b.chosen_box]):
        np.testing.assert_array_equal(box_a.lower, box_b.lower)
        np.testing.assert_array_equal(box_a.upper, box_b.upper)


def _stream(methods, x, y, **kwargs):
    kwargs = {"seed": 4, "tune_metamodel": False, **kwargs}
    return [discover(method, x, y, **kwargs) for method in methods]


def _warm_stream(methods, x, y, **kwargs):
    kwargs = {"seed": 4, "tune_metamodel": False, **kwargs}
    with Session(tune=False) as session:
        return [session.discover(method, x, y, **kwargs) for method in methods]


class TestSharingPairs:
    """Every pair of REDS requests that label one pool, warm vs cold."""

    @pytest.mark.parametrize("first,second,warm_passes,soft_as_hard", [
        # hard then hard: RPcx reads RPx's labels.
        ("RPx", "RPcx", 1, 0),
        # hard then soft: soft labels are never read off hard ones.
        ("RPx", "RPxp", 2, 0),
        # soft then hard: boosting's hard labels are soft > 0.5.
        ("RPxp", "RPx", 1, 1),
        ("RPfp", "RPf", 1, 1),
        # svm's hard labels are the margin's sign: never derived.
        ("RPsp", "RPs", 2, 0),
    ])
    def test_pair_matches_cold(self, passes, first, second, warm_passes,
                               soft_as_hard):
        x, y = _toy_data()
        kwargs = {"n_new": 3000}
        cold = _stream((first, second), x, y, **kwargs)
        assert len(passes) == 2
        passes.clear()
        warm_results = _warm_stream((first, second), x, y, **kwargs)
        assert len(passes) == warm_passes
        for a, b in zip(cold, warm_results):
            _same_result(a, b)
        stats = LABEL_MEMO.stats()
        assert stats["hits"] == 2 - warm_passes
        assert stats.get("soft_as_hard", 0) == soft_as_hard

    def test_bi_prefix_served_from_prim_pool(self, passes):
        # RBIcxp's L=10^4 pool is the first 10^4 rows of RPxp's 10^5.
        x, y = _toy_data()
        cold = _stream(("RPxp", "RBIcxp"), x, y)
        assert passes == [(100_000, True), (10_000, True)]
        passes.clear()
        warm_results = _warm_stream(("RPxp", "RBIcxp"), x, y)
        assert passes == [(100_000, True)]
        for a, b in zip(cold, warm_results):
            _same_result(a, b)

    def test_longer_request_after_shorter_relabels(self, passes):
        x, y = _toy_data()
        cold = [discover("RPx", x, y, seed=2, n_new=n, tune_metamodel=False)
                for n in (1000, 3000, 2000)]
        passes.clear()
        with Session(tune=False) as session:
            warm_results = [session.discover("RPx", x, y, seed=2, n_new=n)
                            for n in (1000, 3000, 2000)]
        assert passes == [(1000, False), (3000, False)]
        for a, b in zip(cold, warm_results):
            _same_result(a, b)

    def test_other_seed_or_fit_misses(self, passes):
        x, y = _toy_data()
        x2, y2 = _toy_data(seed=1)
        with Session(tune=False) as session:
            session.discover("RPx", x, y, seed=1, n_new=2000)
            session.discover("RPx", x, y, seed=2, n_new=2000)
            session.discover("RPx", x2, y2, seed=1, n_new=2000)
            session.discover("RPf", x, y, seed=1, n_new=2000)
            session.discover("RPx", x, y, seed=1, n_new=2000,
                             engine="reference")
        assert len(passes) == 5

    def test_caller_pool_reused_across_methods_and_label(self, passes):
        x, y = _toy_data()
        pool = np.random.default_rng(9).random((2500, 4))
        cold = _stream(("RPx", "RPcx", "RPxp"), x, y, pool=pool)
        cold_hard = make_metamodel("boosting").fit(x, y).predict(pool)
        passes.clear()
        with Session(tune=False) as session:
            warm_results = [session.discover(method, x, y, seed=4,
                                             pool=pool.copy())
                            for method in ("RPx", "RPcx", "RPxp")]
            labels = session.label(x, y, pool)
        assert passes == [(2500, False), (2500, True)]
        for a, b in zip(cold, warm_results):
            _same_result(a, b)
        np.testing.assert_array_equal(labels, cold_hard)
        assert labels.dtype == cold_hard.dtype

    def test_cat_levels_share_through_quantized_sampler(self, passes):
        x, y = _mixed_data()
        kwargs = {"n_new": 3000, "cat_levels": {2: 3}}
        cold = _stream(("RPx", "RPcx"), x, y, **kwargs)
        passes.clear()
        warm_results = _warm_stream(("RPx", "RPcx"), x, y, **kwargs)
        assert len(passes) == 1
        for a, b in zip(cold, warm_results):
            _same_result(a, b)

    def test_custom_sampler_is_not_memoised(self, passes):
        x, y = _toy_data()

        def sampler(n, m, rng):
            return rng.random((n, m))

        with Session(tune=False) as session:
            for _ in range(2):
                session.discover("RPx", x, y, seed=4, n_new=2000,
                                 sampler=sampler)
        assert len(passes) == 2
        assert len(LABEL_MEMO) == 0
        assert LABEL_MEMO.stats()["misses"] == 0


class TestQuantizedUniform:
    def test_draws_match_closure_and_fill_rows_in_order(self):
        levels = {2: 3, 0: 4}
        sampler = QuantizedUniform(levels)
        long = sampler(500, 3, np.random.default_rng(7))
        expected = quantize_levels(np.random.default_rng(7).random((500, 3)),
                                   levels)
        assert long.tobytes() == expected.tobytes()
        short = sampler(120, 3, np.random.default_rng(7))
        assert short.tobytes() == long[:120].tobytes()

    def test_equal_and_hashable_by_levels(self):
        a = QuantizedUniform({2: 3, 0: 4})
        b = QuantizedUniform({0: 4, 2: 3})
        assert a == b and hash(a) == hash(b)
        assert a != QuantizedUniform({0: 4, 2: 5})


class TestSessionLabel:
    def test_hard_and_soft_in_either_order_match_cold(self, passes):
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((3000, 4))
        cold_model = make_metamodel("boosting").fit(x, y)
        cold_hard = cold_model.predict(x_new)
        cold_soft = cold_model.predict_proba(x_new)
        for order in ((False, True), (True, False)):
            LABEL_MEMO.clear()
            passes.clear()
            with Session(tune=False) as session:
                out = {soft: session.label(x, y, x_new, soft=soft)
                       for soft in order + order}
            assert len(passes) == (2 if order == (False, True) else 1)
            for soft, cold in ((False, cold_hard), (True, cold_soft)):
                np.testing.assert_array_equal(out[soft], cold)
                assert out[soft].dtype == cold.dtype

    def test_svm_hard_after_soft_computes(self, passes):
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((800, 4))
        cold = make_metamodel("svm").fit(x, y).predict(x_new)
        with Session(tune=False) as session:
            session.label(x, y, x_new, metamodel="svm", soft=True)
            hard = session.label(x, y, x_new, metamodel="svm")
        assert passes == [(800, True), (800, False)]
        np.testing.assert_array_equal(hard, cold)
        assert hard.dtype == cold.dtype

    def test_jobs_reach_fit_and_labelling_unchanged(self, monkeypatch):
        # Results are jobs-invariant, so the recorders run the real
        # stages inline; they only check what the session passed on.
        seen = []
        tune = reds_module.tune_metamodel

        def tune_recorder(kind, x, y, **kwargs):
            seen.append(("fit", kwargs["jobs"]))
            return tune(kind, x, y, **{**kwargs, "jobs": 1})

        def label_recorder(model, x, **kwargs):
            seen.append(("label", kwargs["jobs"]))
            return predict_chunked(model, x, **{**kwargs, "jobs": 1})

        monkeypatch.setattr(reds_module, "tune_metamodel", tune_recorder)
        monkeypatch.setattr(reds_module, "predict_chunked", label_recorder)
        x, y = _toy_data(n=120)
        x_new = np.random.default_rng(5).random((300, 4))
        with Session(jobs=None, tune=True) as session:
            session.label(x, y, x_new, metamodel="forest")
        assert seen == [("fit", None), ("label", None)]

    def test_stats_report_the_label_memo(self):
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((1000, 4))
        with Session(tune=False) as session:
            session.label(x, y, x_new, soft=True)
            session.label(x, y, x_new)
            session.label(x, y, x_new, soft=True)
            stats = session.stats()["labels"]
        assert stats == {"hits": 2, "misses": 1, "soft_as_hard": 1,
                         "bytes": 8000, "size": 1}


class TestScopeAndSafety:
    def test_no_memo_outside_a_scope(self, passes):
        x, y = _toy_data()
        _stream(("RPx", "RPcx", "RPx"), x, y, n_new=2000)
        assert len(passes) == 3
        assert len(LABEL_MEMO) == 0
        stats = LABEL_MEMO.stats()
        assert (stats["hits"], stats["misses"], stats["weight"]) == (0, 0, 0)

    def test_returned_arrays_never_change_a_later_hit(self):
        x, y = _toy_data()
        x_new = np.random.default_rng(5).random((1000, 4))
        cold_model = make_metamodel("boosting").fit(x, y)
        cold = reds(x, y, lambda a, b: None, n_new=500, tune=False,
                    rng=np.random.default_rng(3))
        with Session(tune=False) as session:
            for soft in (True, False):
                first = session.label(x, y, x_new, soft=soft)
                first[:] = 7
                again = session.label(x, y, x_new, soft=soft)
                expected = (cold_model.predict_proba(x_new) if soft
                            else cold_model.predict(x_new))
                np.testing.assert_array_equal(again, expected)
            first = reds(x, y, lambda a, b: None, n_new=500, tune=False,
                         rng=np.random.default_rng(3))
            first.y_new[:] = 7
            later = reds(x, y, lambda a, b: None, n_new=500, tune=False,
                         rng=np.random.default_rng(3))
            for labels in LABEL_MEMO.values():
                with pytest.raises(ValueError, match="read-only"):
                    labels[0] = labels[1]
        np.testing.assert_array_equal(later.y_new, cold.y_new)

    def test_label_memo_cap_counts_bytes(self, passes, monkeypatch):
        # Room for one 2000-row soft pool (16000 bytes) and no more.
        monkeypatch.setattr(LABEL_MEMO, "cap", 20_000)
        x, y = _toy_data()
        with Session(tune=False) as session:
            def request(seed, n):
                session.discover("RPxp", x, y, seed=seed, n_new=n)

            request(1, 2000)
            request(2, 2000)                  # evicts seed 1's labels
            assert LABEL_MEMO.stats()["weight"] == 16_000
            request(1, 2000)                  # relabels, evicts seed 2's
            request(1, 3000)                  # 24000 bytes: not cached
            assert LABEL_MEMO.stats()["weight"] == 16_000
            request(1, 2000)                  # the 2000 rows still hit
        assert len(passes) == 4
        assert LABEL_MEMO_BYTES <= 32 * 2**20

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_sees_an_empty_memo(self):
        x, y = _toy_data()
        read_end, write_end = os.pipe()
        with Session(tune=False) as session:
            session.label(x, y, x[:100])
            assert len(LABEL_MEMO) == 1
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                ok = (len(LABEL_MEMO) == 0 and warm.active()
                      and LABEL_MEMO.stats() == {"hits": 0, "misses": 0,
                                                 "size": 0, "weight": 0})
                os.write(write_end, b"1" if ok else b"0")
                os._exit(0)
            os.close(write_end)
            result = os.read(read_end, 1)
            os.waitpid(pid, 0)
            os.close(read_end)
            assert len(LABEL_MEMO) == 1
        assert result == b"1"

    def test_run_batch_in_a_scope_matches_cold(self, passes):
        methods = ("RPx", "RPcx", "RPxp", "RBIcxp")
        kwargs = dict(n_new=1500, tune_metamodel=False, test_size=1000,
                      jobs=1)
        cold = run_batch(("ishigami",), methods, 120, 2, **kwargs)
        assert len(passes) == 8
        passes.clear()
        warm.enter()
        try:
            warm_records = run_batch(("ishigami",), methods, 120, 2, **kwargs)
        finally:
            warm.leave()
        # Per repetition: RPx labels, RPcx reads it; RPxp labels soft,
        # RBIcxp reads the same rows' soft labels.
        assert len(passes) == 4
        assert_records_identical(cold, warm_records)
