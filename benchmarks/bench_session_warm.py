"""Benchmark: warm execution sessions vs one-shot cold calls.

A scenario-discovery service answers a stream of labeling requests
over the same simulated dataset: fit a metamodel, label a fresh pool.
One-shot, every request pays the full cold start — metamodel fit, pool
spawn, shared-memory publish.  Inside a
:class:`repro.experiments.session.Session` the fit is memoized by
content key, worker pools survive across calls, and published segments
stay resident — so a steady-state request pays only the labeling walk.

This benchmark times ``CALLS`` cold one-shot requests against the same
requests through one warm session and records the observable reuse:
pool spawns (``REDS_SPAWN_LOG`` lines), segment publications, fit-memo
hits, and the number of shm segments left after session close (must be
zero).  Outputs are asserted bit-identical — warm serving is a cache,
never a different computation.  The label memo would serve these
repeats without touching a pool, so this leg runs with its byte cap at
zero: it measures the fit memo and the cached pools.

A second leg runs the method stream RPx -> RPcx -> RPxp -> RBIcxp on
one dataset and seed, cold and in a session, and counts labelling
passes and pool draws.  Cold, each method labels its pool (4 passes);
warm, the label memo serves RPcx from RPx's hard labels and RBIcxp's
10^4 rows from RPxp's 10^5 soft ones (2 passes).  Cold, each method
draws its pool (4 draws); warm, the pool memo draws the 10^5-row pool
once for the three PRIM methods and RBIcxp's 10^4 rows once (2 draws).
The column-index memo sorts each of those two pools once and holds
nothing else: 2 misses, 2 entries (the training set RPcx searches and
RBIcxp's depth-search folds are not memoized).  Results are asserted
identical.

The ``>= 3x`` steady-state floor is asserted on the cached-metamodel
path: a warm call that hits the fit memo skips the dominant cost, so
the floor holds wherever the memo applies — ``floor_asserted`` records
truthfully whether the warm loop actually hit it.  ``jobs`` is pinned
at 2, so counts are CPU-count independent (a 1-CPU container asserts
the same numbers).  Machine-readable results land in
``benchmarks/results/BENCH_session_warm.json`` and are mirrored to the
tracked repo-root ``results/``.
"""

import importlib
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from _common import emit, emit_json
from repro import warm
from repro.core.methods import discover
from repro.core.reds import LABEL_MEMO, fit_metamodel, fit_stats
from repro.experiments import dataplane
from repro.experiments.dataplane import resident_stats
from repro.experiments.parallel import pool_stats
from repro.experiments.session import Session
from repro.metamodels.base import predict_chunked
from repro.subgroup.index import INDEX_MEMO

N, M = 1200, 8
L = 30_000
CALLS = 5
JOBS = 2

#: The method stream of the second leg: two pairs of methods that label
#: one pool (hard labels, then the soft labels of a 10^5-row pool and
#: its first 10^4 rows).
STREAM = ("RPx", "RPcx", "RPxp", "RBIcxp")
STREAM_SEED = 3

#: Asserted whenever the warm loop actually hit the fit memo: a
#: steady-state warm request must beat the one-shot cold path by at
#: least this factor (the fit it skips dominates the request).
WARM_FLOOR = 3.0


def _dataset():
    rng = np.random.default_rng(23)
    x = rng.random((N, M))
    rule = (x[:, 0] > 0.3) & (x[:, 1] + 0.4 * x[:, 2] < 0.9)
    flip = rng.random(N) < 0.2
    y = (rule ^ flip).astype(float)
    pool = rng.random((L, M))
    return x, y, pool


def _shm_segments() -> set:
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir(root)
            if name.startswith(dataplane.SEGMENT_PREFIX)}


def _method_stream(x, y):
    """Cold and warm runs of :data:`STREAM`: seconds, label passes,
    pool draws and column-index memo counters."""
    reds_module = importlib.import_module("repro.core.reds")
    label, uniform = reds_module.predict_chunked, reds_module._uniform
    passes, draws = [], []

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return label(*args, **kwargs)

    def drawing(n, m, rng):
        draws.append(n)
        return uniform(n, m, rng)

    def run_stream():
        t0 = time.perf_counter()
        results = [discover(method, x, y, seed=STREAM_SEED,
                            tune_metamodel=False, jobs=JOBS)
                   for method in STREAM]
        return results, time.perf_counter() - t0

    reds_module.predict_chunked = counting
    reds_module._uniform = drawing
    try:
        cold, cold_s = run_stream()
        cold_passes, cold_draws = len(passes), list(draws)
        LABEL_MEMO.reset_counters()
        INDEX_MEMO.reset_counters()
        with Session(jobs=JOBS, tune=False):
            warm, warm_s = run_stream()
            memo = LABEL_MEMO.stats()
            index = INDEX_MEMO.stats()
            index_rows = sorted(len(entry.blocks)
                                for entry in INDEX_MEMO.values())
    finally:
        reds_module.predict_chunked = label
        reds_module._uniform = uniform
    for a, b in zip(cold, warm):
        assert a.hyperparams == b.hyperparams
        assert a.train_quality == b.train_quality
        for box_a, box_b in zip(a.boxes + [a.chosen_box],
                                b.boxes + [b.chosen_box]):
            assert np.array_equal(box_a.lower, box_b.lower)
            assert np.array_equal(box_a.upper, box_b.upper), \
                "the label memo changed a result"
    return {"cold_seconds": cold_s, "warm_seconds": warm_s,
            "cold_passes": cold_passes,
            "warm_passes": len(passes) - cold_passes,
            "memo_hits": memo["hits"], "cold_draws": cold_draws,
            "warm_draws": draws[len(cold_draws):],
            "index_misses": index["misses"], "index_rows": index_rows}


def test_session_warm_speedup(benchmark):
    x, y, pool = _dataset()
    spawn_log = Path(tempfile.mkdtemp()) / "spawns.log"
    os.environ["REDS_SPAWN_LOG"] = str(spawn_log)
    segments_before = _shm_segments()

    def cold_request():
        fitted = fit_metamodel("boosting", x, y, tune=False)
        return predict_chunked(fitted, pool, jobs=JOBS)

    def run():
        out = {}
        cold_times, cold_labels = [], []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            cold_labels.append(cold_request())
            cold_times.append(time.perf_counter() - t0)
        cold_spawns = len(spawn_log.read_text().splitlines())

        warm.reset_counters()
        warm_times, warm_labels = [], []
        memo_cap, LABEL_MEMO.cap = LABEL_MEMO.cap, 0
        try:
            with Session(jobs=JOBS, tune=False) as session:
                for _ in range(CALLS):
                    t0 = time.perf_counter()
                    warm_labels.append(session.label(x, y, pool))
                    warm_times.append(time.perf_counter() - t0)
                out["pools"] = pool_stats()
                out["dataplane"] = resident_stats()
                out["metamodel"] = fit_stats()
        finally:
            LABEL_MEMO.cap = memo_cap
        out["cold_times"] = cold_times
        out["warm_times"] = warm_times
        out["cold_spawns"] = cold_spawns
        out["warm_spawns"] = (len(spawn_log.read_text().splitlines())
                              - cold_spawns)
        for labels in cold_labels + warm_labels:
            assert np.array_equal(labels, cold_labels[0]), \
                "warm serving changed the labels"
        out["stream"] = _method_stream(x, y)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    leaked = sorted(_shm_segments() - segments_before)

    cold_mean = float(np.mean(out["cold_times"]))
    # Steady state: every warm call after the first (the first pays the
    # one fit the session then serves CALLS - 1 times from the memo).
    warm_steady = float(np.mean(out["warm_times"][1:]))
    speedup = cold_mean / warm_steady
    hits = out["metamodel"]["hits"]
    floor_asserted = hits > 0
    stream = out["stream"]

    emit("session_warm", "\n".join([
        f"warm session vs one-shot, N={N}, M={M}, L={L}, "
        f"{CALLS} requests, jobs={JOBS}:",
        f"  cold one-shot        {cold_mean * 1e3:8.0f} ms/request   "
        f"{out['cold_spawns']} pool spawn(s)",
        f"  warm steady-state    {warm_steady * 1e3:8.0f} ms/request   "
        f"{out['warm_spawns']} pool spawn(s)   {speedup:5.2f} x",
        f"  fit memo: {out['metamodel']['fits']} fit(s), {hits} hit(s); "
        f"pools: {out['pools']['spawned']} spawned, "
        f"{out['pools']['reused']} reused; segments: "
        f"{out['dataplane']['published']} published, "
        f"{out['dataplane']['reused']} republishes avoided; "
        f"{len(leaked)} leaked after close",
        f"method stream {' -> '.join(STREAM)} (seed {STREAM_SEED}):",
        f"  cold  {stream['cold_seconds']:6.2f} s   "
        f"{stream['cold_passes']} label passes   "
        f"{len(stream['cold_draws'])} pool draws",
        f"  warm  {stream['warm_seconds']:6.2f} s   "
        f"{stream['warm_passes']} label passes   "
        f"{stream['memo_hits']} label memo hit(s)   "
        f"{len(stream['warm_draws'])} pool draws   "
        f"{stream['index_misses']} column-index sorts",
    ]))

    emit_json("BENCH_session_warm", {
        "n": N, "m": M, "l": L, "calls": CALLS, "jobs": JOBS,
        "cold_seconds_per_request": cold_mean,
        "warm_steady_seconds_per_request": warm_steady,
        "warm_first_seconds": out["warm_times"][0],
        "speedup": speedup,
        "cold_pool_spawns": out["cold_spawns"],
        "warm_pool_spawns": out["warm_spawns"],
        "pools_spawned": out["pools"]["spawned"],
        "pools_reused": out["pools"]["reused"],
        "segments_published": out["dataplane"]["published"],
        "segments_reused": out["dataplane"]["reused"],
        "metamodel_fits": out["metamodel"]["fits"],
        "metamodel_hits": hits,
        "leaked_segments": len(leaked),
        "warm_floor": WARM_FLOOR,
        "floor_asserted": floor_asserted,
        "stream_methods": list(STREAM),
        "stream_cold_seconds": stream["cold_seconds"],
        "stream_warm_seconds": stream["warm_seconds"],
        "stream_cold_label_passes": stream["cold_passes"],
        "stream_warm_label_passes": stream["warm_passes"],
        "stream_label_memo_hits": stream["memo_hits"],
        "stream_cold_pool_draws": stream["cold_draws"],
        "stream_warm_pool_draws": stream["warm_draws"],
        "stream_index_misses": stream["index_misses"],
        "stream_index_rows": stream["index_rows"],
    })

    # A session must never leak segments, whatever the speedup.
    assert leaked == [], f"leaked shm segments after close: {leaked}"
    # Each warm call after the first must be served entirely from warm
    # state: one pool spawn and one publish per distinct signature.
    assert out["warm_spawns"] <= out["pools"]["spawned"]
    assert out["pools"]["reused"] >= CALLS - 1
    # The label memo halves the stream's labelling passes.
    assert (stream["cold_passes"], stream["warm_passes"]) == (4, 2)
    # The pool memo draws each of the seed's pools once: the 10^5 rows
    # the PRIM methods peel and RBIcxp's 10^4.
    assert stream["cold_draws"] == [100_000] * 3 + [10_000]
    assert stream["warm_draws"] == [100_000, 10_000]
    # The index memo sorts those two pools once each and memoizes no
    # training set or fold.
    assert stream["index_misses"] == 2
    assert stream["index_rows"] == [10_000, 100_000]
    if floor_asserted:
        assert speedup >= WARM_FLOOR, (
            f"steady-state warm speedup {speedup:.2f}x is below the "
            f"{WARM_FLOOR}x floor")
