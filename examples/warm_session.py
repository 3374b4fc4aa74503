"""Warm execution sessions: serving repeated discovery work.

A one-shot ``reds()``/``discover()`` call pays its whole cold start
every time — fit the metamodel, spawn a worker pool, publish the
shared arrays.  When the *same* data is queried repeatedly (a notebook
iterating on one simulated dataset, a service answering labeling
requests), a :class:`~repro.experiments.session.Session` keeps that
state warm: fitted metamodels are memoized by data content, so are the
labels a fit gave a pool, worker pools survive across calls, and
published segments stay resident in shared memory.  This walkthrough
shows:

1. repeated labeling of one pool — the first call fits the metamodel,
   spawns the pool, publishes the arrays and labels; the rest are
   served from the label memo;
2. the reuse counters — one fit, one pool spawn, one publish and one
   labelling pass, however many requests arrive;
3. batched requests over *distinct* pools — each batch pays its own
   pool and publish (different data, different plan), but they all
   share the single memoized fit;
4. bit-identity — warm answers equal one-shot answers exactly — and
   teardown: closing the session leaves zero warm state behind.

Run:  python examples/warm_session.py
"""

import time

import numpy as np

from repro.experiments import Session, resident_stats
from repro.experiments.parallel import pool_stats
from repro.metamodels.base import predict_chunked
from repro.metamodels.tuning import make_metamodel

rng = np.random.default_rng(7)
x = rng.random((1500, 6))
y = ((x[:, 0] > 0.4) & (x[:, 1] + 0.3 * x[:, 2] < 0.8)).astype(float)
x_new = rng.random((20_000, 6))
batches = [rng.random((8_000, 6)) for _ in range(3)]

REQUESTS = 4

# 1 — a warm session answering repeated requests over one pool (the
# notebook workflow: relabel while iterating on thresholds/plots).
times = []
with Session(jobs=2, tune=False) as session:
    warm = []
    for _ in range(REQUESTS):
        start = time.perf_counter()
        warm.append(session.label(x, y, x_new))
        times.append(time.perf_counter() - start)

    # 2 — the reuse counters: everything after the first request is
    # served from warm state — the same fit's memoized labels.
    stats = session.stats()
    print(f"requests: {REQUESTS} (same pool)")
    print(f"  first (pays the cold start): {times[0] * 1e3:7.0f} ms")
    print(f"  steady-state mean:           "
          f"{np.mean(times[1:]) * 1e3:7.0f} ms  "
          f"(x{times[0] / np.mean(times[1:]):.1f} faster)")
    print(f"  metamodel: {stats['metamodel']['fits']} fit, "
          f"{stats['metamodel']['hits']} memo hits")
    print(f"  labels:    {stats['labels']['misses']} labelled, "
          f"{stats['labels']['hits']} label memo hits")
    print(f"  pools:     {stats['pools']['spawned']} spawned, "
          f"{stats['pools']['reused']} served warm")
    print(f"  dataplane: {stats['dataplane']['published']} published, "
          f"{stats['dataplane']['reused']} republishes avoided")

    # 3 — distinct batches are distinct plans (each ships its own
    # data), so each pays a pool and a publish — but the fit memo
    # still serves them all from the one cached metamodel.
    before = session.stats()["metamodel"]
    batch_out = session.label_batch(
        [dict(x=x, y=y, x_new=batch) for batch in batches])
    after = session.stats()["metamodel"]
    print(f"\nlabel_batch over {len(batches)} distinct batches: "
          f"{after['fits'] - before['fits']} new fits, "
          f"{after['hits'] - before['hits']} memo hits")

# 4 — warm answers are bit-identical to the one-shot path: a session
# is a cache, never a different computation.
cold_model = make_metamodel("boosting").fit(x, y)
for labels in warm:
    assert np.array_equal(predict_chunked(cold_model, x_new, jobs=2),
                          labels)
for batch, labels in zip(batches, batch_out):
    assert np.array_equal(predict_chunked(cold_model, batch, jobs=2),
                          labels)
print("every warm answer is bit-identical to its one-shot twin")

# 4 — close() (here via the context manager) drained the pools,
# unlinked the resident segments and cleared the fit and label memos.
assert pool_stats()["cached"] == 0
assert resident_stats()["resident"] == 0
print("after close: zero cached pools, zero resident segments")
