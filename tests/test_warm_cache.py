"""The warm-cache primitive: LRU, checkout, single-flight, counters,
weights, fork.

:class:`repro.warm.WarmCache` backs every cache a session keeps warm
(pools, resident segments, fits, pool labels, training sets), so its
contract is pinned here directly rather than only through those owners.
"""

import os
import threading
import time

import pytest

from repro import warm
from repro.warm import WarmCache


@pytest.fixture(autouse=True)
def _closed_scope():
    """No test leaves the process-wide warm scope open."""
    yield
    while warm.active():
        warm.leave()


class TestLRU:
    def test_cap_evicts_least_recently_used_with_callback(self):
        evicted = []
        cache = WarmCache(cap=2, on_evict=evicted.append)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # "b" is now the LRU entry
        cache.put("c", 3)
        assert evicted == [2]
        assert cache.get("b") is None
        cache.put("d", 4)
        assert evicted == [2, 1]
        assert cache.values() == [3, 4]
        assert len(cache) == 2

    def test_replacing_a_key_evicts_the_old_value(self):
        evicted = []
        cache = WarmCache(on_evict=evicted.append)
        cache.put("k", "old")
        cache.put("k", "old")
        assert evicted == []
        cache.put("k", "new")
        assert evicted == ["old"]
        assert cache.get("k") == "new"

    def test_clear_evicts_everything_and_returns_it(self):
        evicted = []
        cache = WarmCache(on_evict=evicted.append)
        for key in "xyz":
            cache.put(key, key.upper())
        assert cache.clear() == ["X", "Y", "Z"]
        assert evicted == ["X", "Y", "Z"]
        assert len(cache) == 0
        assert cache.clear() == []


class TestCheckout:
    def test_pop_is_exclusive(self):
        evicted = []
        cache = WarmCache(on_evict=evicted.append)
        cache.put("pool", "p1")
        assert cache.pop("pool") == "p1"
        assert cache.pop("pool") is None
        assert cache.get("pool") is None
        # A checked-out value left the cache; it is not evicted.
        assert evicted == []
        cache.put("pool", "p1")
        assert cache.get("pool") == "p1"


class TestSingleFlight:
    def test_concurrent_callers_share_one_create(self):
        cache = WarmCache()
        started, release = threading.Event(), threading.Event()
        calls = []

        def create():
            calls.append(1)
            started.set()
            release.wait(5)
            return "fitted"

        out = []
        first = threading.Thread(
            target=lambda: out.append(cache.get_or_create("k", create)))
        first.start()
        assert started.wait(5)
        second = threading.Thread(
            target=lambda: out.append(cache.get_or_create("k", create)))
        second.start()
        time.sleep(0.05)  # let the second caller block on the first
        release.set()
        first.join(5)
        second.join(5)
        assert out == ["fitted", "fitted"]
        assert len(calls) == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_waiter_takes_over_when_create_raises(self):
        cache = WarmCache()
        started, release = threading.Event(), threading.Event()
        calls = []

        def failing():
            calls.append("failing")
            started.set()
            release.wait(5)
            raise RuntimeError("fit failed")

        def working():
            calls.append("working")
            return "fitted"

        errors, out = [], []

        def first_caller():
            try:
                cache.get_or_create("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        first = threading.Thread(target=first_caller)
        first.start()
        assert started.wait(5)
        second = threading.Thread(
            target=lambda: out.append(cache.get_or_create("k", working)))
        second.start()
        time.sleep(0.05)  # let the second caller block on the first
        release.set()
        first.join(5)
        second.join(5)
        assert len(errors) == 1
        assert out == ["fitted"]
        assert calls == ["failing", "working"]
        assert cache.get("k") == "fitted"

    def test_create_returning_none_caches_nothing(self):
        cache = WarmCache()
        assert cache.get_or_create("k", lambda: None) is None
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0
        assert cache.get_or_create("k", lambda: 5) == 5


class TestCounters:
    def test_hits_misses_and_named_counters(self):
        cache = WarmCache()
        cache.get("absent")
        cache.put("k", 1)
        cache.get("k")
        cache.pop("k")
        cache.pop("k")
        cache.count("spawned")
        cache.count("spawned", 2)
        assert cache.stats() == {"hits": 2, "misses": 2, "spawned": 3,
                                 "size": 0}
        cache.put("k", 1)
        cache.reset_counters()
        assert cache.stats() == {"hits": 0, "misses": 0, "spawned": 0,
                                 "size": 1}


class TestScope:
    def test_last_leave_clears_every_cache(self):
        evicted = []
        cache = WarmCache(on_evict=evicted.append)
        warm.enter()
        warm.enter()
        cache.put("k", "v")
        warm.leave()
        assert warm.active()
        assert evicted == []
        warm.leave()
        assert not warm.active()
        assert evicted == ["v"]
        assert len(cache) == 0
        warm.leave()  # idempotent at depth zero
        assert not warm.active()


class TestWeight:
    def test_cap_counts_weight_and_evicts_lru(self):
        evicted = []
        cache = WarmCache(cap=10, on_evict=evicted.append, weight=len)
        cache.put("a", "aaaa")
        cache.put("b", "bbbb")
        assert cache.peek("a") == "aaaa"      # "b" is now the LRU entry
        cache.put("c", "ccc")
        assert evicted == ["bbbb"]
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 2,
                                 "weight": 7}
        cache.put("a", "a")                   # replacing reweighs
        assert cache.stats()["weight"] == 4
        assert cache.pop("c") == "ccc"
        assert cache.stats()["weight"] == 1

    def test_value_heavier_than_the_cap_is_not_cached(self):
        evicted = []
        cache = WarmCache(cap=10, on_evict=evicted.append, weight=len)
        cache.put("a", "aaaa")
        cache.put("big", "x" * 11)
        assert evicted == ["x" * 11]
        assert cache.values() == ["aaaa"]
        assert cache.stats()["weight"] == 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    def test_child_starts_empty_parent_untouched(self):
        evicted = []
        cache = WarmCache(on_evict=evicted.append)
        cache.put("k", "parent-value")
        cache.get("k")
        parent_lock = cache._lock
        read_end, write_end = os.pipe()
        warm.enter()
        try:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 0
                try:
                    checks = (
                        len(cache) == 0,
                        cache.stats() == {"hits": 0, "misses": 0,
                                          "size": 0},
                        cache._lock is not parent_lock,
                        not cache._lock.locked(),
                        warm.active(),
                        evicted == [],
                    )
                    cache.put("child", 1)
                    checks += (cache.get("child") == 1,)
                    code = 0 if all(checks) else 1
                except BaseException:
                    code = 2
                os.write(write_end, bytes([code]))
                os._exit(0)
            os.close(write_end)
            result = os.read(read_end, 1)
            os.waitpid(pid, 0)
            assert result == bytes([0])
            assert cache.values() == ["parent-value"]
            assert cache.stats() == {"hits": 1, "misses": 0, "size": 1}
            assert cache._lock is parent_lock
            assert warm.active()
        finally:
            os.close(read_end)
            warm.leave()
        # The parent's entry was evicted by its own scope teardown only.
        assert evicted == ["parent-value"]
