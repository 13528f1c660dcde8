"""LRU cache semantics: hits, misses, evictions, single-flight."""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import CacheStats, LRUCache


class TestBasicSemantics:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", 41)
        assert cache.get("k") == 41
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1

    def test_put_replaces_value(self):
        cache = LRUCache(capacity=4)
        cache.put("k", "old")
        cache.put("k", "new")
        assert cache.get("k") == "new"
        assert len(cache) == 1

    def test_contains(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        assert "k" in cache
        assert "other" not in cache

    def test_clear_keeps_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestEviction:
    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_items_snapshot_preserves_recency_order(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b becomes LRU
        assert cache.items() == (("b", 2), ("a", 1))


class TestGetOrCompute:
    def test_computes_once_then_hits(self):
        cache = LRUCache(capacity=4)
        calls = []

        def produce():
            calls.append(1)
            return "value"

        value, hit = cache.get_or_compute("k", produce)
        assert (value, hit) == ("value", False)
        value, hit = cache.get_or_compute("k", produce)
        assert (value, hit) == ("value", True)
        assert len(calls) == 1

    def test_producer_error_propagates_and_key_stays_absent(self):
        cache = LRUCache(capacity=4)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert "k" not in cache
        # The key is computable again afterwards.
        value, hit = cache.get_or_compute("k", lambda: 7)
        assert (value, hit) == (7, False)

    def test_concurrent_same_key_runs_producer_once(self):
        cache = LRUCache(capacity=4)
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def slow_produce():
            calls.append(1)
            entered.set()
            release.wait(timeout=5)
            return "value"

        outcomes = []

        def worker():
            outcomes.append(cache.get_or_compute("k", slow_produce))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        assert entered.wait(timeout=5)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(calls) == 1, "producer must run exactly once"
        assert all(value == "value" for value, _ in outcomes)
        # Exactly one caller computed; the waiters observed a hit.
        assert sum(1 for _, hit in outcomes if not hit) == 1


class TestStats:
    def test_hit_rate_and_describe(self):
        stats = CacheStats(hits=3, misses=1, evictions=0, entries=2)
        assert stats.requests == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert "75% hit rate" in stats.describe()
        assert stats.as_dict()["hits"] == 3

    def test_untouched_cache_has_zero_hit_rate(self):
        assert LRUCache().stats.hit_rate == 0.0
