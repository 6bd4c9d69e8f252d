"""Unit tests for the serving tier's result cache."""

import pytest

from repro.obs import MetricsRegistry
from repro.serve import LRUCache


def test_lru_hit_miss_and_eviction_order():
    m = MetricsRegistry()
    cache = LRUCache(2, m)
    assert cache.lookup("a") == (False, None)
    cache.insert("a", 1)
    cache.insert("b", 2)
    assert cache.lookup("a") == (True, 1)  # refreshes a
    cache.insert("c", 3)  # evicts b, the coldest
    assert "b" not in cache
    assert cache.lookup("b") == (False, None)
    assert cache.lookup("a") == (True, 1)
    assert cache.lookup("c") == (True, 3)
    assert len(cache) == 2
    assert m.total("serve.result_cache.hits") == 3
    assert m.total("serve.result_cache.misses") == 2
    assert m.total("serve.result_cache.evictions") == 1


def test_lru_insert_refreshes_existing_key():
    cache = LRUCache(2)
    cache.insert("a", 1)
    cache.insert("b", 2)
    cache.insert("a", 10)  # refresh, not growth
    cache.insert("c", 3)  # now b is coldest
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.lookup("a") == (True, 10)


def test_lru_clear_and_capacity_validation():
    cache = LRUCache(4)
    cache.insert("a", 1)
    cache.clear()
    assert len(cache) == 0
    with pytest.raises(ValueError):
        LRUCache(0)
