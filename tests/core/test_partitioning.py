"""Unit tests for the hash partitioner."""

import numpy as np
import pytest

from repro.core.partitioning import HashPartitioner


def test_deterministic_and_in_range():
    p = HashPartitioner(13)
    keys = np.arange(10_000, dtype=np.uint64)
    d1 = p.partition_of(keys)
    d2 = p.partition_of(keys)
    assert np.array_equal(d1, d2)
    assert d1.min() >= 0 and d1.max() < 13


def test_scalar_matches_vector():
    p = HashPartitioner(64)
    keys = np.arange(100, dtype=np.uint64)
    vec = p.partition_of(keys)
    assert all(p.partition_of_one(int(k)) == vec[i] for i, k in enumerate(keys))
    for i in range(0, keys.size, 7):  # a one-key array takes the scalar twin
        one = p.partition_of(keys[i : i + 1])
        assert one.dtype == vec.dtype and one.tolist() == vec[i : i + 1].tolist()


def test_load_balance():
    """Online partitioning must load-balance (§I)."""
    p = HashPartitioner(16)
    keys = np.random.default_rng(1).integers(0, 2**63, size=160_000, dtype=np.uint64)
    counts = np.bincount(p.partition_of(keys), minlength=16)
    assert counts.max() / counts.min() < 1.1


def test_split_partitions_everything_exactly_once():
    p = HashPartitioner(7)
    keys = np.random.default_rng(2).integers(0, 2**63, size=5000, dtype=np.uint64)
    groups = p.split(keys)
    assert len(groups) == 7
    all_idx = np.concatenate(groups)
    assert sorted(all_idx) == list(range(5000))
    for dest, idx in enumerate(groups):
        assert np.all(p.partition_of(keys[idx]) == dest)


def test_split_empty():
    p = HashPartitioner(3)
    groups = p.split(np.zeros(0, dtype=np.uint64))
    assert [g.size for g in groups] == [0, 0, 0]


def test_different_seeds_differ():
    keys = np.arange(1000, dtype=np.uint64)
    a = HashPartitioner(8, seed=1).partition_of(keys)
    b = HashPartitioner(8, seed=2).partition_of(keys)
    assert not np.array_equal(a, b)


def test_single_partition():
    p = HashPartitioner(1)
    assert np.all(p.partition_of(np.arange(10, dtype=np.uint64)) == 0)


def test_invalid_nparts():
    with pytest.raises(ValueError):
        HashPartitioner(0)


def test_equality_and_repr():
    assert HashPartitioner(4, seed=1) == HashPartitioner(4, seed=1)
    assert HashPartitioner(4, seed=1) != HashPartitioner(4, seed=2)
    assert "nparts=4" in repr(HashPartitioner(4))
