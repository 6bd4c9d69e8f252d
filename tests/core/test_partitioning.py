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


def test_same_parameters_same_partitions_and_repr():
    """Two partitioners of one ``(nparts, seed)`` agree on every key (a
    reader rebuilds the writer's from those two numbers); another seed
    moves some keys."""
    keys = np.random.default_rng(3).integers(0, 2**63, size=2000, dtype=np.uint64)
    same = HashPartitioner(4, seed=1).partition_of(keys)
    assert np.array_equal(same, HashPartitioner(4, seed=1).partition_of(keys))
    assert not np.array_equal(same, HashPartitioner(4, seed=2).partition_of(keys))
    assert "nparts=4" in repr(HashPartitioner(4))
