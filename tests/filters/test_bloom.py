"""Unit tests for the Bloom filter."""

import numpy as np
import pytest

from repro.filters.bloom import BloomFilter, false_positive_rate, optimal_nhashes
from repro.filters.hashing import hash_pair


def test_no_false_negatives():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2**63, size=50_000, dtype=np.uint64)
    f = BloomFilter.from_bits_per_key(keys.size, 10)
    f.add_many(keys)
    assert f.contains_many(keys).all()


def test_empirical_fpr_tracks_analytic():
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 2**62, size=100_000, dtype=np.uint64)
    probes = rng.integers(2**62, 2**63, size=200_000, dtype=np.uint64)
    for bpk in (8, 12, 16):
        f = BloomFilter.from_bits_per_key(keys.size, bpk, seed=bpk)
        f.add_many(keys)
        measured = f.contains_many(probes).mean()
        analytic = false_positive_rate(bpk)
        assert measured == pytest.approx(analytic, rel=0.35, abs=1e-4)


def test_single_item_api():
    f = BloomFilter(1024, 4)
    assert 123 not in f
    f.add(123)
    assert 123 in f
    assert len(f) == 1


def test_empty_batch_ops():
    f = BloomFilter(64, 1)
    f.add_many(np.zeros(0, dtype=np.uint64))
    assert f.contains_many(np.zeros(0, dtype=np.uint64)).shape == (0,)
    assert len(f) == 0


def test_serialization_roundtrip():
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 2**63, size=5_000, dtype=np.uint64)
    f = BloomFilter.from_bits_per_key(keys.size, 12)  # an SSTable's filter: seed 0
    f.add_many(keys)
    g = BloomFilter.from_bytes(f.to_bytes(), f.nhashes)
    assert g.contains_many(keys).all()
    assert g.nbits == f.nbits
    assert g.size_bytes == f.size_bytes


def test_from_bytes_rejects_ragged_input():
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(b"abc", 3)


def test_size_accounting():
    f = BloomFilter(1000, 3)
    assert f.nbits == 1024  # rounded up to word multiple
    assert f.size_bytes == 128


def test_optimal_nhashes():
    assert optimal_nhashes(10) == 7
    assert optimal_nhashes(1) == 1
    assert optimal_nhashes(14) == 10


def test_false_positive_rate_monotone():
    rates = [false_positive_rate(b) for b in range(2, 30, 2)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert false_positive_rate(0) == 1.0


def test_invalid_construction():
    with pytest.raises(ValueError):
        BloomFilter(0, 3)
    with pytest.raises(ValueError):
        BloomFilter(64, 0)
    with pytest.raises(ValueError):
        BloomFilter.from_bits_per_key(0, 8)
    with pytest.raises(ValueError):
        BloomFilter.from_bits_per_key(10, 0)


def test_key_rank_mapping_usage():
    """The paper's aux-table pattern: insert key‖rank, probe all ranks."""
    nranks = 64
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2**63, size=2_000, dtype=np.uint64)
    true_ranks = rng.integers(0, nranks, size=keys.size, dtype=np.uint64)
    f = BloomFilter.from_bits_per_key(keys.size, 12)
    f.add_many(hash_pair(keys, true_ranks))
    # Every true mapping must be found.
    assert f.contains_many(hash_pair(keys, true_ranks)).all()
    # Average candidates per key stays near 1 + (nranks-1)*fpr.
    sample = keys[:200]
    cands = np.zeros(sample.size)
    for r in range(nranks):
        cands += f.contains_many(hash_pair(sample, np.uint64(r)))
    expected = 1 + (nranks - 1) * false_positive_rate(12)
    assert cands.mean() == pytest.approx(expected, rel=0.5)


def test_scalar_membership_equals_the_batch_test():
    """`key in bf` probes on plain ints; `contains_many` on arrays."""
    rng = np.random.default_rng(12)
    for seed, bits in ((0, 10.0), (7, 3.0), (99, 16.0)):
        bf = BloomFilter.from_bits_per_key(500, bits, seed=seed)
        present = rng.integers(0, 2**64, size=500, dtype=np.uint64)
        bf.add_many(present)
        probe = np.concatenate([present, rng.integers(0, 2**64, size=1500, dtype=np.uint64)])
        batch = bf.contains_many(probe)
        assert [int(k) in bf for k in probe] == batch.tolist()
        for i in range(0, probe.size, 97):  # one digest takes `__contains__`
            assert bf.contains_many(probe[i : i + 1]).tolist() == batch[i : i + 1].tolist()
