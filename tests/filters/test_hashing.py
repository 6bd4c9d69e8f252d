"""Unit tests for the vectorized hashing primitives."""

import numpy as np
import pytest

from repro.filters.hashing import (
    double_hash_probes,
    double_hash_probes_int,
    fingerprint,
    hash64,
    hash64_int,
    hash_pair,
    splitmix64,
)


def test_splitmix64_deterministic():
    x = np.arange(100, dtype=np.uint64)
    assert np.array_equal(splitmix64(x), splitmix64(x))


def test_splitmix64_is_injective_on_sample():
    x = np.arange(1 << 16, dtype=np.uint64)
    out = splitmix64(x)
    assert len(np.unique(out)) == x.size


def test_splitmix64_scalar_matches_array():
    arr = splitmix64(np.asarray([42], dtype=np.uint64))
    assert splitmix64(42) == arr[0]


def test_splitmix64_avalanche():
    # Flipping one input bit should flip ~half the output bits on average.
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2**63, size=2000, dtype=np.uint64)
    flipped = x ^ np.uint64(1)
    diff = splitmix64(x) ^ splitmix64(flipped)
    mean_bits = np.bitwise_count(diff).mean()
    assert 28 < mean_bits < 36


def test_hash64_seed_independence():
    x = np.arange(1000, dtype=np.uint64)
    a = hash64(x, seed=1)
    b = hash64(x, seed=2)
    assert not np.array_equal(a, b)
    # Correlation between the two hash streams should be negligible.
    matches = (a == b).sum()
    assert matches == 0


def test_hash_pair_sensitive_to_both_parts():
    keys = np.arange(100, dtype=np.uint64)
    assert not np.array_equal(hash_pair(keys, 1), hash_pair(keys, 2))
    assert not np.array_equal(hash_pair(keys, 1), hash_pair(keys + np.uint64(1), 1))


def test_hash_pair_deterministic_across_shapes():
    one = hash_pair(5, 7)
    many = hash_pair(np.asarray([5], dtype=np.uint64), np.asarray([7], dtype=np.uint64))
    assert one[()] == many[0]


def test_fingerprint_range_and_nonzero():
    keys = np.arange(100_000, dtype=np.uint64)
    for bits in (1, 4, 8, 16, 32):
        fp = fingerprint(keys, bits)
        assert fp.min() >= 1
        assert fp.max() <= (1 << bits) - 1


def test_fingerprint_roughly_uniform():
    keys = np.arange(160_000, dtype=np.uint64)
    fp = fingerprint(keys, 4)
    counts = np.bincount(fp, minlength=16)[1:]  # values 1..15
    expected = keys.size / 15
    assert np.all(np.abs(counts - expected) < 0.05 * expected)


def test_fingerprint_rejects_bad_width():
    with pytest.raises(ValueError):
        fingerprint(np.asarray([1], dtype=np.uint64), 0)
    with pytest.raises(ValueError):
        fingerprint(np.asarray([1], dtype=np.uint64), 33)


def test_double_hash_probes_shape_and_range():
    keys = np.arange(500, dtype=np.uint64)
    probes = double_hash_probes(keys, nprobes=7, nbits=1024)
    assert probes.shape == (500, 7)
    assert probes.min() >= 0
    assert probes.max() < 1024


def test_double_hash_probes_distinct_seeds_differ():
    keys = np.arange(100, dtype=np.uint64)
    a = double_hash_probes(keys, 4, 4096, seed=0)
    b = double_hash_probes(keys, 4, 4096, seed=1)
    assert not np.array_equal(a, b)


def test_double_hash_probes_cover_bit_space():
    keys = np.arange(20_000, dtype=np.uint64)
    probes = double_hash_probes(keys, 8, 256)
    assert len(np.unique(probes)) == 256


def test_double_hash_probes_int_is_the_array_version_on_one_key():
    rng = np.random.default_rng(11)
    keys = np.concatenate(
        [rng.integers(0, 2**64, size=200, dtype=np.uint64),
         np.asarray([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)]
    )
    for nprobes, nbits, seed in ((7, 40_960, 0), (1, 64, 9), (13, 2**33 + 192, 12345)):
        vector = double_hash_probes(keys, nprobes, nbits, seed)
        for key, row in zip(keys.tolist(), vector.tolist()):
            assert double_hash_probes_int(key, nprobes, nbits, seed) == row


def test_memoised_seed_mix_is_bit_identical_to_the_formula():
    """`hash64` / `hash64_int` mix each seed once; the output is still
    ``splitmix64(key ^ splitmix64(seed))`` for every seed, array and scalar,
    on first use and from the memo."""
    rng = np.random.default_rng(12)
    keys = np.concatenate([
        rng.integers(0, 2**64, size=64, dtype=np.uint64),
        np.asarray([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
    ])
    seeds = [0, 1, 2, 0x5BD1, 0x7F4A7C15, 12345 + 0x7F4A7C15, 2**32, 2**63, 2**64 - 1]
    seeds += rng.integers(0, 2**64, size=24, dtype=np.uint64).tolist()
    for _ in range(2):  # the second pass is served by the memo
        for seed in seeds:
            want = splitmix64(keys ^ splitmix64(np.uint64(seed)))
            assert np.array_equal(hash64(keys, seed), want)
            assert hash64(int(keys[5]), seed) == want[5]
            assert [hash64_int(k, seed) for k in keys.tolist()] == want.tolist()
