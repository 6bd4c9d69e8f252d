"""Consistent-hash ring invariants.

The ring is pure arithmetic shared by ingest, router, and tests — these
pin the properties everything else assumes: determinism, scalar/vector
agreement, distinct replica sets, tolerable balance, and the 1/N
movement bound that makes the hashing "consistent" at all.
"""

import numpy as np
import pytest

from repro.fleet import HashRing

KEYS = np.random.default_rng(3).integers(0, 2**63, size=4000, dtype=np.uint64)


def test_deterministic_and_seed_sensitive():
    a = HashRing([0, 1, 2], vnodes=32, seed=9)
    b = HashRing([0, 1, 2], vnodes=32, seed=9)
    c = HashRing([0, 1, 2], vnodes=32, seed=10)
    assert np.array_equal(a.owners_many(KEYS, rf=2), b.owners_many(KEYS, rf=2))
    assert not np.array_equal(a.primary_of(KEYS), c.primary_of(KEYS))


def test_scalar_vectorized_parity():
    ring = HashRing([3, 7, 11, 20, 21], vnodes=16, seed=1)
    many = ring.owners_many(KEYS[:500], rf=3)
    for i, k in enumerate(KEYS[:500]):
        assert ring.owners(int(k), rf=3) == list(many[i])


def test_replica_sets_distinct_and_clamped():
    ring = HashRing([0, 1, 2], vnodes=16)
    owners = ring.owners_many(KEYS, rf=3)
    assert all(len(set(row)) == 3 for row in owners[:200])
    # rf beyond the fleet degrades to "everyone", not an error.
    assert sorted(ring.owners(5, rf=99)) == [0, 1, 2]
    assert HashRing([4]).owners(5, rf=2) == [4]


def test_primary_balance():
    ring = HashRing(list(range(4)), vnodes=64)
    counts = np.bincount(ring.primary_of(KEYS), minlength=4)
    assert counts.max() / counts.mean() < 1.6, counts


def test_movement_bound_on_membership_change():
    before = HashRing(list(range(4)), vnodes=64).primary_of(KEYS)
    grown = HashRing(list(range(4)), vnodes=64)
    assert np.array_equal(grown.primary_of(KEYS), before)  # walks memoised before the add
    grown.add_shard(4)
    after = grown.primary_of(KEYS)
    moved = after != before
    # Only keys the new shard claims may move, and it should claim
    # roughly its fair 1/5 share.
    assert np.all(after[moved] == 4)
    assert 0.05 < moved.mean() < 0.45


def test_membership_errors():
    ring = HashRing([0, 1])
    with pytest.raises(ValueError):
        ring.add_shard(1)
    with pytest.raises(ValueError):
        HashRing([2, 2])
    with pytest.raises(ValueError):
        HashRing([]).owners(1)
