"""Unit tests for partial-key cuckoo hash tables and the chained scheme."""

import numpy as np
import pytest

from repro.core.auxtable import CuckooAuxTable
from repro.filters.cuckoo import (
    ChainedCuckooTable,
    CuckooTableFull,
    PartialKeyCuckooTable,
)


def _rand_keys(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**63, size=n, dtype=np.uint64)


class TestPartialKeyCuckooTable:
    def test_insert_and_find(self):
        t = PartialKeyCuckooTable(64, fp_bits=8, value_bits=16)
        t.insert(42, 7)
        assert 7 in t.candidate_values_scalar(42)

    def test_true_value_always_returned(self):
        keys = _rand_keys(1500, seed=1)
        vals = np.arange(keys.size, dtype=np.uint32) % 997
        t = PartialKeyCuckooTable(512, fp_bits=12, value_bits=10)
        ok = t.insert_many(keys, vals)
        assert ok.all()
        for i in range(0, keys.size, 97):
            assert vals[i] in t.candidate_values_scalar(int(keys[i]))

    def test_bulk_matches_scalar_inserts(self):
        keys = _rand_keys(300, seed=2)
        a = PartialKeyCuckooTable(256, fp_bits=8, value_bits=8, seed=3)
        b = PartialKeyCuckooTable(256, fp_bits=8, value_bits=8, seed=3)
        a.insert_many(keys, 5)
        for k in keys:
            b.insert(int(k), 5)
        for k in keys[:50]:
            assert a.candidate_values_scalar(int(k)) == b.candidate_values_scalar(int(k))

    def test_high_load_reachable(self):
        # 4-way buckets should sustain ~95 % load before failing.
        t = PartialKeyCuckooTable(256, fp_bits=12, value_bits=8)
        keys = _rand_keys(t.capacity_slots, seed=4)
        ok = t.insert_many(keys, 0)
        assert ok.mean() > 0.93

    def test_failed_insert_leaves_table_intact(self):
        t = PartialKeyCuckooTable(16, fp_bits=8, value_bits=8, max_kicks=20, seed=5)
        keys = _rand_keys(t.capacity_slots * 2, seed=5)
        ok = t.insert_many(keys, 1)
        assert not ok.all()  # definitely over capacity
        inserted = keys[ok]
        # Every successfully inserted key must still be findable.
        for k in inserted:
            assert t.candidate_values_scalar(int(k))
        assert len(t) == int(ok.sum())

    def test_scalar_insert_raises_when_full(self):
        t = PartialKeyCuckooTable(1, fp_bits=8, value_bits=8, slots_per_bucket=2, max_kicks=5)
        keys = _rand_keys(10, seed=6)
        placed = 0
        with pytest.raises(CuckooTableFull):
            for k in keys:
                t.insert(int(k), 0)
                placed += 1
        assert placed == len(t) == 2

    def test_lookup_many_shape(self):
        t = PartialKeyCuckooTable(32, fp_bits=4, value_bits=8, slots_per_bucket=4)
        vals, match = t.lookup_many(_rand_keys(10))
        assert vals.shape == (10, 8)
        assert match.shape == (10, 8)
        assert not match.any()  # empty table

    def test_size_bytes_formula(self):
        t = PartialKeyCuckooTable(1024, fp_bits=4, value_bits=10, slots_per_bucket=4)
        payload = 1024 * 4 * 14 / 8
        assert t.size_bytes == int(payload) + 32

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PartialKeyCuckooTable(64, fp_bits=0)
        with pytest.raises(ValueError):
            PartialKeyCuckooTable(64, fp_bits=33)
        with pytest.raises(ValueError):
            PartialKeyCuckooTable(64, value_bits=-1)
        with pytest.raises(ValueError):
            PartialKeyCuckooTable(64, slots_per_bucket=0)

    def test_nbuckets_rounded_to_pow2(self):
        assert PartialKeyCuckooTable(100).nbuckets == 128

    @pytest.mark.parametrize("fp_bits", [4, 12])
    def test_from_arrays_reloads_the_same_answers(self, fp_bits):
        """A reload never builds a lookup table bigger than the table it
        serves (12-bit fingerprints over 64 slots hash instead), and both
        alternate-bucket paths answer bit for bit."""
        keys = _rand_keys(50, seed=4)
        t = PartialKeyCuckooTable(16, fp_bits=fp_bits, value_bits=5, seed=3)
        assert t.insert_many(keys, np.arange(keys.size, dtype=np.uint32) % 32).all()
        r = PartialKeyCuckooTable.from_arrays(*t.to_arrays(), fp_bits, 5, seed=3)
        assert (r._alt_lut is None) == (fp_bits == 12) and t._alt_lut is not None
        probe = np.concatenate([keys, _rand_keys(200, seed=5)])
        for a, b in zip(t.lookup_many(probe), r.lookup_many(probe)):
            assert np.array_equal(a, b)
        for k in probe[::7]:
            assert t.candidate_values_scalar(int(k)) == r.candidate_values_scalar(int(k))
        assert len(r) == len(t) == keys.size

    def test_empty_bulk_insert(self):
        t = PartialKeyCuckooTable(16)
        assert t.insert_many(np.zeros(0, dtype=np.uint64)).shape == (0,)


class TestChainedCuckooTable:
    def test_chains_on_overflow(self):
        t = ChainedCuckooTable(fp_bits=8, value_bits=8, min_buckets=16)
        keys = _rand_keys(2000, seed=7)
        t.insert_many(keys, 1)
        assert len(t) == 2000
        assert len(t.tables) > 1

    def test_hinted_utilization_is_high(self):
        n = 40_000
        keys = _rand_keys(n, seed=8)
        t = ChainedCuckooTable(fp_bits=12, value_bits=8, capacity_hint=n)
        t.insert_many(keys, 0)
        assert t.stats.utilization > 0.9  # paper: "about 95 % in practice"

    def test_hinted_first_table_size_matches_paper_example(self):
        # 1.1 M keys → 1 M-slot first table filled to the load target, the
        # remainder in a 128K-slot overflow (§IV-B: "combines a
        # 1-million-slot table with an 128K-slot table").
        t = ChainedCuckooTable(capacity_hint=1_100_000, slots_per_bucket=4)
        t.insert_many(_rand_keys(1_100_000, seed=14), 0)
        assert [pt.capacity_slots for pt in t.tables] == [1 << 20, 1 << 17]
        assert t.stats.failed_inserts == 0

    def test_utilization_away_from_pow2_boundaries(self):
        # 200 K keys sit awkwardly between 2^17 and 2^18 slots; the
        # balanced chain must still reach high combined utilization.
        keys = _rand_keys(200_000, seed=13)
        t = ChainedCuckooTable(fp_bits=8, value_bits=12, capacity_hint=200_000)
        t.insert_many(keys, 3)
        assert t.stats.utilization > 0.9
        assert t.stats.ntables <= 5

    def test_all_keys_findable_across_chain(self):
        keys = _rand_keys(5000, seed=9)
        t = ChainedCuckooTable(fp_bits=16, value_bits=12, min_buckets=16)
        t.insert_many(keys, 42)
        for k in keys[::251]:
            assert 42 in t.candidate_values(int(k))

    def test_candidate_counts_match_candidate_values(self):
        keys = _rand_keys(3000, seed=10)
        vals = np.arange(keys.size, dtype=np.uint32) % 64
        t = ChainedCuckooTable(fp_bits=4, value_bits=6, capacity_hint=keys.size)
        t.insert_many(keys, vals)
        counts, _ = t.candidates_many(keys[:100])
        for i in range(100):
            assert counts[i] == len(t.candidate_values(int(keys[i])))

    def test_amplification_bounded_by_fp_bits(self):
        """Fig. 7a's key property: amplification ≈2 with 4-bit fingerprints,
        independent of table size."""
        keys = _rand_keys(60_000, seed=11)
        vals = np.arange(keys.size, dtype=np.uint32) % 1024
        t = ChainedCuckooTable(fp_bits=4, value_bits=10, capacity_hint=keys.size)
        t.insert_many(keys, vals)
        amp = t.candidates_many(keys[:2000])[0].mean()
        assert 1.0 <= amp < 2.5

    def test_scalar_insert_path(self):
        t = ChainedCuckooTable(fp_bits=8, value_bits=8, min_buckets=4)
        for i in range(500):
            t.insert(i * 2654435761, i % 256)
        assert len(t) == 500

    def test_stats_bytes_per_key(self):
        keys = _rand_keys(10_000, seed=12)
        t = ChainedCuckooTable(fp_bits=4, value_bits=10, capacity_hint=keys.size)
        t.insert_many(keys, 0)
        # 14 bits/slot at >90 % utilization → < 2.1 bytes/key.
        assert t.stats.bytes_per_key < 2.1

    def test_rejects_bad_hint(self):
        with pytest.raises(ValueError):
            ChainedCuckooTable(capacity_hint=0)

    def test_contains(self):
        t = ChainedCuckooTable(min_buckets=4)
        t.insert(7, 1)
        assert 1 in t.candidate_values(7)


class TestCandidatesMany:
    def test_matches_scalar_candidate_values(self):
        keys = _rand_keys(5000, seed=20)
        vals = np.arange(keys.size, dtype=np.uint32) % 64
        t = ChainedCuckooTable(fp_bits=4, value_bits=6, capacity_hint=keys.size)
        t.insert_many(keys, vals)
        probe = np.concatenate([keys[:300], _rand_keys(100, seed=21)])
        counts, flat = t.candidates_many(probe)
        assert counts.sum() == flat.size
        off = 0
        for i, k in enumerate(probe):
            got = flat[off : off + counts[i]]
            off += counts[i]
            want = t.candidate_values(int(k))
            assert np.array_equal(got, want), f"key {k}"
            assert np.all(np.diff(got) > 0)  # sorted distinct per key
            one_counts, one_flat = t.candidates_many(probe[i : i + 1])  # the scalar twin
            assert one_counts.tolist() == [counts[i]] and one_flat.tolist() == got.tolist()
            assert one_flat.dtype == flat.dtype and one_counts.dtype == counts.dtype

    def test_spans_growth_boundary(self):
        """Keys inserted before and after chain growth resolve identically
        through the bulk and scalar surfaces (bulk must scan every table)."""
        keys = _rand_keys(4000, seed=22)
        t = ChainedCuckooTable(fp_bits=8, value_bits=6, min_buckets=4)
        for start in range(0, keys.size, 500):  # force incremental growth
            t.insert_many(keys[start : start + 500], (start // 500) % 64)
        assert len(t.tables) > 1
        counts, flat = t.candidates_many(keys)
        assert counts.min() >= 1  # no false negatives across the chain
        off = 0
        for i, k in enumerate(keys):
            got = flat[off : off + counts[i]]
            off += counts[i]
            assert np.array_equal(got, t.candidate_values(int(k)))

    def test_empty_batch(self):
        t = ChainedCuckooTable(min_buckets=4)
        t.insert(1, 2)
        counts, flat = t.candidates_many(np.zeros(0, dtype=np.uint64))
        assert counts.size == 0 and flat.size == 0

    def test_counts_delegate_to_bulk(self):
        """A cuckoo aux table's per-key counts are its chained table's bulk
        counts."""
        keys = _rand_keys(2000, seed=23)
        aux = CuckooAuxTable(64, capacity_hint=keys.size)
        aux.insert_many(keys, 7)
        counts, _ = aux._table.candidates_many(keys[:200])
        assert np.array_equal(counts, aux.candidate_counts(keys[:200]))
