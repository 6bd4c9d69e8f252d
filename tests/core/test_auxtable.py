"""Unit tests for the auxiliary-table backends."""

import numpy as np
import pytest

from repro.core.auxtable import (
    BloomAuxTable,
    CsfAuxTable,
    CuckooAuxTable,
    ExactAuxTable,
    bloom_bits_per_key,
    build_sealed_aux,
    rank_bits,
)


def _workload(n=3000, nparts=32, seed=1):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    ranks = rng.integers(0, nparts, size=n, dtype=np.uint64)
    return keys, ranks


CLASSES = {
    cls.backend: cls for cls in (ExactAuxTable, BloomAuxTable, CuckooAuxTable, CsfAuxTable)
}
BACKENDS = ["exact", "bloom", "cuckoo", "csf"]


def _table(backend, nparts, **kwargs):
    return CLASSES[backend](nparts, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_false_negatives(backend):
    """Every backend must always return the true source rank."""
    n = 3000
    keys, ranks = _workload(n=n)
    t = _table(backend, nparts=32, capacity_hint=n)
    t.insert_many(keys, ranks)
    step = max(1, n // 100)
    for i in range(0, n, step):
        assert int(ranks[i]) in t.candidate_ranks(int(keys[i]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_candidate_counts_consistent(backend):
    n = 2000
    keys, ranks = _workload(n=n, nparts=16, seed=2)
    t = _table(backend, nparts=16, capacity_hint=n)
    t.insert_many(keys, ranks)
    sample = keys[:50]
    counts = t.candidate_counts(sample)
    for i, k in enumerate(sample):
        assert counts[i] == len(t.candidate_ranks(int(k)))


def test_exact_amplification_is_one():
    keys, ranks = _workload()
    t = ExactAuxTable(nparts=32)
    t.insert_many(keys, ranks)
    assert np.all(t.candidate_counts(keys[:500]) == 1)


def test_exact_size_is_12_bytes_per_key():
    keys, ranks = _workload(n=1000)
    t = ExactAuxTable(nparts=32)
    t.insert_many(keys, ranks)
    assert t.size_bytes == 12_000
    assert t.bytes_per_key == 12.0
    assert len(t.to_bytes()) == 12_000


def test_exact_serialization_layout():
    # Packed 12-byte pointers: u32 rank, then u64 offset, the key's running
    # position in insertion order.
    t = ExactAuxTable(nparts=4)
    t.insert_many(np.asarray([5], dtype=np.uint64), 3)
    t.insert_many(np.asarray([9, 7], dtype=np.uint64), np.asarray([1, 2], dtype=np.uint64))
    blob = t.to_bytes()
    assert len(blob) == 3 * 12
    for i, rank in enumerate((3, 1, 2)):
        assert blob[12 * i : 12 * i + 4] == rank.to_bytes(4, "little")
        assert blob[12 * i + 4 : 12 * i + 12] == i.to_bytes(8, "little")


def test_bloom_amplification_grows_with_nparts():
    """Fig. 7a: Fmt-BF amplification rises (logarithmically) with N."""
    amps = []
    for nparts in (16, 256, 4096):
        keys, ranks = _workload(n=4000, nparts=nparts, seed=3)
        t = BloomAuxTable(nparts, capacity_hint=4000)
        t.insert_many(keys, ranks)
        amps.append(t.candidate_counts(keys[:100]).mean())
    assert amps[0] < amps[1] < amps[2]


def test_bloom_sampled_estimate_close_to_exhaustive():
    keys, ranks = _workload(n=3000, nparts=2048, seed=4)
    t = BloomAuxTable(2048, capacity_hint=3000)
    t.insert_many(keys, ranks)
    sample = keys[:64]
    exact = t.candidate_counts(sample, exhaustive_limit=1 << 16).mean()
    est = t.candidate_counts(sample, exhaustive_limit=1).mean()
    assert est == pytest.approx(exact, rel=0.35, abs=1.0)


def test_cuckoo_amplification_flat_in_nparts():
    """Fig. 7a: Fmt-Cuckoo amplification is bounded (~2), independent of N."""
    amps = []
    for nparts in (16, 1024, 65536):
        keys, ranks = _workload(n=20_000, nparts=nparts, seed=5)
        t = CuckooAuxTable(nparts, capacity_hint=20_000, fp_bits=4)
        t.insert_many(keys, ranks)
        amps.append(t.candidate_counts(keys[:2000]).mean())
    assert max(amps) < 2.6
    assert max(amps) - min(amps) < 0.7


def test_cuckoo_space_tracks_rank_bits():
    keys, ranks = _workload(n=10_000, nparts=1024, seed=6)
    t = CuckooAuxTable(1024, capacity_hint=10_000, fp_bits=4)
    t.insert_many(keys, ranks)
    # (4 + 10) bits/slot at ≥85 % utilization → under ~2.2 B/key.
    assert t.bytes_per_key < 2.2
    assert len(t.to_bytes()) == pytest.approx(t.size_bytes, rel=0.05)


def test_bloom_bits_budget_matches_cuckoo_width():
    """§IV-C: the Bloom budget 4+log2(N) equals the cuckoo slot width."""
    for nparts in (1 << 10, 1 << 16, 1 << 24):
        assert bloom_bits_per_key(nparts) == 4 + rank_bits(nparts)


def test_rank_bits():
    assert rank_bits(2) == 1
    assert rank_bits(1024) == 10
    assert rank_bits(1025) == 11
    assert rank_bits(16_000_000) == 24


def test_insert_validates_rank_range():
    t = ExactAuxTable(nparts=4)
    with pytest.raises(ValueError):
        t.insert_many(np.asarray([1], dtype=np.uint64), 4)


def test_factory_rejects_unknown():
    # The seal builds only the registered backends: exact and Bloom are
    # in-memory baselines, and seal nothing.
    for name in ("btree", "exact", "bloom"):
        with pytest.raises(ValueError, match=f"aux backend must name .*{name}"):
            build_sealed_aux([(0, np.asarray([1], dtype=np.uint64), 0)], 4, name, 0, None)


def test_bloom_requires_capacity():
    with pytest.raises(ValueError):
        BloomAuxTable(4, capacity_hint=0)


def test_bytes_per_key_empty_table():
    assert ExactAuxTable(4).bytes_per_key == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_candidates_many_matches_scalar(backend):
    """Every backend exposes the same bulk surface, and it agrees with the
    per-key walk — including on keys the table never saw."""
    n = 2000
    keys, ranks = _workload(n=n, nparts=16, seed=4)
    t = _table(backend, nparts=16, capacity_hint=n)
    t.insert_many(keys, ranks)
    absent = np.random.default_rng(5).integers(0, 2**63, size=40, dtype=np.uint64)
    probe = np.concatenate([keys[:160], absent])
    counts, flat = t.candidates_many(probe)
    assert counts.sum() == flat.size
    off = 0
    for i, k in enumerate(probe):
        got = flat[off : off + counts[i]]
        off += counts[i]
        want = np.asarray(t.candidate_ranks(int(k)), dtype=np.int64)
        assert np.array_equal(np.asarray(got, dtype=np.int64), want), f"key {k}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_candidates_many_empty_batch(backend):
    t = _table(backend, nparts=8, capacity_hint=16)
    t.insert_many(*_workload(n=16, nparts=8, seed=6))
    counts, flat = t.candidates_many(np.zeros(0, dtype=np.uint64))
    assert counts.size == 0 and flat.size == 0


def test_candidates_many_probe_accounting_matches_scalar():
    """Bulk and scalar surfaces feed the same aux.* counters."""
    from repro.obs import MetricsRegistry

    keys, ranks = _workload(n=1500, nparts=16, seed=7)
    m_s, m_b = MetricsRegistry(), MetricsRegistry()
    ts = _table("cuckoo", nparts=16, capacity_hint=1500, metrics=m_s)
    tb = _table("cuckoo", nparts=16, capacity_hint=1500, metrics=m_b)
    ts.insert_many(keys, ranks)
    tb.insert_many(keys, ranks)
    probe = keys[:300]
    for k in probe:
        ts.candidate_ranks(int(k))
    tb.candidates_many(probe)
    for name in ("aux.probes", "aux.candidates", "aux.false_candidates"):
        assert m_b.total(name) == m_s.total(name), name


def test_exact_candidates_many_with_duplicate_keys():
    """A key inserted from several ranks must report all of them."""
    t = ExactAuxTable(nparts=8)
    t.insert_many(np.asarray([5, 5, 9], dtype=np.uint64), np.asarray([3, 6, 1], dtype=np.uint64))
    counts, flat = t.candidates_many(np.asarray([5, 9, 1234], dtype=np.uint64))
    assert counts.tolist() == [2, 1, 0]
    assert flat.tolist() == [3, 6, 1]
