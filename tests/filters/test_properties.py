"""Property-based tests (hypothesis) for the filter substrate.

Invariants:

* no filter ever produces a false negative;
* cuckoo tables preserve multiset semantics under insert/delete;
* the chained table finds every inserted (key, value) pair regardless of
  insertion order, chunking, or duplicate keys;
* serialization round-trips preserve query behaviour.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxtable import bloom_bits_per_key
from repro.filters.bloom import BloomFilter, false_positive_rate
from repro.filters.cuckoo import ChainedCuckooTable, PartialKeyCuckooTable

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=300
)


@given(keys=keys_strategy, bpk=st.integers(min_value=4, max_value=20))
@settings(max_examples=40, deadline=None)
def test_bloom_never_false_negative(keys, bpk):
    arr = np.asarray(keys, dtype=np.uint64)
    f = BloomFilter.from_bits_per_key(len(keys), bpk)
    f.add_many(arr)
    assert f.contains_many(arr).all()


@given(keys=keys_strategy)
@settings(max_examples=40, deadline=None)
def test_bloom_serialization_preserves_answers(keys):
    arr = np.asarray(keys, dtype=np.uint64)
    f = BloomFilter.from_bits_per_key(len(keys), 12)  # an SSTable's filter: seed 0
    f.add_many(arr)
    g = BloomFilter.from_bytes(f.to_bytes(), f.nhashes)
    probes = np.arange(500, dtype=np.uint64)
    assert np.array_equal(f.contains_many(probes), g.contains_many(probes))
    assert g.contains_many(arr).all()


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=200, unique=True
    ),
    fp_bits=st.integers(min_value=4, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_cuckoo_finds_all_inserted_values(keys, fp_bits):
    arr = np.asarray(keys, dtype=np.uint64)
    vals = (arr % np.uint64(251)).astype(np.uint32)
    t = ChainedCuckooTable(fp_bits=fp_bits, value_bits=8, min_buckets=4)
    t.insert_many(arr, vals)
    assert len(t) == len(keys)
    for k, v in zip(arr[:50], vals[:50]):
        assert int(v) in t.candidate_values(int(k))


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=2**63 - 1), min_size=2, max_size=120, unique=True
    ),
    split=st.integers(min_value=1, max_value=119),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_cuckoo_chunked_inserts_equivalent(keys, split, seed):
    """Feeding keys in two chunks answers the same as one bulk insert."""
    split = min(split, len(keys) - 1)
    arr = np.asarray(keys, dtype=np.uint64)
    a = ChainedCuckooTable(fp_bits=12, value_bits=8, min_buckets=4, seed=seed)
    a.insert_many(arr, 7)
    b = ChainedCuckooTable(fp_bits=12, value_bits=8, min_buckets=4, seed=seed)
    b.insert_many(arr[:split], 7)
    b.insert_many(arr[split:], 7)
    for k in arr:
        assert 7 in a.candidate_values(int(k)) and 7 in b.candidate_values(int(k))


@given(
    nkeys=st.integers(min_value=150, max_value=600),
    seed=st.integers(min_value=0, max_value=2**31),
    split=st.integers(min_value=1, max_value=149),
)
@settings(max_examples=25, deadline=None)
def test_chained_cuckoo_matches_dict_oracle_across_growth(nkeys, seed, split):
    """Insert/query equivalence against a plain dict oracle, with the first
    physical table deliberately undersized so every run crosses at least
    one growth boundary (keys straddle the table chain)."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.uint64(1) << np.uint64(62), size=nkeys, replace=False)
    vals = rng.integers(0, 256, size=nkeys).astype(np.uint32)
    oracle = {int(k): int(v) for k, v in zip(keys, vals)}
    t = ChainedCuckooTable(fp_bits=12, value_bits=8, min_buckets=4, seed=seed)
    # Mixed ingestion: a bulk chunk, then scalar inserts for the rest.
    t.insert_many(keys[:split], vals[:split])
    for k, v in zip(keys[split:], vals[split:]):
        t.insert(int(k), int(v))
    assert len(t.tables) >= 2, "growth boundary never crossed"
    assert len(t) == nkeys
    for k, v in oracle.items():
        # The oracle's value must be among the candidates (partial-key
        # tables may return extra candidates, never miss the real one).
        assert v in t.candidate_values(k)
    counts, _ = t.candidates_many(keys)
    assert (counts >= 1).all()


@given(
    nparts=st.sampled_from([16, 64, 256]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_bloom_fpr_within_2x_analytic_bound(nparts, seed):
    """At the paper's ``4 + log2(N)`` bits-per-key budget, the measured
    false-positive rate over disjoint probe keys stays within 2x of the
    analytic ``(1 - e^(-kn/m))^k`` rate."""
    bpk = bloom_bits_per_key(nparts)
    analytic = false_positive_rate(bpk)
    rng = np.random.default_rng(seed)
    universe = rng.choice(np.uint64(1) << np.uint64(62), size=12_000, replace=False)
    members, probes = universe[:4000], universe[4000:]
    f = BloomFilter.from_bits_per_key(len(members), bpk, seed=seed)
    f.add_many(members)
    measured = float(f.contains_many(probes).mean())
    assert measured <= 2.0 * analytic, (
        f"nparts={nparts}: measured FPR {measured:.4f} exceeds "
        f"2x analytic {analytic:.4f}"
    )
    assert f.contains_many(members).all()  # and still no false negatives


@given(ops=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=150))
@settings(max_examples=40, deadline=None)
def test_cuckoofilter_matches_multiset_reference(ops):
    """Repeated inserts (up to four copies of a key) against a reference
    multiset: everything in the reference must be reported present (no
    false negatives, ever).  With ``value_bits=0`` the table is a plain
    membership cuckoo filter."""
    f = PartialKeyCuckooTable(128, fp_bits=16, value_bits=0, seed=3)
    ref: dict[int, int] = {}
    for key in ops:
        if ref.get(key, 0) < 4:
            f.insert(key)
            ref[key] = ref.get(key, 0) + 1
    for key in ref:
        assert f.candidate_values_scalar(key)
    assert len(f) == sum(ref.values())


@given(
    nbuckets=st.integers(min_value=1, max_value=64),
    keys=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_single_table_count_matches_inserts(nbuckets, keys):
    t = PartialKeyCuckooTable(nbuckets, fp_bits=8, value_bits=8, max_kicks=50)
    ok = t.insert_many(np.asarray(keys, dtype=np.uint64), 1)
    assert len(t) == int(ok.sum())
    assert len(t) <= t.capacity_slots
