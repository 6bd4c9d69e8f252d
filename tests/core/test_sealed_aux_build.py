"""The seal-time aux build: one planned-chain cuckoo build per partition.

`ReceiverState.deliver` only buffers key columns; `finish` builds the
table once through `build_sealed_aux`, sized from the exact key count.
Properties that always hold run under hypothesis; the layout claims
(table counts, utilization, failed walks) are statistical, so they run on
pinned seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simcluster import SimCluster
from repro.core.auxtable import AUX_BACKENDS, aux_from_blob, aux_to_blob, build_sealed_aux
from repro.core.formats import FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.pipeline import ReceiverState, aux_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.envelope import unseal

NRANKS = 16
# Key counts straddling every power-of-two boundary from 2^4 to 2^14.
BOUNDARY_COUNTS = [(1 << k) + d for k in range(4, 15) for d in (-1, 0, 1)]


def _keys(n, seed):
    return np.random.default_rng(seed).choice(1 << 40, size=n, replace=False).astype(np.uint64)


def _cuckoo(keys, rank, seed, nparts=NRANKS):
    """One partition's cuckoo table, every key written by ``rank``."""
    return build_sealed_aux([(0, keys, rank)], nparts, "cuckoo", seed, metrics=None)


def _seal(messages, seed=0):
    """Deliver ``[(keys, src), ...]`` to one receiver, one call per
    message; returns it and its sealed blob."""
    dev = StorageDevice()
    recv = ReceiverState(
        0, NRANKS, FMT_FILTERKV, dev, value_bytes=8, aux_backend="cuckoo", aux_seed=seed
    )
    for keys, src in messages:
        records = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
        recv.deliver(records, np.asarray([src]), np.asarray([keys.size]))
    recv.finish()
    name = aux_table_name(0, 0)
    return recv, dev.read(name, 0, dev.file_size(name))


def _cut(keys, srcs, bounds):
    """One mapping set as messages: a new message at every source change
    and at every extra cut point in ``bounds``."""
    edges = set(np.flatnonzero(np.diff(srcs)) + 1) | set(bounds) | {0, keys.size}
    edges = sorted(e for e in edges if 0 <= e <= keys.size)
    return [(keys[a:b], int(srcs[a])) for a, b in zip(edges, edges[1:]) if b > a]


@given(
    n=st.sampled_from(BOUNDARY_COUNTS),
    seed=st.integers(min_value=0, max_value=2**20),
    nsources=st.integers(min_value=1, max_value=NRANKS),
    cuts=st.lists(st.integers(min_value=1, max_value=1 << 14), max_size=40),
)
@settings(max_examples=30, deadline=None)
def test_sealed_build_properties(n, seed, nsources, cuts):
    rng = np.random.default_rng(seed)
    keys = _keys(n, seed)
    # Sources arrive in runs (a message has one sender), and the first
    # key arrives a second time from another rank.
    srcs = np.sort(rng.integers(0, nsources, size=n)).astype(np.uint64)
    keys = np.append(keys, keys[0])
    srcs = np.append(srcs, (srcs[0] + 1) % NRANKS)

    _, blob_coarse = _seal(_cut(keys, srcs, []), seed)
    fine, blob_fine = _seal(_cut(keys, srcs, cuts), seed)
    # The table is a function of the mapping set, not of its messages.
    assert blob_coarse == blob_fine

    reloaded = aux_from_blob(unseal(blob_fine))
    assert aux_to_blob(reloaded) == unseal(blob_fine)
    for aux in (fine.aux, reloaded):
        assert len(aux) == keys.size
        counts, flat = aux.candidates_many(keys)
        assert counts.min() >= 1
        ends = np.cumsum(counts)
        for i in rng.integers(0, keys.size, size=40):
            cands = flat[ends[i] - counts[i] : ends[i]]
            assert int(srcs[i]) in cands  # no false negative, bulk surface
            assert np.array_equal(aux.candidate_ranks(int(keys[i])), cands)
    # Both ranks of the twice-delivered key are candidates.
    assert {int(srcs[0]), int(srcs[-1])} <= set(fine.aux.candidate_ranks(int(keys[0])))


@pytest.mark.parametrize("n", BOUNDARY_COUNTS)
def test_planned_chain_layout(n):
    (aux,) = _cuckoo(_keys(n, n), 3, seed=n)
    st_ = aux._table.stats
    assert st_.nkeys == n
    if n >= 1024:
        assert st_.utilization >= 0.90
    # log2-many tables at the very worst; 90 % is usually reached in <= 3.
    assert st_.ntables <= 4


def test_failed_walks_are_the_exception():
    """The streaming build ended every physical table in one walk that
    burned max_kicks; the planned chain stops at the load target instead.
    Small tables can still (rarely) strand a key below it."""
    failed = [
        _cuckoo(_keys(n, 7 * n), 1, seed=n)[0]._table.stats.failed_inserts
        for n in BOUNDARY_COUNTS
    ]
    assert sum(failed) <= len(BOUNDARY_COUNTS) // 10


@pytest.mark.parametrize("n,parent_tables", [(256, 2), (4096, 3)])
def test_e2e_sizes_no_failed_walk_and_no_more_tables_than_before(n, parent_tables):
    """At the benchmark's partition sizes: no failed insert, and no more
    physical tables than the per-envelope build made (2 at 256 keys, 3-5 at
    4 096, measured at the parent commit)."""
    for seed in range(5):
        (aux,) = _cuckoo(_keys(n, seed), 0, seed=seed)
        st_ = aux._table.stats
        assert st_.failed_inserts == 0
        assert st_.ntables <= parent_tables


def test_chain_sized_from_sealed_count_not_from_the_mean():
    """A partition three times the mean builds the chain an exactly-hinted
    table would: sizing comes from the sealed count, nothing is provisioned
    from the epoch's mean."""
    nranks, mean = 8, 256
    rng = np.random.default_rng(5)
    pool = rng.choice(1 << 40, size=64 * mean, replace=False).astype(np.uint64)
    cluster = SimCluster(nranks=nranks, fmt=FMT_FILTERKV, value_bytes=8, seed=2)
    owners = cluster.partitioner.partition_of(pool)
    heavy = pool[owners == 0][: 3 * mean]
    light = pool[owners != 0][: nranks * mean - heavy.size]
    keys = rng.permutation(np.concatenate([heavy, light]))
    for rank, chunk in enumerate(np.array_split(keys, nranks)):
        cluster.put(rank, KVBatch(chunk, np.zeros((chunk.size, 8), dtype=np.uint8)))
    cluster.finish_epoch()
    assert len(cluster.receivers[0].aux) == 3 * mean
    for r in cluster.receivers:
        n = len(r.aux)
        (hinted,) = _cuckoo(_keys(n, n), 0, seed=0, nparts=nranks)
        assert r.aux._table.stats.ntables == hinted._table.stats.ntables
        assert r.aux._table.stats.failed_inserts == 0


def test_a_key_several_ranks_wrote_seals_csf_at_its_lowest_writer():
    """A static function holds one rank per key: a key two ranks wrote
    with different values maps to the lower, one three ranks wrote to the
    lowest, whatever order the mappings arrive in, and every other key
    keeps its one rank."""
    keys = _keys(300, 1)
    ranks = np.full(keys.size, 2, dtype=np.uint64)
    dup_keys = np.asarray([keys[0], keys[1], keys[1]], dtype=np.uint64)
    dup_ranks = np.asarray([1, 7, 0], dtype=np.uint64)
    clean, twice = build_sealed_aux(
        [(0, keys, ranks), (1, np.append(keys, dup_keys), np.append(ranks, dup_ranks))],
        nparts=NRANKS,
        backend="csf",
        seed=0,
        metrics=None,
    )
    assert clean.backend == twice.backend == "csf"
    assert twice.candidate_ranks(int(keys[0])).tolist() == [1]
    assert twice.candidate_ranks(int(keys[1])).tolist() == [0]
    counts, found = twice.candidates_many(keys[2:])
    assert (counts == 1).all() and (found == 2).all()
    assert len(twice) == keys.size + dup_keys.size


def _unbuilt():
    raise AssertionError("a table built before the backend name was checked")
    yield  # a generator: the raise runs only if the seal takes a partition


@pytest.mark.parametrize("backends", [(), ("csf", "btree")])
def test_backend_names_are_checked_before_anything_builds(backends):
    """A seal names one of `AUX_BACKENDS`: a tuple of names (the old
    fallback form) or an unknown name is a `ValueError` before any
    partition is taken."""
    for backend in (backends, *(b for b in backends if b not in AUX_BACKENDS)):
        with pytest.raises(ValueError, match="aux backend must name"):
            build_sealed_aux(_unbuilt(), NRANKS, backend, 0, None)
