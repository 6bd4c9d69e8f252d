"""Tests for the warm view of an epoch: resident metadata and a block cache."""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.reader import TABLE_CACHE_ENTRIES


def _dataset(fmt, nranks=6, records=1500):
    cluster = SimCluster(
        nranks=nranks, fmt=fmt, value_bytes=24, seed=9
    )
    batches = [random_kv_batch(records, 24, np.random.default_rng(50 + r)) for r in range(nranks)]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    return cluster, batches


def _cached(cluster):
    return cluster.query_engine().warm(None, TABLE_CACHE_ENTRIES)


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_FILTERKV], ids=lambda f: f.name)
def test_same_answers_as_cold_engine(fmt):
    cluster, batches = _dataset(fmt)
    cold = cluster.query_engine()
    warm = _cached(cluster)
    for i in range(0, 1500, 131):
        key = int(batches[2].keys[i])
        v_cold, _ = cold.get(key)
        v_warm, _ = warm.get(key)
        assert v_cold == v_warm == batches[2].value_of(i)


def test_second_query_to_same_partition_is_cheaper():
    cluster, batches = _dataset(FMT_BASE)
    warm = _cached(cluster)
    # Two keys owned by the same partition.
    owner = cluster.partitioner.partition_of(batches[0].keys)
    same = np.nonzero(owner == owner[0])[0]
    assert same.size >= 2
    _, first = warm.get(int(batches[0].keys[same[0]]))
    _, second = warm.get(int(batches[0].keys[same[1]]))
    assert second.reads < first.reads
    assert second.breakdown_reads.get("footer", 0) == 0  # table already open


def test_filterkv_aux_read_amortized():
    cluster, batches = _dataset(FMT_FILTERKV)
    warm = _cached(cluster)
    owner = cluster.partitioner.partition_of(batches[0].keys)
    same = np.nonzero(owner == owner[0])[0][:3]
    stats = [warm.get(int(batches[0].keys[i]))[1] for i in same]
    assert stats[0].breakdown_reads.get("aux") == 1
    assert all(s.breakdown_reads.get("aux", 0) == 0 for s in stats[1:])


def test_warm_total_cost_below_cold():
    cluster, batches = _dataset(FMT_FILTERKV)
    cold = cluster.query_engine()
    warm = _cached(cluster)
    keys = [int(batches[r % 6].keys[r * 37]) for r in range(30)]
    cold_reads = sum(cold.get(k)[1].reads for k in keys)
    warm_reads = sum(warm.get(k)[1].reads for k in keys)
    assert warm_reads < 0.6 * cold_reads


def test_store_engines_share_one_aux_charge():
    """The once-per-partition aux charge lives in the epoch's engine:
    `get`, `get_many` and a served view pay it once between them, while
    that engine read directly, the cold reader, still pays it on every
    query."""
    from repro.core.multiepoch import MultiEpochStore

    store = MultiEpochStore(nranks=6, fmt=FMT_FILTERKV, value_bytes=24, seed=9)
    batches = [random_kv_batch(300, 24, np.random.default_rng(50 + r)) for r in range(6)]
    store.write_epoch(batches)
    owner = store.engine(0).partitioner.partition_of(batches[0].keys)
    same = batches[0].keys[owner == owner[0]][:4]

    _, first = store.get(int(same[0]), 0)
    _, second = store.get(int(same[1]), 0)
    _, bulk = store.get_many(same, 0)
    served = store.mount(table_cache_entries=TABLE_CACHE_ENTRIES).engine(0)
    _, third = served.get(int(same[2]))
    assert first.breakdown_reads.get("aux") == 1
    assert all(s.breakdown_reads.get("aux", 0) == 0 for s in [second, third, *bulk])

    cold = [store.engine(0).get(int(k))[1] for k in same]
    assert all(s.breakdown_reads.get("aux") == 1 for s in cold)
    assert all(s.breakdown_reads.get("footer") == s.partitions_searched for s in cold)
