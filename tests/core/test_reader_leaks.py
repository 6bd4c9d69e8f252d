"""Extent-handle leak audits for the read path.

`StorageDevice.open_handles` counts live `StorageFile` handles (opens
minus closes).  The uncached `QueryEngine` opens tables, value logs, and
aux extents per query, so after any number of queries the device must be
back at its pre-query handle count — historically the uncached path
leaked one reader per query.  The cached engine intentionally holds
handles while warm, but must return every one of them on `close()`.
"""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore

ALL_FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]


def _dataset(fmt, nranks=4, records=600):
    cluster = SimCluster(
        nranks=nranks, fmt=fmt, value_bytes=24, seed=13
    )
    batches = [
        random_kv_batch(records, 24, np.random.default_rng(90 + r)) for r in range(nranks)
    ]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    return cluster, batches


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_uncached_engine_leaks_no_handles(fmt):
    cluster, batches = _dataset(fmt)
    engine = cluster.query_engine()
    baseline = engine.device.open_handles
    for i in range(100):
        b = batches[i % len(batches)]
        value, _ = engine.get(int(b.keys[i % len(b)]))
        assert value is not None
    engine.get(5)  # misses must release handles too
    assert engine.device.open_handles == baseline, "read path leaked extent handles"
    # the bulk path opens each table / value log once per batch: same audit
    absent = np.array([5], dtype=np.uint64)
    values, _ = engine.get_many(np.concatenate([b.keys[:40] for b in batches] + [absent]))
    assert sum(v is not None for v in values) == 40 * len(batches)
    assert engine.device.open_handles == baseline, "bulk read path leaked extent handles"


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_cached_engine_returns_all_handles_on_close(fmt):
    cluster, batches = _dataset(fmt)
    cold = cluster.query_engine()
    from repro.core.reader import CachedQueryEngine

    baseline = cold.device.open_handles
    with CachedQueryEngine(
        device=cold.device,
        fmt=cold.fmt,
        nranks=cold.nranks,
        partitioner=cold.partitioner,
        aux_tables=cold.aux_tables,
        epoch=cold.epoch,
        files=cold.files,
    ) as engine:
        for i in range(60):
            b = batches[i % len(batches)]
            engine.get(int(b.keys[i % len(b)]))
        assert engine.device.open_handles > baseline  # warm cache holds handles
    assert cold.device.open_handles == baseline, "close() must release every cached handle"


def test_table_cache_eviction_closes_handles():
    cluster, batches = _dataset(FMT_BASE, nranks=6)
    cold = cluster.query_engine()
    from repro.core.reader import CachedQueryEngine

    baseline = cold.device.open_handles
    engine = CachedQueryEngine(
        device=cold.device,
        fmt=cold.fmt,
        nranks=cold.nranks,
        partitioner=cold.partitioner,
        aux_tables=cold.aux_tables,
        epoch=cold.epoch,
        files=cold.files,
        table_cache_entries=2,
    )
    for b in batches:  # touch all 6 partitions through a 2-entry cache
        for i in range(3):
            engine.get(int(b.keys[i]))
    assert engine.device.open_handles <= baseline + 2  # bounded, evictions closed
    assert engine.metrics is not None  # engine without registry still audits
    engine.close()
    assert cold.device.open_handles == baseline


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_trajectory_reuses_pooled_engines(fmt):
    """Repeated trajectory calls must not churn reader handles.

    The store keeps one warm `CachedQueryEngine` per live epoch: the
    first call opens handles, every later call reuses them (stable handle
    count, near-zero new device reads), and `close()` returns the device
    to its pre-trajectory count.
    """
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=24, seed=5)
    rng = np.random.default_rng(5)
    epoch_batches = []
    for _ in range(3):
        batches = [random_kv_batch(300, 24, rng) for _ in range(4)]
        store.write_epoch(batches)
        epoch_batches.append(batches)
    attached = MultiEpochStore.attach(store.device)
    keys = [int(epoch_batches[e][r].keys[7]) for e in range(3) for r in range(4)]

    baseline = attached.device.open_handles
    for k in keys:
        attached.trajectory(k)
    warm = attached.device.open_handles
    assert warm > baseline  # pooled engines hold their handles...

    reads_before = attached.device.counters.reads
    for k in keys:
        attached.trajectory(k)
    assert attached.device.open_handles == warm  # ...and never grow
    reads_per_call = (attached.device.counters.reads - reads_before) / len(keys)
    # Warm engines serve repeats from cached blocks/readers: the second
    # sweep must not re-open and re-read every partition per call.
    assert reads_per_call < 2 * len(attached.epochs)

    attached.close()
    assert attached.device.open_handles == baseline


def test_compaction_retires_pooled_engines():
    """Compaction closes the warm engines of the epochs it retires —
    their handles point at swept extents."""
    store = MultiEpochStore(nranks=2, fmt=FMT_BASE, value_bytes=24, seed=9)
    rng = np.random.default_rng(9)
    batches_by_epoch = [
        [random_kv_batch(120, 24, rng) for _ in range(2)] for _ in range(3)
    ]
    for batches in batches_by_epoch:
        store.write_epoch(batches)
    key = int(batches_by_epoch[0][0].keys[0])
    store.trajectory(key)  # warms one pooled engine per epoch
    baseline_live = store.device.open_handles

    store.compact()

    # The retired epochs' pooled handles were all returned; lookups still
    # answer through the merged epoch, and close() releases the rest.
    assert store.device.open_handles < baseline_live
    value, found, _ = store.lookup(key)
    assert found == store.epochs[-1]
    pre_close = store.device.open_handles
    store.trajectory(key)
    store.close()
    assert store.device.open_handles <= pre_close


def test_multiepoch_store_queries_leak_nothing():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=24, seed=3)
    rng = np.random.default_rng(3)
    batches = [random_kv_batch(400, 24, rng) for _ in range(4)]
    store.write_epoch(batches)
    attached = MultiEpochStore.attach(store.device)
    baseline = attached.device.open_handles
    for b in batches:
        for i in range(0, 400, 37):
            value, _ = attached.get(int(b.keys[i]), 0)
            assert value == b.value_of(i)
        values, _ = attached.get_many(b.keys[::37], 0)
        assert values == [b.value_of(i) for i in range(0, 400, 37)]
    assert attached.device.open_handles == baseline


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_meta_cache_holds_no_handle_and_forgets_retired_epochs(fmt):
    """`get` / `get_many` leave table metadata resident, never a handle;
    compaction drops the retired epochs' share of it."""
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=24, seed=21)
    rng = np.random.default_rng(21)
    epoch_batches = [[random_kv_batch(150, 24, rng) for _ in range(4)] for _ in range(3)]
    for batches in epoch_batches:
        store.write_epoch(batches)
    baseline = store.device.open_handles

    def read_everything():
        for epoch in store.epochs:
            for b in (b for batches in epoch_batches for b in batches):
                store.get(int(b.keys[0]), epoch)
                store.get_many(b.keys[:20], epoch)
        assert store.device.open_handles == baseline

    read_everything()
    cache = store.meta_cache
    assert len(cache) == 3 * 4
    per_epoch = cache.nbytes // 3

    store.compact([0, 1])
    assert len(cache) == 4 and cache.nbytes <= per_epoch  # epoch 2's tables only
    read_everything()
    assert {epoch for epoch, _ in cache._metas} == set(store.epochs)
    store.close()
    assert cache.nbytes == 0 and store.device.open_handles == baseline


@pytest.mark.parametrize("deep", [False, True])
def test_recovery_validation_returns_every_handle(deep):
    """`Manifest.recover` opens every table and aux extent of every epoch to
    validate it (``deep`` also scans them); it used to keep all of them."""
    rng = np.random.default_rng(6)
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=24, seed=6)
    for _ in range(2):
        store.write_epoch([random_kv_batch(100, 24, rng) for _ in range(4)])
    store.close()
    baseline = store.device.open_handles
    recovered, report = MultiEpochStore.recover(store.device, deep=deep)
    assert report.committed_epochs == [0, 1]
    recovered.close()
    assert store.device.open_handles == baseline
