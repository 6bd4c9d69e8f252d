"""What the read path leaves behind between calls.

The device has no handles: every read names its extent.  What a read
could still leave behind is state — on the device (an extent created or
written by a read, which `footprint` would show) or in the store (warm
views and resident table metadata).  These tests pin both: no read on
any surface moves the device's footprint, the store's warm views are
reused while their epoch lives and dropped when compaction retires it,
and no retired epoch's table metadata stays reachable once `compact()`
returns.  The test names
are older than the handle-free device: where one speaks of handles, read
"anything a read leaves behind".
"""

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.core.reader import TABLE_CACHE_ENTRIES
from repro.obs import MetricsRegistry
from repro.serve import QueryService

from ..reference.read import footprint

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
    baseline = footprint(engine.device)
    for i in range(100):
        b = batches[i % len(batches)]
        value, _ = engine.get(int(b.keys[i % len(b)]))
        assert value is not None
    engine.get(5)  # misses too
    assert footprint(engine.device) == baseline, "a read changed the device"
    # the bulk path reads each table / value log once per batch: same audit
    absent = np.array([5], dtype=np.uint64)
    values, _ = engine.get_many(np.concatenate([b.keys[:40] for b in batches] + [absent]))
    assert sum(v is not None for v in values) == 40 * len(batches)
    assert footprint(engine.device) == baseline, "a bulk read changed the device"


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_no_call_leaves_a_handle_open(fmt):
    """The one invariant: no call on any read surface — the cold engine,
    `get` / `get_many`, a warm engine, `lookup_many`, `trajectory` and a
    `QueryService` window — moves the device's footprint, before a merge
    and after it."""
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=24, seed=17)
    device = store.device
    rng = np.random.default_rng(17)
    batches = []
    for _ in range(3):
        batches.append([random_kv_batch(200, 24, rng) for _ in range(4)])
        store.write_epoch(batches[-1])
    keys = np.concatenate([b.keys[::23] for epoch in batches for b in epoch] + [[5]])

    def surfaces():
        for epoch in store.epochs:
            warm = store.engine(epoch).warm(None, TABLE_CACHE_ENTRIES)
            for engine in (store.engine(epoch), warm):
                yield lambda: engine.get(int(keys[0]))
                yield lambda: engine.get_many(keys)
            yield lambda: store.get(int(keys[1]), epoch)
            yield lambda: store.get_many(keys, epoch)
        yield lambda: store.lookup_many(keys)
        yield lambda: store.lookup(int(keys[2]), cached=False)
        yield lambda: store.trajectory(int(keys[3]))

    async def window():
        async with QueryService(store, metrics=MetricsRegistry()) as svc:
            replies = await asyncio.gather(*(svc.get(int(k)) for k in keys[:40]))
            assert all(r.status in ("ok", "not_found") for r in replies)

    for merged in (False, True):
        before = footprint(device)
        for call in surfaces():
            call()
            assert footprint(device) == before
        asyncio.run(window())
        assert footprint(device) == before
        if not merged:
            store.compact()


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_trajectory_reuses_pooled_engines(fmt):
    """Repeated trajectory calls reuse the store's warm engines.

    The store keeps one warm engine per live epoch: the first sweep builds
    them, every later call reuses them and their cached blocks (the same
    engines, near-zero new device reads).
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

    for k in keys:
        attached.trajectory(k)
    pooled = dict(attached._warm._engines)
    assert sorted(pooled) == attached.epochs

    reads_before = attached.device.counters.reads
    for k in keys:
        attached.trajectory(k)
    assert attached._warm._engines == pooled  # the same engines, reused
    reads_per_call = (attached.device.counters.reads - reads_before) / len(keys)
    # Warm engines serve repeats from resident metadata and cached blocks:
    # the second sweep must not re-open and re-read every partition per call.
    assert reads_per_call < 2 * len(attached.epochs)


def test_compaction_retires_pooled_engines():
    """Compaction drops the store's warm engines of the epochs it retires
    (their block caches may hold blocks of the extents it swept) and keeps
    the others', blocks and all."""
    store = MultiEpochStore(nranks=2, fmt=FMT_BASE, value_bytes=24, seed=9)
    rng = np.random.default_rng(9)
    batches_by_epoch = [
        [random_kv_batch(120, 24, rng) for _ in range(2)] for _ in range(3)
    ]
    for batches in batches_by_epoch:
        store.write_epoch(batches)
    key = int(batches_by_epoch[0][0].keys[0])
    store.trajectory(key)  # warms one pooled engine per epoch
    assert len(store._warm._engines) == 3
    survivor = store._warm._engines[2]

    store.compact([0, 1])

    # The retired epochs' engines are gone, the survivor's is the same one;
    # lookups answer through the merged epoch, on an engine built for it.
    assert store._warm._engines == {2: survivor}
    value, found, _ = store.lookup(key)
    assert found == store.epochs[0] == 3
    assert sorted(store._warm._engines) == sorted(store.epochs)
    store.compact()
    assert store._warm._engines == {}
    store.lookup(key)
    assert list(store._warm._engines) == store.epochs
    store.close()
    assert store._warm._engines == {}


def test_multiepoch_store_queries_leak_nothing():
    """Attached-store reads keep one resident table metadata per table,
    however many calls, and leave the device as they found it."""
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=24, seed=3)
    rng = np.random.default_rng(3)
    batches = [random_kv_batch(400, 24, rng) for _ in range(4)]
    store.write_epoch(batches)
    attached = MultiEpochStore.attach(store.device)
    baseline = footprint(attached.device)
    for b in batches:
        for i in range(0, 400, 37):
            value, _ = attached.get(int(b.keys[i]), 0)
            assert value == b.value_of(i)
        values, _ = attached.get_many(b.keys[::37], 0)
        assert values == [b.value_of(i) for i in range(0, 400, 37)]
    assert footprint(attached.device) == baseline
    assert None not in attached.engine(0).metas  # one per table, 4 tables


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_meta_cache_holds_no_handle_and_forgets_retired_epochs(fmt):
    """`get` / `get_many` and a mount leave table metadata resident in the
    epoch's engine; once `compact()` returns, with no mount call in
    between, no retired epoch's `TableMeta` is reachable, and `close`
    clears the live epochs' slots."""
    store = MultiEpochStore(nranks=4, fmt=fmt, value_bytes=24, seed=21)
    rng = np.random.default_rng(21)
    epoch_batches = [[random_kv_batch(150, 24, rng) for _ in range(4)] for _ in range(3)]
    for batches in epoch_batches:
        store.write_epoch(batches)
    mount = store.mount(table_cache_entries=1)

    def read_everything():
        for epoch in store.epochs:
            for b in (b for batches in epoch_batches for b in batches):
                store.get(int(b.keys[0]), epoch)
                store.get_many(b.keys[:20], epoch)
                mount.get_many(b.keys[:20], epoch)
        return {
            epoch: [weakref.ref(m) for m in store.engine(epoch).metas]
            for epoch in store.epochs
        }

    def alive(refs):
        gc.collect()
        return sum(r() is not None for r in refs)

    metas = read_everything()  # a dead slot would fail weakref.ref(None)
    store.compact([0, 1])
    assert alive(metas[0] + metas[1]) == 0 and alive(metas[2]) == 4
    assert sorted(mount._engines) == [2]

    live = [r for refs in read_everything().values() for r in refs]
    store.close()
    assert alive(live) == 0 and alive(metas[2]) == 0
    assert all(not store.engine(e).aux_charged for e in store.epochs)


def test_compaction_frees_a_serving_mounts_retired_metadata():
    """Once `compact()` returns, with no request in between, a
    `QueryService`'s views of the retired epochs and their `TableMeta`s
    are freed (by reference count: no collector run); the surviving
    epoch's stay."""
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=24, seed=29)
    rng = np.random.default_rng(29)
    dumps = [[random_kv_batch(150, 24, rng) for _ in range(4)] for _ in range(3)]
    for batches in dumps:
        store.write_epoch(batches)
    keys = [int(k) for batches in dumps for b in batches for k in b.keys[::10]]

    async def main():
        async with QueryService(store, metrics=MetricsRegistry()) as svc:
            for epoch in store.epochs:
                await asyncio.gather(*(svc.get(k, epoch=epoch) for k in keys))
            metas = {e: [weakref.ref(m) for m in store.engine(e).metas] for e in store.epochs}
            views = {e: weakref.ref(v) for e, v in svc._mount._engines.items()}
            store.compact([0, 1])
            retired = metas[0] + metas[1] + [views[0], views[1]]
            assert [r() for r in retired] == [None] * len(retired)
            assert None not in [r() for r in metas[2] + [views[2]]]

    asyncio.run(main())


@pytest.mark.parametrize("deep", [False, True])
def test_recovery_validation_returns_every_handle(deep):
    """`Manifest.recover` reads every table and aux extent of every epoch to
    validate it (``deep`` also scans them): a sound store keeps every
    epoch, and validation changes no extent."""
    rng = np.random.default_rng(6)
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=24, seed=6)
    for _ in range(2):
        store.write_epoch([random_kv_batch(100, 24, rng) for _ in range(4)])
    store.close()
    device = store.device

    def extents():
        return {n: device.read(n, 0, device.file_size(n)) for n in device.list_files()}

    before = extents()
    recovered, report = MultiEpochStore.recover(device, deep=deep)
    assert report.committed_epochs == [0, 1] and report.quarantined_epochs == []
    assert report.orphans_removed == [] and report.invalid_manifests == []
    assert extents() == before
    recovered.close()
