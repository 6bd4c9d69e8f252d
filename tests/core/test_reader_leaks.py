"""What the read path keeps between calls.

The device has no handles: every read names its extent, and
`tests/integration/test_store_machine.py` checks after every step that no
read on any surface moves the device's `footprint`, that no mount keeps a
view of a retired epoch, and that no retired epoch's table metadata
outlives the `compact()` that retired it.  These tests pin what the
machine does not see: the store's warm views are the same objects from
call to call (so their blocks are reused), a merge keeps the surviving
epochs' views, closing a mount leaves no finalizer behind, and recovery's
validation reads change no extent.
"""

import numpy as np
import pytest

from repro.core import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore

from ..integration.test_store_machine import finalizers_on

ALL_FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]


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


def test_closing_detaches_every_finalizer():
    """A mount's view watches its epoch's cold engine through one
    finalizer; `close` detaches them, so close-and-read cycles (as every
    benchmark round runs) keep one registry entry per live view, and a
    closed mount that is dropped leaves none."""
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=24, seed=11)
    rng = np.random.default_rng(11)
    for _ in range(3):
        store.write_epoch([random_kv_batch(50, 24, rng) for _ in range(4)])
    keys = np.arange(20, dtype=np.uint64)
    engines = [store.engine(e) for e in store.epochs]
    mount = store.mount(table_cache_entries=1)
    for _ in range(50):
        store.close()
        mount.close()
        for epoch in store.epochs:
            store.get_many(keys, epoch)
            mount.get_many(keys, epoch)
    assert finalizers_on(engines) == 2 * len(engines)  # the store's `_reads` and `mount`
    mount.close()
    del mount
    store.close()
    assert finalizers_on(engines) == 0


@pytest.mark.parametrize("deep", [False, True])
def test_recovery_validation_changes_no_extent(deep):
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
