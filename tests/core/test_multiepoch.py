"""Tests for the multi-epoch store (cross-timestep queries)."""

import numpy as np
import pytest

from repro.apps.vpic import VPICSimulation
from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import EpochRetiredError, MultiEpochStore
from repro.storage.manifest import Manifest


def _batches(nranks, n, seed):
    return [random_kv_batch(n, 56, np.random.default_rng(seed * 100 + r)) for r in range(nranks)]


def test_write_and_query_single_epoch():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    batches = _batches(4, 500, seed=1)
    stats = store.write_epoch(batches)
    assert stats.records == 2000
    value, qs = store.get(int(batches[2].keys[7]), epoch=0)
    assert qs.found and value == batches[2].value_of(7)


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV], ids=lambda f: f.name)
def test_trajectory_across_epochs(fmt):
    sim = VPICSimulation(nranks=4, particles_per_rank=400, drift=0.25, seed=2)
    store = MultiEpochStore(nranks=4, fmt=fmt)
    for _ in range(3):
        sim.step(2)
        store.write_epoch(sim.dump())
    target = int(sim.ids[11])
    traj = store.trajectory(target)
    assert [e for e, _, _ in traj] == [0, 1, 2]
    assert all(qs.found for _, _, qs in traj)
    assert len({v for _, v, _ in traj}) == 3  # the particle moved


def test_manifest_tracks_epochs():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    store.write_epoch(_batches(4, 200, seed=3))
    store.write_epoch(_batches(4, 300, seed=4))
    assert store.epochs == [0, 1]
    assert store.manifest.total_records == 2000
    # Reload from the device: same content.
    m = Manifest.load(store.device)
    assert m.epoch_ids == [0, 1]
    assert m.epochs[0].records == 800
    assert all(f.startswith(("part.000.", "aux.000.")) for f in m.epochs[0].files)


def test_epoch_files_are_disjoint_namespaces():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    b = _batches(4, 200, seed=5)
    store.write_epoch(b)
    store.write_epoch(b)
    # Same key queried in both epochs resolves independently.
    key = int(b[0].keys[0])
    v0, _ = store.get(key, 0)
    v1, _ = store.get(key, 1)
    assert v0 == v1 == b[0].value_of(0)


def test_wrong_batch_count_rejected():
    store = MultiEpochStore(nranks=4)
    with pytest.raises(ValueError):
        store.write_epoch(_batches(3, 10, seed=6))


def test_unknown_epoch_rejected():
    store = MultiEpochStore(nranks=4)
    with pytest.raises(KeyError):
        store.get(1, epoch=0)


def test_describe_mentions_epochs():
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
    store.write_epoch(_batches(4, 100, seed=7))
    out = store.describe()
    assert "epoch 0" in out and "filterkv" in out


def test_dataptr_value_logs_shared_across_epochs():
    """Value-log offsets stay valid when epochs append to the same logs."""
    store = MultiEpochStore(nranks=4, fmt=FMT_DATAPTR)
    b0 = _batches(4, 300, seed=8)
    b1 = _batches(4, 300, seed=9)
    store.write_epoch(b0)
    store.write_epoch(b1)
    v0, qs0 = store.get(int(b0[1].keys[5]), 0)
    v1, qs1 = store.get(int(b1[1].keys[5]), 1)
    assert v0 == b0[1].value_of(5)
    assert v1 == b1[1].value_of(5)
    assert qs0.breakdown_reads.get("vlog") == 1


def test_dropped_store_is_freed_without_the_cycle_collector():
    """The store's own reader sessions must not tie it into a reference
    cycle: the repo benchmark times rounds with the collector off, and a
    store waiting for it keeps its aux tables and table metadata resident
    (read-cold's peak RSS went 143 -> 178 MB when `EpochMount` held the
    store strongly)."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV)
        for seed in (1, 2, 3):
            batches = _batches(4, 200, seed)
            store.write_epoch(batches)
        key = int(batches[0].keys[0])
        store.get(key, 2)
        store.get_many(batches[1].keys, 1)
        store.lookup(key)
        store.lookup_many(batches[2].keys)
        store.trajectory(key)
        store.compact()
        store.get(key, store.epochs[-1])
        with pytest.raises(EpochRetiredError):
            store.get(key, 0)
        store.close()
        gone = weakref.ref(store)
        del store
        assert gone() is None
    finally:
        gc.enable()
