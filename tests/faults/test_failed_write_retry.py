"""A write that fails without a crash must not poison the epoch id it held.

Only a commit advances the manifest's ``next_epoch``, so after an
``io_error`` in `MultiEpochStore.write_epoch` or in a merge the next write
takes the same id.  Writers create their extents by appending, so whatever
the failed attempt left under ``part.<id>.*`` / ``aux.<id>.*`` must be gone
before the id is written again: otherwise the retry appends its bytes
behind the leftovers, live reads still answer from the in-memory aux
tables, and only `MultiEpochStore.attach` (a sealed blob longer than its
envelope says) or `MultiEpochStore.recover` (which quarantines the
committed epoch and sweeps its extents) finds out.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.faults import FaultPlan, FaultSpec, FaultyStorageDevice

NRANKS = 4
RECORDS = 400  # per rank per epoch
VALUE_BYTES = 24


def _store():
    device = FaultyStorageDevice(FaultPlan(seed=1))
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VALUE_BYTES, device=device)
    return store, device, np.random.default_rng(1)


def _write(store, rng, truth):
    """One epoch of fresh keys; ``truth[epoch]`` maps each key to its value."""
    batches = [random_kv_batch(RECORDS, VALUE_BYTES, rng) for _ in range(NRANKS)]
    epoch = store.manifest.next_epoch
    store.write_epoch(batches)
    truth[epoch] = {int(k): b.value_of(i) for b in batches for i, k in enumerate(b.keys)}


def _answers(store, truth):
    for epoch, want in truth.items():
        keys = np.asarray(sorted(want)[::7], dtype=np.uint64)
        values, _ = store.get_many(keys, epoch)
        assert values == [want[int(k)] for k in keys], epoch


def _reopens_whole(device, truth):
    """Attach and recover see every committed epoch intact."""
    _answers(MultiEpochStore.attach(device), truth)
    recovered, report = MultiEpochStore.recover(device)
    assert report.quarantined_epochs == [] and report.orphans_removed == []
    assert report.committed_epochs == sorted(truth)
    _answers(recovered, truth)


def test_a_failed_merge_leaves_nothing_for_the_next_epoch():
    store, device, rng = _store()
    truth = {}
    for _ in range(2):
        _write(store, rng, truth)
    device.plan.add(FaultSpec("io_error", pattern="aux.002.000001"))
    with pytest.raises(OSError, match="injected I/O error"):
        store.compact()
    assert store.epochs == [0, 1] and store.manifest.next_epoch == 2
    assert any(name.startswith("part.002.") for name in device.list_files())

    _write(store, rng, truth)  # takes id 2
    assert store.epochs == [0, 1, 2]
    _answers(store, truth)
    _reopens_whole(device, truth)


def test_a_failed_write_leaves_nothing_for_its_retry():
    store, device, rng = _store()
    truth = {}
    _write(store, rng, truth)
    device.plan.add(FaultSpec("io_error", pattern="aux.001.000002"))
    with pytest.raises(OSError, match="injected I/O error"):
        _write(store, rng, {})
    assert store.epochs == [0] and store.manifest.next_epoch == 1
    assert any(name.startswith("aux.001.") for name in device.list_files())

    _write(store, rng, truth)  # the retry takes id 1
    assert store.epochs == [0, 1]
    _answers(store, truth)
    _reopens_whole(device, truth)
