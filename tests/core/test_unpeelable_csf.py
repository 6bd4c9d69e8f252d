"""A csf that peels on no seed: the write or merge raises, commits nothing.

A store seals csf and nothing else, so a partition whose peel fails on
every seed (`XorMaplet.build_many` answers None for it) has no other
backend to fall back to.  `write_epoch` and `compact` raise
`CsfConstructionError` before any aux blob is sealed, the manifest, in
memory and on the device, is the one before the call, and the retried
call commits cleanly, as after a cuckoo that cannot place a key.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import MultiEpochStore
from repro.filters.csf import CsfConstructionError, XorMaplet

NRANKS = 4
VB = 16


def _no_seed_peels(cls, tables, value_bits, fp_bits=4):
    return [None] * len(tables)


def _dump(rng):
    return [random_kv_batch(120, VB, rng) for _ in range(NRANKS)]


def _truth(dumps):
    """key -> value a newest-first read of ``dumps`` returns (a key two
    ranks wrote in one dump: the lower rank's)."""
    truth = {}
    for batches in reversed(dumps):
        for batch in batches:
            for i, key in enumerate(batch.keys.tolist()):
                truth.setdefault(key, batch.value_of(i))
    return truth


def _answers(store, truth):
    keys = sorted(truth)
    values, _, _ = store.lookup_many(np.asarray(keys, dtype=np.uint64))
    return values == [truth[k] for k in keys]


def _unchanged(store, before, epochs):
    """The store, and a store attached to its device, hold ``before``."""
    assert store.manifest.to_bytes() == before and store.epochs == epochs
    assert MultiEpochStore.attach(store.device).manifest.to_bytes() == before


def test_a_write_that_peels_on_no_seed_commits_nothing(monkeypatch):
    rng = np.random.default_rng(61)
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=61)
    dumps = [_dump(rng), _dump(rng)]
    store.write_epoch(dumps[0])
    before, epochs = store.manifest.to_bytes(), list(store.epochs)
    with monkeypatch.context() as patch:
        patch.setattr(XorMaplet, "build_many", classmethod(_no_seed_peels))
        with pytest.raises(CsfConstructionError):
            store.write_epoch(dumps[1])
    _unchanged(store, before, epochs)
    failed = store.manifest.next_epoch
    assert not [n for n in store.device.list_files() if n.startswith(f"aux.{failed:03d}.")]
    assert _answers(store, _truth(dumps[:1]))

    store.write_epoch(dumps[1])  # the retry takes the failed attempt's id
    assert store.epochs == epochs + [failed]
    assert _answers(store, _truth(dumps))
    assert _answers(MultiEpochStore.attach(store.device), _truth(dumps))


def test_a_merge_that_peels_on_no_seed_commits_nothing(monkeypatch):
    rng = np.random.default_rng(62)
    store = MultiEpochStore(nranks=NRANKS, fmt=FMT_FILTERKV, value_bytes=VB, seed=62)
    dumps = [_dump(rng), _dump(rng)]
    for batches in dumps:
        store.write_epoch(batches)
    before, epochs = store.manifest.to_bytes(), list(store.epochs)
    with monkeypatch.context() as patch:
        patch.setattr(XorMaplet, "build_many", classmethod(_no_seed_peels))
        with pytest.raises(CsfConstructionError):
            store.compact()
    _unchanged(store, before, epochs)
    assert store.compactions == 0
    assert _answers(store, _truth(dumps))

    report = store.compact()
    assert store.compactions == 1 and store.epochs == [report.merged_epoch]
    assert _answers(store, _truth(dumps))
    assert _answers(MultiEpochStore.attach(store.device), _truth(dumps))
