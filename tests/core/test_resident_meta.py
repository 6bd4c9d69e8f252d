"""Store reads over resident table metadata: same answers, fewer reads.

`MultiEpochStore.get` / `get_many` open each sealed table over the
verified `TableMeta` its epoch's engine keeps in one slot per rank
(``metas``); that engine read directly (`store.engine`) is the paper's
cold reader and the oracle here.  Resident metadata may change *what is
read from the device*, never what a query answers, how many partitions it
searched, or which typed error a damaged table raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.multiepoch import EpochRetiredError, MultiEpochStore
from repro.core.pipeline import main_table_name
from repro.storage.sstable import FOOTER_BYTES, CorruptBlockError, SSTableReader

from ..reference.read import footprint

ALL_FORMATS = [FMT_BASE, FMT_DATAPTR, FMT_FILTERKV]
NRANKS = 8
VB = 24
META = ("footer", "index", "aux")
ABSENT_BASE = 1 << 63  # stored keys are random 63-bit values


def _write(store, rng, records=60):
    batches = [random_kv_batch(records, VB, rng) for _ in range(NRANKS)]
    store.write_epoch(batches)
    return np.concatenate([b.keys for b in batches])


def _resident(store) -> int:
    """Table metas and aux charges the live epochs keep."""
    return sum(
        sum(m is not None for m in store.engine(e).metas) + len(store.engine(e).aux_charged)
        for e in store.epochs
    )


def _meta_reads(stats) -> int:
    return sum(st.breakdown_reads.get(c, 0) for st in stats for c in META)


def _assert_matches_cold(store, keys, epochs):
    """Scalar and bulk store reads against the cold engine, per key."""
    stats = []
    for epoch in epochs:
        cold = store.engine(epoch)
        want = [cold.get(int(k)) for k in keys]
        bulk_values, bulk_stats = store.get_many(keys, epoch)
        for k, (value, cst), bv, bst in zip(keys.tolist(), want, bulk_values, bulk_stats):
            got, st_ = store.get(k, epoch)
            assert got == bv == value
            assert st_.found == bst.found == cst.found
            assert st_.partitions_searched == bst.partitions_searched == cst.partitions_searched
            stats.append(st_)
        stats.extend(bulk_stats)
    return stats


@settings(max_examples=12, deadline=None)
@given(
    fmt=st.sampled_from(ALL_FORMATS),
    seed=st.integers(0, 3),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=24),
    absent=st.lists(st.integers(0, 1 << 20), max_size=4),
)
def test_store_reads_equal_cold_reader_across_compaction(fmt, seed, picks, absent):
    rng = np.random.default_rng(seed)
    store = MultiEpochStore(nranks=NRANKS, fmt=fmt, value_bytes=VB, seed=seed)
    present = np.concatenate([_write(store, rng) for _ in range(3)])
    keys = np.asarray(
        [int(present[i % present.size]) for i in picks] + [ABSENT_BASE + a for a in absent],
        dtype=np.uint64,
    )
    assert _resident(store) == 0  # nothing eager at write/seal
    _assert_matches_cold(store, keys, [0, 1, 2])

    store.compact([0, 1])  # retires 0 and 1 into a merged epoch, mid-stream
    assert sorted(store._engines) == sorted(store.epochs)  # retire means forget
    present = np.concatenate([present, _write(store, rng)])
    _assert_matches_cold(store, keys, store.epochs)  # 2, merged and the new one
    for retired in (0, 1):  # a merged epoch answers for neither source
        for read in (store.engine, lambda e: store.get(int(keys[0]), e)):
            with pytest.raises(EpochRetiredError):
                read(retired)

    # Second pass, store only: every live table was opened once already.
    baseline = footprint(store.device)
    before = store.device.counters.snapshot()
    again = [store.get(int(k), e)[1] for e in store.epochs for k in keys]
    for epoch in store.epochs:
        again.extend(store.get_many(keys, epoch)[1])
    assert footprint(store.device) == baseline
    assert _meta_reads(again) == 0  # only data (and vlog) reads remain...
    assert store.device.counters.delta(before).reads == sum(s.reads for s in again)
    store.close()
    assert _resident(store) == 0


def _one_epoch_store(aux_backends=None):
    """(store, keys written by rank 0): filterkv keeps a key's value in its
    writer's table, so every one of ``keys`` is served by ``part.000.0``.
    ``aux_backends`` replaces the store's seal tuple (its own writes tables
    without a Bloom filter block; a cuckoo epoch's tables keep one)."""
    rng = np.random.default_rng(5)
    store = MultiEpochStore(nranks=4, fmt=FMT_FILTERKV, value_bytes=VB, seed=5)
    if aux_backends is not None:
        store.aux_backends = aux_backends
    batches = [random_kv_batch(200, VB, rng) for _ in range(4)]
    store.write_epoch(batches)
    return store, batches[0].keys


@pytest.mark.parametrize("section", ["footer", "index", "filter"])
def test_corrupt_metadata_fails_typed_and_caches_nothing(section):
    """The first open of a store read runs every check the constructor
    runs, raises the same typed error, and leaves the epoch's slot empty."""
    store, keys = _one_epoch_store(("cuckoo",) if section == "filter" else None)
    name = main_table_name(0, 0)
    size = store.device.file_size(name)
    footer = store.device.read(name, size - FOOTER_BYTES, FOOTER_BYTES)
    index_off, index_len, filter_off, filter_len = (
        int.from_bytes(footer[8 * i : 8 * i + 8], "little") for i in range(1, 5)
    )
    offset = {
        "footer": size - FOOTER_BYTES + 20,
        "index": index_off + index_len // 2,
        "filter": filter_off + filter_len // 2,
    }[section]
    store.device.corrupt(name, offset, xor=0x10)
    with pytest.raises(CorruptBlockError, match=section) as direct:
        SSTableReader(store.device, name)
    baseline = footprint(store.device)
    for _ in range(2):  # the failure is not cached either: it repeats
        with pytest.raises(CorruptBlockError) as scalar:
            store.get(int(keys[0]), 0)
        with pytest.raises(CorruptBlockError) as bulk:
            store.get_many(keys[:8], 0)
        assert str(scalar.value) == str(bulk.value) == str(direct.value)
    assert store.engine(0).metas[0] is None
    assert footprint(store.device) == baseline


def test_corrupt_data_block_detected_under_cached_meta():
    """Block checksums are verified on every device read, resident meta or
    not: damage that lands after the table's meta went resident is caught
    by the next scalar and the next bulk read."""
    store, keys = _one_epoch_store()
    keys = np.sort(keys)  # the lowest keys live in the block's first key group
    key = int(keys[0])
    value, _ = store.get(key, 0)
    assert value is not None and store.engine(0).metas[0] is not None
    store.device.corrupt(main_table_name(0, 0), 40, xor=0x01)  # inside that group
    before = store.device.counters.reads
    with pytest.raises(CorruptBlockError, match="block 0"):
        store.get(key, 0)
    assert store.device.counters.reads - before == 1  # the block; no footer/index re-read
    with pytest.raises(CorruptBlockError, match="block 0"):
        store.get_many(keys[:8], 0)


def test_attached_store_refuses_a_previous_layout_table_and_leaks_no_handle():
    """A dataset written before the key-group layout: the manifest and aux
    extents still load, the first read of a partition names the layout it
    found, caches nothing and leaves the device as it was — every time."""
    from ..storage.test_sstable import _block_checksum_layout_table

    store, keys = _one_epoch_store()
    device, name = store.device, main_table_name(0, 0)
    store.close()
    device.delete(name)
    device.create(name)
    device.append(name, _block_checksum_layout_table([(int(k), bytes(VB)) for k in keys]))
    reopened = MultiEpochStore.attach(device)
    baseline = footprint(device)
    for _ in range(2):
        with pytest.raises(ValueError, match="block-checksum layout"):
            reopened.get(int(keys[0]), 0)
        with pytest.raises(ValueError, match="block-checksum layout"):
            reopened.get_many(keys[:8], 0)
        assert footprint(device) == baseline
    assert reopened.engine(0).metas[0] is None
    reopened.close()
