"""The columnar storage APIs against the per-record reference of
`tests/reference/ingest.py`, byte for byte — `add_many` / `append_many` /
`spill` / `flatten_runs` write exactly what one-record-at-a-time writing
of the documented formats writes."""

import re

import numpy as np
import pytest

from repro.core.kv import KVBatch
from repro.storage.blockio import StorageDevice
from repro.storage.log import DataPointer, ValueLog
from repro.storage.memtable import MemTable, RunWriter, flatten_runs
from repro.storage.sstable import SSTableReader, SSTableWriter

from ..reference import ingest as ref


def _kv(n, width, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 62, size=n).astype(np.uint64)
    values = rng.integers(0, 256, size=(n, width)).astype(np.uint8)
    return keys, values


def _items(keys, values):
    return [(int(k), v.tobytes()) for k, v in zip(keys, values)]


def _extent(device, name):
    f = device.open(name)
    return f.read(0, f.size)


def test_sstable_add_many_bytes_identical_to_scalar():
    keys, values = _kv(5000, 24, seed=1)
    dev_v, dev_s = StorageDevice(), StorageDevice()
    wv = SSTableWriter(dev_v, "t", block_size=4096)
    wv.add_many(keys, values)
    wv.finish()
    ws = ref.Table(dev_s, "t", block_size=4096)
    for k, v in _items(keys, values):
        ws.add(k, v)
    ws.finish()
    assert _extent(dev_v, "t") == _extent(dev_s, "t")


_WRITERS = {
    "SSTableWriter.add_many": lambda v: SSTableWriter(StorageDevice(), "t").add_many(
        np.arange(2, dtype=np.uint64), v
    ),
    "ValueLog.append_many": lambda v: ValueLog(StorageDevice(), rank=0).append_many(v),
    "MemTable.add_many": lambda v: MemTable().add_many(np.arange(2, dtype=np.uint64), v),
    "KVBatch": lambda v: KVBatch(np.arange(2, dtype=np.uint64), v),
}


@pytest.mark.parametrize("values", [
    np.array([[300, 1], [2, 513]]),  # int64: a uint8 cast kept b",\x01" and b"\x02\x01"
    np.array([[44], [-1]], dtype=np.int8),
    [b"ab", b"cd"],  # the retired list[bytes] representation
], ids=["int64", "int8", "list-of-bytes"])
@pytest.mark.parametrize("write", list(_WRITERS.values()), ids=list(_WRITERS))
def test_values_of_another_dtype_are_refused_not_truncated(write, values):
    """Values are a uint8 matrix or an error naming the dtype, never a cast."""
    with pytest.raises(ValueError, match=re.escape(f"dtype {np.asarray(values).dtype}")):
        write(values)


def test_vlog_append_many_offsets_match_scalar():
    _, values = _kv(1000, 40, seed=3)
    dev_v, dev_s = StorageDevice(), StorageDevice()
    bulk_offsets = ValueLog(dev_v, rank=0).append_many(values)
    name = ValueLog.filename(0)
    log_s = dev_s.open(name, create=True)
    scalar_offsets = [ref.vlog_append(log_s, v.tobytes()) for v in values]
    assert bulk_offsets.tolist() == scalar_offsets
    assert _extent(dev_v, name) == _extent(dev_s, name)


def test_vlog_append_many_roundtrip_pointers():
    _, values = _kv(64, 12, seed=4)
    dev = StorageDevice()
    log = ValueLog(dev, rank=3)
    offsets = log.append_many(values)
    for off, v in zip(offsets.tolist(), values):
        assert log.read(DataPointer(3, int(off))) == v.tobytes()


def test_memtable_add_many_matches_scalar_budget_semantics():
    keys, values = _kv(200, 16, seed=5)
    # Reference: add until False (the crossing record is kept).
    scalar = ref.MemTable(budget_bytes=1000)
    for k, v in _items(keys, values):
        if not scalar.add(k, v):
            break
    bulk = MemTable(budget_bytes=1000)
    assert bulk.add_many(keys, values) == len(scalar.items)
    assert bulk.size_bytes == scalar.size_bytes
    assert _items(*bulk.sorted_arrays()) == scalar.sorted_items()
    assert bulk.add_many(keys, values) == 0  # full: nothing more fits


def test_memtable_mixed_scalar_and_bulk_keeps_insertion_order():
    """One-record and many-record batches interleave in arrival order."""
    mt = MemTable(1 << 20)
    mt.add_many(np.asarray([9], np.uint64), np.frombuffer(b"one-first-------", np.uint8)[None])
    vals = np.frombuffer(b"many-second-----many-key-one----", dtype=np.uint8).reshape(2, 16)
    mt.add_many(np.asarray([9, 1], dtype=np.uint64), vals)
    mt.add_many(np.asarray([1], np.uint64), np.frombuffer(b"one-last--------", np.uint8)[None])
    items = _items(*mt.sorted_arrays())
    assert items[0] == (1, b"many-key-one----")  # first write of key 1
    assert items[2] == (9, b"one-first-------")  # first write of key 9


@pytest.mark.parametrize("width", [16, 0])
def test_spill_vectorized_and_scalar_bytes_identical(width):
    keys, values = _kv(500, width, seed=6)
    dev = StorageDevice()
    rw = RunWriter(dev, "runs")
    mt = MemTable(1 << 20)
    mt.add_many(keys, values)
    rw.spill(mt)
    scalar = ref.MemTable(1 << 20)
    for k, v in _items(keys, values):
        scalar.add(k, v)
    assert _extent(dev, "runs") == ref.run_bytes(scalar.sorted_items())
    assert _items(*rw.read_run_arrays(0)) == scalar.sorted_items()


def test_read_run_arrays_roundtrip():
    keys, values = _kv(400, 16, seed=7)
    dev = StorageDevice()
    rw = RunWriter(dev, "runs")
    mt = MemTable(1 << 20)
    mt.add_many(keys, values)
    rw.spill(mt)
    got_keys, got_values = rw.read_run_arrays(0)
    order = np.argsort(keys, kind="stable")
    assert got_keys.tolist() == keys[order].tolist()
    assert isinstance(got_values, np.ndarray)
    assert got_values.tobytes() == values[order].tobytes()


@pytest.mark.parametrize("dup_seed", [8, 9])
def test_flatten_heap_and_bulk_bytes_identical(dup_seed):
    """The array-based flatten must emit exactly the bytes of the reference
    k-way heap merge — including first-write-wins order for duplicates."""
    gen = np.random.default_rng(dup_seed)
    spills = []
    for _ in range(4):
        keys = gen.integers(0, 200, size=150).astype(np.uint64)  # many dups
        spills.append((keys, gen.integers(0, 256, size=(150, 16)).astype(np.uint8)))

    dev = StorageDevice()
    rw = RunWriter(dev, "runs")
    for keys, values in spills:
        mt = MemTable(1 << 20)
        mt.add_many(keys, values)
        rw.spill(mt)
    stats = flatten_runs(rw, SSTableWriter(dev, "final", block_size=4096))

    ref_dev = StorageDevice()
    table = ref.Table(ref_dev, "final", block_size=4096)
    runs = [sorted(_items(keys, values), key=lambda kv: kv[0]) for keys, values in spills]
    for k, v in ref.heap_merge(runs):
        table.add(k, v)
    table.finish()
    assert _extent(dev, "final") == _extent(ref_dev, "final")
    reader = SSTableReader(dev, "final")
    assert len(reader.scan()) == stats.nentries == 600
