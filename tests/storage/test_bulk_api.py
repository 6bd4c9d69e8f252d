"""The columnar storage APIs against the per-record reference of
`tests/reference/ingest.py`, byte for byte — `add_many` / `append_many`
write exactly what one-record-at-a-time writing of the documented formats
writes."""

import re

import numpy as np
import pytest

from repro.core.kv import KVBatch
from repro.storage.blockio import StorageDevice
from repro.storage.log import DataPointer, ValueLog
from repro.storage.sstable import SSTableWriter

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
