"""Unit tests for value logs and data pointers."""

import numpy as np
import pytest

from repro.storage.blockio import StorageDevice
from repro.storage.log import POINTER_BYTES, DataPointer, ValueLog


def _append(log, *values):
    """Append ``values``, all of one width, as one `append_many` matrix;
    their pointers."""
    rows = np.frombuffer(b"".join(values), dtype=np.uint8).reshape(len(values), -1)
    return [DataPointer(log.rank, int(off)) for off in log.append_many(rows)]


def test_pointer_pack_unpack():
    p = DataPointer(rank=7, offset=123456789)
    blob = p.pack()
    assert len(blob) == POINTER_BYTES == 12
    assert DataPointer.unpack(blob) == p


def test_pointer_unpack_rejects_wrong_size():
    with pytest.raises(ValueError):
        DataPointer.unpack(b"\x00" * 11)


def test_append_read_roundtrip():
    dev = StorageDevice()
    log = ValueLog(dev, rank=3)
    p1, p2 = _append(log, b"value-one-longer", b"value-two-longer")
    assert log.read(p1) == b"value-one-longer"
    assert log.read(p2) == b"value-two-longer"
    assert len(log) == 2
    assert p1.rank == p2.rank == 3


def test_read_value_larger_than_hint():
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    big = bytes(range(256)) * 40  # 10 KB > default 4 KB hint
    (p,) = _append(log, big)
    assert log.read(p) == big
    assert dev.counters.reads == 2  # hint read + tail read


def test_single_seek_for_small_values():
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    (p,) = _append(log, b"x" * 64)
    before = dev.counters.snapshot()
    log.read(p)
    assert dev.counters.delta(before).reads == 1


def test_wrong_rank_pointer_rejected():
    dev = StorageDevice()
    log = ValueLog(dev, rank=1)
    (p,) = _append(log, b"data")
    with pytest.raises(ValueError):
        log.read(DataPointer(rank=2, offset=p.offset))


def test_bad_offset_rejected():
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    _append(log, b"data")
    with pytest.raises(ValueError):
        log.read(DataPointer(rank=0, offset=10_000))


def test_negative_rank_rejected():
    with pytest.raises(ValueError):
        ValueLog(StorageDevice(), rank=-1)


def test_size_accounting():
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    _append(log, b"abcd")
    assert log.size_bytes == 4 + 4  # u32 length prefix + body


def test_filename_is_per_rank():
    dev = StorageDevice()
    ValueLog(dev, rank=0)
    ValueLog(dev, rank=1)
    assert dev.list_files() == ["vlog.000000", "vlog.000001"]


def test_read_many_matches_scalar_any_order():
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    # one append per value: records of several widths share the log
    ptrs = [p for i in range(50) for p in _append(log, f"value-{i}".encode() * (1 + i % 5))]
    shuffled = [ptrs[i] for i in np.random.default_rng(8).permutation(50)]
    out = log.read_many(shuffled)
    assert out == [log.read(p) for p in shuffled]


def test_read_many_sweeps_offsets_monotonically():
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    ptrs = _append(log, *[bytes(16)] * 20)
    before = dev.counters.snapshot()
    log.read_many(list(reversed(ptrs)))
    # Same read count as scalar; the batch only reorders the sweep.
    assert dev.counters.delta(before).reads == 20


def test_read_many_empty():
    log = ValueLog(StorageDevice(), rank=0)
    assert log.read_many([]) == []
