"""Unit tests for memtables, spilled runs, and the flattened merge."""

import numpy as np
import pytest

from repro.storage.blockio import StorageDevice
from repro.storage.memtable import MemTable, RunWriter, flatten_runs
from repro.storage.sstable import SSTableReader, SSTableWriter


def _kv(keys, *values):
    """``(keys, values)`` arrays from keys and equal-width byte strings."""
    return np.asarray(keys, dtype=np.uint64), np.frombuffer(
        b"".join(values), dtype=np.uint8
    ).reshape(len(values), -1)


def test_memtable_budget():
    mt = MemTable(budget_bytes=100)
    keys, values = _kv(range(5), *[b"x" * 40] * 5)  # 48-byte records
    assert mt.add_many(keys[:1], values[:1]) == 1 and not mt.full
    assert mt.add_many(keys[1:], values[1:]) == 2  # 96 < 100 ≤ 144: the crossing one too
    assert mt.full
    assert len(mt) == 3
    assert mt.size_bytes == 144
    assert mt.add_many(keys[3:], values[3:]) == 0


def test_memtable_sorted_items_stable():
    mt = MemTable()
    mt.add_many(*_kv([5, 1], b"first-", b"a-----"))
    mt.add_many(*_kv([5], b"second"))
    keys, values = mt.sorted_arrays()
    assert keys.tolist() == [1, 5, 5]
    assert values[1].tobytes() == b"first-" and values[2].tobytes() == b"second"


def test_memtable_reset():
    mt = MemTable(budget_bytes=64)
    mt.add_many(*_kv([1], b"v"))
    mt.reset()
    assert len(mt) == 0 and mt.size_bytes == 0 and not mt.full


def test_memtable_validates_budget():
    with pytest.raises(ValueError):
        MemTable(budget_bytes=10)


def test_spill_and_read_run():
    dev = StorageDevice()
    rw = RunWriter(dev, "runs.0")
    mt = MemTable()
    mt.add_many(*_kv([9, 3, 7], b"v9", b"v3", b"v7"))
    rw.spill(mt)
    assert len(mt) == 0  # spill resets
    assert sum(r.nentries for r in rw.runs) == 3
    keys, values = rw.read_run_arrays(0)
    assert keys.tolist() == [3, 7, 9]
    assert [v.tobytes() for v in values] == [b"v3", b"v7", b"v9"]


def test_spill_empty_is_noop():
    dev = StorageDevice()
    rw = RunWriter(dev, "runs.0")
    rw.spill(MemTable())
    assert rw.runs == []


def test_flatten_merges_runs_in_key_order():
    dev = StorageDevice()
    rw = RunWriter(dev, "runs.0")
    rng = np.random.default_rng(1)
    all_keys = []
    for _ in range(4):
        keys = rng.integers(0, 10_000, size=200).astype(np.uint64)
        mt = MemTable()
        mt.add_many(keys, (keys % 251).astype(np.uint8).reshape(-1, 1))
        rw.spill(mt)
        all_keys += keys.tolist()
    stats = flatten_runs(rw, SSTableWriter(dev, "final", block_size=512))
    assert stats.nentries == 800
    reader = SSTableReader(dev, "final")
    scanned = reader.scan()
    assert [k for k, _ in scanned] == sorted(all_keys)


def test_flatten_first_write_wins_across_runs():
    dev = StorageDevice()
    rw = RunWriter(dev, "runs.0")
    for value in (b"early", b"later"):
        mt = MemTable()
        mt.add_many(*_kv([42], value))
        rw.spill(mt)
    flatten_runs(rw, SSTableWriter(dev, "final", block_size=512))
    assert SSTableReader(dev, "final").get(42) == b"early"


def test_end_to_end_bounded_memory_write():
    """Drive the paper's loop: buffer → spill at budget → flatten."""
    dev = StorageDevice()
    rw = RunWriter(dev, "runs.0")
    mt = MemTable(budget_bytes=4096)
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 2**32, size=2000, dtype=np.uint64)
    values = np.full((keys.size, 24), ord("p"), dtype=np.uint8)
    taken = 0
    while taken < keys.size:
        taken += mt.add_many(keys[taken:], values[taken:])
        if mt.full:
            rw.spill(mt)
    rw.spill(mt)
    assert len(rw.runs) > 5  # budget forced many spills
    stats = flatten_runs(rw, SSTableWriter(dev, "final", block_size=1024))
    assert stats.nentries == 2000
    reader = SSTableReader(dev, "final")
    for k in keys[:25]:
        assert reader.get(int(k)) == b"p" * 24
