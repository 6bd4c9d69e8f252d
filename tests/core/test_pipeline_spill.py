"""Tests for the bounded-memory (spilling) FilterKV writer path.

Tests parametrized on ``bulk`` hold the columnar pipeline (True) and the
per-record reference of `tests/reference/ingest.py` (False) to the same
behaviour; `tests/integration/test_ingest_reference.py` holds them to the
same bytes.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import ReceiverState, WriterState, main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import CorruptBlockError, SSTableReader

from ..reference import ingest as ref


def _writer(device, spill=None, rank=0, nranks=2, bulk=True, **kw):
    return (WriterState if bulk else ref.Writer)(
        rank=rank,
        fmt=FMT_FILTERKV,
        partitioner=HashPartitioner(nranks),
        device=device,
        value_bytes=16,
        send=lambda env: None,
        spill_budget_bytes=spill,
        **kw,
    )


def _nruns(w):
    return len(w._runs.runs if isinstance(w, WriterState) else w.runs)


def test_spilling_writer_same_table_contents():
    batch = random_kv_batch(2000, 16, rng=1)
    dev_a, dev_b = StorageDevice(), StorageDevice()
    a = _writer(dev_a, spill=None)
    b = _writer(dev_b, spill=2048)  # tiny budget: many spills
    a.put_batch(batch)
    b.put_batch(batch)
    sa, sb = a.finish(), b.finish()
    assert sa.nentries == sb.nentries == 2000
    ra = SSTableReader(dev_a, main_table_name(0, 0))
    rb = SSTableReader(dev_b, main_table_name(0, 0))
    assert ra.scan() == rb.scan()


def test_spill_runs_visible_on_device():
    dev = StorageDevice()
    w = _writer(dev, spill=1024)
    w.put_batch(random_kv_batch(1000, 16, rng=2))
    assert len(w._runs.runs) > 3  # budget forced spills mid-burst
    w.finish()
    assert dev.exists("runs.000.000000")
    assert dev.exists(main_table_name(0, 0))


def test_memtable_stays_bounded_during_burst():
    dev = StorageDevice()
    w = _writer(dev, spill=4096)
    for _ in range(5):
        w.put_batch(random_kv_batch(500, 16, rng=3))
        assert w._memtable.size_bytes <= 4096 + 24  # one record of slack
    w.finish()


@pytest.mark.parametrize("bulk", [True, False])
def test_duplicate_keys_first_wins_through_spills(bulk):
    """First-write-wins must survive spilling and the flattening merge on
    both the columnar path and the per-record reference."""
    dev = StorageDevice()
    w = _writer(dev, spill=256, bulk=bulk)
    from repro.core.kv import KVBatch

    keys = np.full(100, 7, dtype=np.uint64)
    vals = np.arange(1600, dtype=np.uint8).reshape(100, 16)
    w.put_batch(KVBatch(keys, vals))
    assert _nruns(w) > 1  # the duplicates really crossed runs
    w.finish()
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.get(7) == vals[0].tobytes()


@pytest.mark.parametrize("bulk", [True, False])
def test_interleaved_duplicates_first_wins_across_runs(bulk):
    """Duplicates interleaved with other keys, landing in different runs:
    the earliest write must win after flatten, and every key must resolve."""
    dev = StorageDevice()
    w = _writer(dev, spill=512, bulk=bulk)
    from repro.core.kv import KVBatch

    rng = np.random.default_rng(17)
    keys = rng.integers(0, 50, size=400).astype(np.uint64)  # heavy duplication
    vals = rng.integers(0, 256, size=(400, 16)).astype(np.uint8)
    w.put_batch(KVBatch(keys, vals))
    assert _nruns(w) > 1
    w.finish()
    r = SSTableReader(dev, main_table_name(0, 0))
    first = {}
    for k, v in zip(keys.tolist(), vals):
        first.setdefault(k, v.tobytes())
    for k, expect in first.items():
        assert r.get(k) == expect


def test_spill_at_exact_byte_budget():
    """Records that land exactly on the budget boundary spill cleanly —
    the crossing record is included (scalar `add` semantics), nothing is
    dropped or double-counted."""
    dev = StorageDevice()
    # Record = 8 key + 16 value = 24 bytes; budget = 10 records exactly.
    w = _writer(dev, spill=240)
    batch = random_kv_batch(100, 16, rng=9)
    w.put_batch(batch)
    stats = w.finish()
    assert stats.nentries == 100
    assert all(run.nentries == 10 for run in w._runs.runs)
    r = SSTableReader(dev, main_table_name(0, 0))
    for i in range(100):
        assert r.get(int(batch.keys[i])) == batch.value_of(i)


@pytest.mark.parametrize("bulk", [True, False])
def test_wire_roundtrip_odd_batch_sizes(bulk):
    """Odd put sizes against a batch budget that is not a record multiple:
    every record must arrive intact, whole-record framing preserved."""
    from repro.core.kv import KVBatch

    dev_w, dev_r = StorageDevice(), StorageDevice()
    recv = (ReceiverState if bulk else ref.Receiver)(
        rank=0, nranks=1, fmt=FMT_FILTERKV, device=dev_r, value_bytes=16
    )
    seen = []

    def deliver(env):
        assert len(env.payload) % 8 == 0 and env.nrecords == len(env.payload) // 8
        seen.append(env.nrecords)
        recv.deliver(env)

    w = (WriterState if bulk else ref.Writer)(
        rank=0,
        fmt=FMT_FILTERKV,
        partitioner=HashPartitioner(1),
        device=dev_w,
        value_bytes=16,
        send=deliver,
        batch_bytes=100,  # not a multiple of the 8-byte wire record
    )
    rng = np.random.default_rng(23)
    total = 0
    for n in (1, 3, 7, 13, 101, 2, 50):
        keys = rng.integers(0, 1 << 60, size=n).astype(np.uint64)
        vals = rng.integers(0, 256, size=(n, 16)).astype(np.uint8)
        w.put_batch(KVBatch(keys, vals))
        total += n
    w.flush()
    recv.finish()
    assert sum(seen) == total
    assert recv.records_received == total


@pytest.mark.parametrize("offset", [311, 325], ids=["key byte", "value byte"])
def test_a_damaged_spilled_run_fails_the_flatten(offset):
    """Runs are 28-byte records (u64 key, u32 length, 16-byte value); one
    byte of run 0 changed after its spill must stop `finish` before any
    table is written, not merge into a table that reads back clean."""
    dev = StorageDevice()
    w = _writer(dev, spill=2048)
    w.put_batch(random_kv_batch(2000, 16, rng=4))
    assert _nruns(w) > 1 and w._runs.runs[0].length > offset
    dev.corrupt("runs.000.000000", offset)
    with pytest.raises(CorruptBlockError, match="run 0"):
        w.finish()
    assert dev.file_size(main_table_name(0, 0)) == 0  # nothing published
