"""Direct unit tests for WriterState / ReceiverState (below SimCluster).

Tests parametrized on ``bulk`` hold the columnar pipeline (True) and the
per-record reference of `tests/reference/ingest.py` (False) to the same
behaviour; `tests/integration/test_ingest_reference.py` holds them to the
same bytes.  A writer's messages are the rows its `finish` returns; the
reference's are the envelopes it sends.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import ReceiverState, WriterState, main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import SSTableReader

from ..reference import ingest as ref

CUCKOO = "cuckoo"  # the paper's aux table, as `SimCluster` seals


def make_writer(fmt, nranks=4, value_bytes=16, batch_bytes=256):
    """A writer for rank 0 alone, the way an MPI process holds one."""
    device = StorageDevice()
    w = WriterState(
        [0], fmt, HashPartitioner(nranks), device, value_bytes,
        aux_backend=CUCKOO, batch_bytes=batch_bytes,
    )
    return w, device


def messages(fmt, batches, nranks=4, value_bytes=16, batch_bytes=256, bulk=True):
    """Rank 0 writes ``batches``; returns its device and the messages it
    sent, in order, as ``(dest, payload, nrecords)``."""
    if bulk:
        w, device = make_writer(fmt, nranks, value_bytes, batch_bytes)
        for batch in batches:
            w.put_batch(0, batch)
        rows = w.finish()
        return device, [
            (d, rows.records[f : f + c].tobytes(), c)
            for d, f, c in zip(rows.dest.tolist(), rows.first.tolist(), rows.count.tolist())
        ]
    sent, device = [], StorageDevice()
    w = ref.Writer(0, fmt, HashPartitioner(nranks), device, value_bytes, sent.append,
                   CUCKOO, batch_bytes=batch_bytes)
    for batch in batches:
        w.put_batch(batch)
    w.finish()
    return device, [(e.dest, e.payload, e.nrecords) for e in sent]


def test_writer_batches_by_destination():
    _, sent = messages(FMT_BASE, [random_kv_batch(200, 16, rng=1)], batch_bytes=10_000)
    # Under the batch size: one remainder per destination, nothing cut.
    assert 1 <= len(sent) <= 4
    assert len({dest for dest, _, _ in sent}) == len(sent)
    assert {dest for dest, _, _ in sent} <= {0, 1, 2, 3}
    assert sum(n for _, _, n in sent) == 200


def test_writer_cuts_full_batches_before_remainders():
    batch = random_kv_batch(400, 16, rng=2)
    _, sent = messages(FMT_BASE, [batch], batch_bytes=256)
    # 400 records × 24 B / 4 dests ≫ 256 B per buffer.  A buffer cuts
    # 256 // 24 = 10 whole records while it holds 256 B (11 records); the
    # rest of each destination ships last, one remainder each.
    per_dest = np.bincount(HashPartitioner(4).partition_of(batch.keys), minlength=4)
    cuts = [(n - 11) // 10 + 1 if n >= 11 else 0 for n in per_dest]
    full, tails = sent[: sum(cuts)], sent[sum(cuts) :]
    assert full and [n for _, _, n in full] == [10] * sum(cuts)
    assert [dest for dest, _, _ in full] == sorted(dest for dest, _, _ in full)
    assert [(dest, n) for dest, _, n in tails] == [
        (d, int(n - 10 * c)) for d, (n, c) in enumerate(zip(per_dest, cuts)) if n > 10 * c
    ]
    for _, payload, n in sent:  # batches respect record boundaries
        assert len(payload) == n * 24


def test_rows_carry_every_record_once_to_its_owner():
    """The pass's one sort groups every key by owner: each record rides
    exactly one row, and that row goes to the key's owner."""
    p = HashPartitioner(7)
    w = WriterState([2, 5], FMT_FILTERKV, p, StorageDevice(), 8, CUCKOO, batch_bytes=100)
    batches = [random_kv_batch(n, 8, rng=n) for n in (5000, 1, 0, 333)]
    for rank, batch in zip([2, 5, 5, 2], batches):
        w.put_batch(rank, batch)
    rows = w.finish()
    shipped = []
    for src, dest, first, count in zip(rows.src, rows.dest, rows.first, rows.count):
        keys = rows.records[first : first + count].copy().view("<u8").ravel()
        assert np.all(p.partition_of(keys) == dest)
        shipped.append(keys)
    assert set(rows.src.tolist()) == {2, 5}
    every = np.concatenate([b.keys for b in batches])
    assert sorted(np.concatenate(shipped).tolist()) == sorted(every.tolist())


def test_writer_base_payload_encoding():
    batch = random_kv_batch(10, 16, rng=3)
    _, sent = messages(FMT_BASE, [batch], nranks=2, batch_bytes=64)
    raw = b"".join(payload for _, payload, _ in sorted(sent, key=lambda m: m[0]))
    assert len(raw) == 10 * 24
    # Keys embedded little-endian at each record start.
    keys = {int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 24)}
    assert keys == {int(k) for k in batch.keys}


def test_writer_filterkv_payload_is_keys_only():
    batch = random_kv_batch(50, 16, rng=4)
    dev, sent = messages(FMT_FILTERKV, [batch], nranks=2, batch_bytes=64)
    assert sum(len(payload) for _, payload, _ in sent) == 50 * 8
    # The local main table holds complete KV pairs.
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.meta.nentries == 50
    assert r.get(int(batch.keys[0])) == batch.value_of(0)


def test_writer_dataptr_writes_vlog_and_ships_offsets():
    w, dev = make_writer(FMT_DATAPTR, nranks=2, batch_bytes=64)
    w.put_batch(0, random_kv_batch(30, 16, rng=5))
    rows = w.finish()
    assert w.local_storage_bytes == 30 * (16 + 4)  # values + length prefixes
    assert rows.records.shape == (30, 16)  # key + offset
    assert int(rows.count.sum()) == 30


def test_writer_rejects_wrong_value_width():
    w, _ = make_writer(FMT_BASE)
    with pytest.raises(ValueError):
        w.put_batch(0, random_kv_batch(5, 99, rng=6))


def test_receiver_routes_by_format():
    dev = StorageDevice()
    recv = ReceiverState(1, 4, FMT_FILTERKV, dev, value_bytes=16, aux_backend=CUCKOO)
    keys = np.arange(10, dtype="<u8")
    recv.deliver(keys.view(np.uint8).reshape(10, 8), np.asarray([3]), np.asarray([10]))
    assert recv.records_received == 10
    recv.finish()
    assert 3 in recv.aux.candidate_ranks(5)


def test_receiver_rejects_records_its_counts_do_not_describe():
    recv = ReceiverState(1, 4, FMT_BASE, StorageDevice(), value_bytes=16, aux_backend=CUCKOO)
    with pytest.raises(ValueError):  # 2 records announced, 3 delivered
        recv.deliver(np.zeros((3, 24), dtype=np.uint8), np.asarray([0]), np.asarray([2]))
    with pytest.raises(ValueError):  # filterkv-width records to a base receiver
        recv.deliver(np.zeros((2, 8), dtype=np.uint8), np.asarray([0]), np.asarray([2]))


def test_receiver_base_persists_sstable():
    dev = StorageDevice()
    recv = ReceiverState(0, 2, FMT_BASE, dev, value_bytes=4, aux_backend=CUCKOO)
    records = np.zeros((3, 12), dtype=np.uint8)
    records[:, :8] = np.asarray([7, 5, 9], dtype="<u8").view(np.uint8).reshape(3, 8)
    records[:, 8:] = np.arange(12, dtype=np.uint8).reshape(3, 4)
    recv.deliver(records, np.asarray([1]), np.asarray([3]))
    stats = recv.finish()
    assert stats.nentries == 3
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.get(5) == bytes(records[1, 8:])


def test_receiver_dataptr_stamps_each_message_sender():
    """A dataptr pointer's rank is its message's sender, run by run."""
    dev = StorageDevice()
    recv = ReceiverState(0, 4, FMT_DATAPTR, dev, value_bytes=4, aux_backend=CUCKOO)
    records = np.zeros((3, 16), dtype=np.uint8)
    records[:, :8] = np.asarray([7, 5, 9], dtype="<u8").view(np.uint8).reshape(3, 8)
    records[:, 8:] = np.asarray([0, 8, 16], dtype="<u8").view(np.uint8).reshape(3, 8)
    recv.deliver(records, np.asarray([2, 3]), np.asarray([1, 2]))
    recv.finish()
    r = SSTableReader(dev, main_table_name(0, 0))
    got = {k: r.get(k) for k in (7, 5, 9)}
    want = {7: (2, 0), 5: (3, 8), 9: (3, 16)}
    for key, (rank, offset) in want.items():
        assert got[key] == rank.to_bytes(4, "little") + offset.to_bytes(8, "little")


def test_empty_epoch_ships_no_rows():
    w, _ = make_writer(FMT_BASE)
    w.put_batch(0, random_kv_batch(0, 16, rng=7))
    rows = w.finish()
    assert rows.src.size == rows.dest.size == rows.count.size == 0
    assert rows.records.shape == (0, 24)


@pytest.mark.parametrize("bulk", [True, False])
def test_duplicate_keys_first_wins_across_batches(bulk):
    """One key written in every record of several puts: the main table
    answers the first write."""
    keys = np.full(100, 7, dtype=np.uint64)
    vals = np.arange(1600, dtype=np.uint8).reshape(100, 16)
    batches = [KVBatch(keys[lo : lo + 16], vals[lo : lo + 16]) for lo in range(0, 100, 16)]
    dev, _ = messages(FMT_FILTERKV, batches, nranks=2, bulk=bulk)
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.get(7) == vals[0].tobytes()


@pytest.mark.parametrize("bulk", [True, False])
def test_interleaved_duplicates_first_wins_across_batches(bulk):
    """Duplicates interleaved with other keys and spread over batches of
    uneven sizes: the earliest write wins, and every key resolves."""
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 50, size=400).astype(np.uint64)  # heavy duplication
    vals = rng.integers(0, 256, size=(400, 16)).astype(np.uint8)
    parts = np.array_split(np.arange(400), [1, 40, 41, 150, 233, 399])
    dev, _ = messages(FMT_FILTERKV, [KVBatch(keys[p], vals[p]) for p in parts], nranks=2,
                      bulk=bulk)
    r = SSTableReader(dev, main_table_name(0, 0))
    first = {}
    for k, v in zip(keys.tolist(), vals):
        first.setdefault(k, v.tobytes())
    for k, expect in first.items():
        assert r.get(k) == expect


@pytest.mark.parametrize("bulk", [True, False])
def test_wire_roundtrip_odd_batch_sizes(bulk):
    """Odd put sizes against a batch budget that is not a record multiple:
    every record must arrive intact, whole-record framing preserved."""
    rng = np.random.default_rng(23)
    batches = []
    for n in (1, 3, 7, 13, 101, 2, 50):
        keys = rng.integers(0, 1 << 60, size=n).astype(np.uint64)
        vals = rng.integers(0, 256, size=(n, 16)).astype(np.uint8)
        batches.append(KVBatch(keys, vals))
    # batch_bytes is not a multiple of the 8-byte wire record.
    _, sent = messages(FMT_FILTERKV, batches, nranks=1, batch_bytes=100, bulk=bulk)
    for _, payload, n in sent:
        assert len(payload) % 8 == 0 and n == len(payload) // 8
    recv = ReceiverState(0, 1, FMT_FILTERKV, StorageDevice(), 16, aux_backend=CUCKOO)
    recv.deliver(
        np.frombuffer(b"".join(p for _, p, _ in sent), dtype=np.uint8).reshape(-1, 8),
        np.zeros(len(sent), dtype=np.int64),
        np.asarray([n for _, _, n in sent]),
    )
    recv.finish()
    assert sum(n for _, _, n in sent) == recv.records_received == 177


def test_cuts_match_the_per_record_writer():
    """Mid-put cuts, a remainder per destination, and their order: the
    rows are the envelopes the per-record writer sends, in its order."""
    rng = np.random.default_rng(29)
    batches = [random_kv_batch(n, 16, rng) for n in (37, 5, 120, 0, 64)]
    for fmt in (FMT_BASE, FMT_DATAPTR, FMT_FILTERKV):
        for batch_bytes in (1, 50, 100, 1000):
            got = messages(fmt, batches, nranks=5, batch_bytes=batch_bytes)[1]
            want = messages(fmt, batches, nranks=5, batch_bytes=batch_bytes, bulk=False)[1]
            assert got == want, (fmt.name, batch_bytes)
