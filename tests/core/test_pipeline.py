"""Direct unit tests for WriterState / ReceiverState (below SimCluster).

Tests parametrized on ``bulk`` hold the columnar pipeline (True) and the
per-record reference of `tests/reference/ingest.py` (False) to the same
behaviour; `tests/integration/test_ingest_reference.py` holds them to the
same bytes.
"""

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch, random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import Envelope, ReceiverState, WriterState, main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import SSTableReader

from ..reference import ingest as ref

CUCKOO = "cuckoo"  # the paper's aux table, as `SimCluster` seals


def make_writer(fmt, sent, nranks=4, value_bytes=16, batch_bytes=256, bulk=True):
    device = StorageDevice()
    w = (WriterState if bulk else ref.Writer)(
        rank=0,
        fmt=fmt,
        partitioner=HashPartitioner(nranks),
        device=device,
        value_bytes=value_bytes,
        send=sent.append,
        aux_backend=CUCKOO,
        batch_bytes=batch_bytes,
    )
    return w, device


def test_writer_batches_by_destination():
    sent = []
    w, _ = make_writer(FMT_BASE, sent, batch_bytes=10_000)
    w.put_batch(random_kv_batch(200, 16, rng=1))
    assert sent == []  # under batch size: everything still buffered
    w.flush()
    assert 1 <= len(sent) <= 4
    dests = {e.dest for e in sent}
    assert dests <= {0, 1, 2, 3}
    assert sum(e.nrecords for e in sent) == 200


def test_writer_ships_full_batches_eagerly():
    sent = []
    w, _ = make_writer(FMT_BASE, sent, batch_bytes=256)
    w.put_batch(random_kv_batch(400, 16, rng=2))
    assert sent  # 400 records × 24 B / 4 dests ≫ 256 B per buffer
    # Batches respect record boundaries: payload divides evenly.
    for e in sent:
        assert len(e.payload) % 24 == 0
        assert len(e.payload) // 24 == e.nrecords


def test_writer_base_payload_encoding():
    sent = []
    w, _ = make_writer(FMT_BASE, sent, nranks=2, batch_bytes=64)
    batch = random_kv_batch(10, 16, rng=3)
    w.put_batch(batch)
    w.flush()
    raw = b"".join(e.payload for e in sorted(sent, key=lambda e: e.dest))
    assert len(raw) == 10 * 24
    # Keys embedded little-endian at each record start.
    keys = {int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 24)}
    assert keys == {int(k) for k in batch.keys}


def test_writer_filterkv_payload_is_keys_only():
    sent = []
    w, dev = make_writer(FMT_FILTERKV, sent, nranks=2, batch_bytes=64)
    batch = random_kv_batch(50, 16, rng=4)
    w.put_batch(batch)
    stats = w.finish()
    assert stats is not None and stats.nentries == 50  # local main table
    total_payload = sum(len(e.payload) for e in sent)
    assert total_payload == 50 * 8
    # The local main table holds complete KV pairs.
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.get(int(batch.keys[0])) == batch.value_of(0)


def test_writer_dataptr_writes_vlog_and_ships_offsets():
    sent = []
    w, dev = make_writer(FMT_DATAPTR, sent, nranks=2, batch_bytes=64)
    batch = random_kv_batch(30, 16, rng=5)
    w.put_batch(batch)
    w.flush()
    assert w.local_storage_bytes == 30 * (16 + 4)  # values + length prefixes
    total_payload = sum(len(e.payload) for e in sent)
    assert total_payload == 30 * 16  # key + offset


def test_writer_rejects_wrong_value_width():
    w, _ = make_writer(FMT_BASE, [])
    with pytest.raises(ValueError):
        w.put_batch(random_kv_batch(5, 99, rng=6))


def test_receiver_routes_by_format():
    dev = StorageDevice()
    recv = ReceiverState(1, 4, FMT_FILTERKV, dev, value_bytes=16, aux_backend=CUCKOO)
    keys = np.arange(10, dtype="<u8")
    recv.deliver(Envelope(src=3, dest=1, payload=keys.tobytes(), nrecords=10))
    assert recv.records_received == 10
    recv.finish()
    assert 3 in recv.aux.candidate_ranks(5)


def test_receiver_rejects_misrouted_envelope():
    recv = ReceiverState(1, 4, FMT_BASE, StorageDevice(), value_bytes=16, aux_backend=CUCKOO)
    with pytest.raises(ValueError):
        recv.deliver(Envelope(src=0, dest=2, payload=b"", nrecords=0))


def test_receiver_base_persists_sstable():
    dev = StorageDevice()
    recv = ReceiverState(0, 2, FMT_BASE, dev, value_bytes=4, aux_backend=CUCKOO)
    payload = np.zeros((3, 12), dtype=np.uint8)
    payload[:, :8] = np.asarray([7, 5, 9], dtype="<u8").view(np.uint8).reshape(3, 8)
    payload[:, 8:] = np.arange(12, dtype=np.uint8).reshape(3, 4)
    recv.deliver(Envelope(src=1, dest=0, payload=payload.tobytes(), nrecords=3))
    stats = recv.finish()
    assert stats.nentries == 3
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.get(5) == bytes(payload[1, 8:])


def test_empty_flush_is_safe():
    sent = []
    w, _ = make_writer(FMT_BASE, sent)
    w.flush()
    w.flush()
    assert sent == []


@pytest.mark.parametrize("bulk", [True, False])
def test_duplicate_keys_first_wins_across_batches(bulk):
    """One key written in every record of several `put_batch` calls: the
    main table answers the first write."""
    w, dev = make_writer(FMT_FILTERKV, [], nranks=2, bulk=bulk)
    keys = np.full(100, 7, dtype=np.uint64)
    vals = np.arange(1600, dtype=np.uint8).reshape(100, 16)
    for lo in range(0, 100, 16):
        w.put_batch(KVBatch(keys[lo : lo + 16], vals[lo : lo + 16]))
    w.finish()
    r = SSTableReader(dev, main_table_name(0, 0))
    assert r.get(7) == vals[0].tobytes()


@pytest.mark.parametrize("bulk", [True, False])
def test_interleaved_duplicates_first_wins_across_batches(bulk):
    """Duplicates interleaved with other keys and spread over batches of
    uneven sizes: the earliest write wins, and every key resolves."""
    w, dev = make_writer(FMT_FILTERKV, [], nranks=2, bulk=bulk)
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 50, size=400).astype(np.uint64)  # heavy duplication
    vals = rng.integers(0, 256, size=(400, 16)).astype(np.uint8)
    for part in np.array_split(np.arange(400), [1, 40, 41, 150, 233, 399]):
        w.put_batch(KVBatch(keys[part], vals[part]))
    w.finish()
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
    sent = []
    # batch_bytes is not a multiple of the 8-byte wire record.
    w, _ = make_writer(FMT_FILTERKV, sent, nranks=1, batch_bytes=100, bulk=bulk)
    rng = np.random.default_rng(23)
    total = 0
    for n in (1, 3, 7, 13, 101, 2, 50):
        keys = rng.integers(0, 1 << 60, size=n).astype(np.uint64)
        vals = rng.integers(0, 256, size=(n, 16)).astype(np.uint8)
        w.put_batch(KVBatch(keys, vals))
        total += n
    w.flush()
    recv = (ReceiverState if bulk else ref.Receiver)(
        rank=0, nranks=1, fmt=FMT_FILTERKV, device=StorageDevice(), value_bytes=16,
        aux_backend=CUCKOO,
    )
    for env in sent:
        assert len(env.payload) % 8 == 0 and env.nrecords == len(env.payload) // 8
        recv.deliver(env)
    recv.finish()
    assert sum(env.nrecords for env in sent) == total
    assert recv.records_received == total
