"""Direct unit tests for WriterState / ReceiverState (below SimCluster)."""

import numpy as np
import pytest

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import Envelope, ReceiverState, WriterState, main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import SSTableReader


def make_writer(fmt, sent, nranks=4, value_bytes=16, batch_bytes=256):
    device = StorageDevice()
    w = WriterState(
        rank=0,
        fmt=fmt,
        partitioner=HashPartitioner(nranks),
        device=device,
        value_bytes=value_bytes,
        send=sent.append,
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
    recv = ReceiverState(1, 4, FMT_FILTERKV, dev, value_bytes=16)
    keys = np.arange(10, dtype="<u8")
    recv.deliver(Envelope(src=3, dest=1, payload=keys.tobytes(), nrecords=10))
    assert recv.records_received == 10
    recv.finish()
    assert 3 in recv.aux.candidate_ranks(5)


def test_receiver_rejects_misrouted_envelope():
    recv = ReceiverState(1, 4, FMT_BASE, StorageDevice(), value_bytes=16)
    with pytest.raises(ValueError):
        recv.deliver(Envelope(src=0, dest=2, payload=b"", nrecords=0))


def test_receiver_base_persists_sstable():
    dev = StorageDevice()
    recv = ReceiverState(0, 2, FMT_BASE, dev, value_bytes=4)
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
