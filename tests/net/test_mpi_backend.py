"""Tests for the MPI transport shim (loopback path; MPI path needs a
runtime and is exercised by examples/mpi_partition.py under mpiexec)."""

import numpy as np
import pytest

from repro.net.mpi_backend import (
    HAVE_MPI,
    Envelope,
    LoopbackTransport,
    columns,
    make_transport,
    pack_envelope,
    unpack_envelope,
)


def test_envelope_pack_roundtrip():
    env = Envelope(src=3, dest=7, payload=b"\x01\x02\x03payload", nrecords=2)
    blob = pack_envelope(env)
    out = unpack_envelope(blob)
    assert out == env


def test_unpack_rejects_short_blob():
    with pytest.raises(ValueError):
        unpack_envelope(b"\x00\x01")


def test_loopback_routes_to_destination():
    t = LoopbackTransport(4)
    t.send(Envelope(0, 2, b"a", 1))
    t.send(Envelope(1, 2, b"b", 1))
    t.send(Envelope(3, 0, b"c", 1))
    got2 = t.poll(2)
    assert [e.payload for e in got2] == [b"a", b"b"]
    assert [e.src for e in got2] == [0, 1]
    assert t.poll(2) == []  # drained
    assert t.poll(0)[0].payload == b"c"
    assert t.sent == 3 and t.received == 3


def test_loopback_validates():
    t = LoopbackTransport(2)
    with pytest.raises(ValueError):
        t.send(Envelope(0, 5, b"", 0))
    with pytest.raises(ValueError):
        LoopbackTransport(0)


def test_columns_join_polled_envelopes():
    """A receiver takes what it polled as one record matrix plus one
    (sender, count) per envelope."""
    envs = [Envelope(2, 1, bytes(range(16)), 2), Envelope(0, 1, bytes(range(16, 24)), 1)]
    records, senders, counts = columns(envs, 1, 8)
    assert records.shape == (3, 8) and records.tobytes() == bytes(range(24))
    assert senders.tolist() == [2, 0] and counts.tolist() == [2, 1]
    assert columns([], 1, 8)[0].shape == (0, 8)


def test_columns_reject_misrouted_and_torn_envelopes():
    with pytest.raises(ValueError):  # addressed to rank 2, polled by rank 1
        columns([Envelope(src=0, dest=2, payload=b"", nrecords=0)], 1, 8)
    with pytest.raises(ValueError):  # 12 bytes do not hold 2 whole records
        columns([Envelope(src=0, dest=1, payload=bytes(12), nrecords=2)], 1, 8)


def test_make_transport_falls_back_without_mpi():
    t = make_transport(6)
    if not HAVE_MPI:
        assert isinstance(t, LoopbackTransport)
        assert t.size == 6


def test_loopback_full_shuffle_roundtrip():
    """Drive real pipelines over the transport, both phases."""
    from repro.core.formats import FMT_FILTERKV
    from repro.core.kv import random_kv_batch
    from repro.core.partitioning import HashPartitioner
    from repro.core.pipeline import ReceiverState, WriterState
    from repro.net.mpi_backend import envelopes
    from repro.storage.blockio import StorageDevice

    nranks, records = 4, 800
    t = LoopbackTransport(nranks)
    receivers = []
    for rank in range(nranks):
        dev = StorageDevice()
        receivers.append(
            ReceiverState(rank, nranks, FMT_FILTERKV, dev, 8, "cuckoo")
        )
        w = WriterState([rank], FMT_FILTERKV, HashPartitioner(nranks), dev, 8, "cuckoo")
        w.put_batch(rank, random_kv_batch(records, 8, rng=rank))
        for env in envelopes(w.finish()):
            t.send(env)
    total = 0
    for rank in range(nranks):
        receivers[rank].deliver(*columns(t.poll(rank), rank, receivers[rank].record_bytes))
        receivers[rank].finish()
        total += receivers[rank].records_received
    assert total == nranks * records
    # Spot-check a mapping: rank 2's first key is findable in its owner's aux.
    batch = random_kv_batch(records, 8, rng=2)
    key = int(batch.keys[0])
    owner = HashPartitioner(nranks).partition_of_one(key)
    assert 2 in receivers[owner].aux.candidate_ranks(key)
