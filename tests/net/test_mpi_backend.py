"""Tests for the MPI transport shim (loopback path; MPI path needs a
runtime and is exercised by examples/mpi_partition.py under mpiexec)."""

import numpy as np
import pytest

from repro.core.pipeline import Envelope
from repro.net.mpi_backend import (
    HAVE_MPI,
    LoopbackTransport,
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
    from repro.storage.blockio import StorageDevice

    nranks, records = 4, 800
    t = LoopbackTransport(nranks)
    receivers = []
    for rank in range(nranks):
        dev = StorageDevice()
        receivers.append(
            ReceiverState(rank, nranks, FMT_FILTERKV, dev, 8, "cuckoo")
        )
        w = WriterState(
            rank, FMT_FILTERKV, HashPartitioner(nranks), dev, 8, t.send, "cuckoo"
        )
        w.put_batch(random_kv_batch(records, 8, rng=rank))
        w.finish()
    total = 0
    for rank in range(nranks):
        for env in t.poll(rank):
            receivers[rank].deliver(env)
        receivers[rank].finish()
        total += receivers[rank].records_received
    assert total == nranks * records
    # Spot-check a mapping: rank 2's first key is findable in its owner's aux.
    batch = random_kv_batch(records, 8, rng=2)
    key = int(batch.keys[0])
    owner = HashPartitioner(nranks).partition_of_one(key)
    assert 2 in receivers[owner].aux.candidate_ranks(key)
