"""Golden wire-format regression tests.

The three payload encodings (pipeline module docstring) are a stable
contract: readers recover persisted epochs written by older code, and the
fault-injection harness interprets offsets inside these records.  Each
test pins the exact bytes with hand-written hex constants — if an edit
changes the wire format, these fail loudly instead of silently breaking
cross-version compatibility.

* base:      ``key u64 LE ‖ value[value_bytes]``  per record
* dataptr:   ``key u64 LE ‖ vlog offset u64 LE``  per record
* filterkv:  ``key u64 LE``                        per record
"""

import numpy as np

from repro.core.formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV
from repro.core.kv import KVBatch
from repro.core.partitioning import HashPartitioner
from repro.core.pipeline import ReceiverState, WriterState, main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.log import DataPointer, ValueLog
from repro.storage.sstable import SSTableReader

from ..reference.read import scan_rows

KEYS = [0x0000000000000001, 0xDEADBEEFCAFEF00D, 0xFFFFFFFFFFFFFFFF]
VALUES = [b"\x10\x11\x12\x13", b"\x20\x21\x22\x23", b"\x30\x31\x32\x33"]

# fmt: off
GOLDEN_BASE = bytes.fromhex(
    "0100000000000000" "10111213"
    "0df0fecaefbeadde" "20212223"
    "ffffffffffffffff" "30313233"
)
# ValueLog records are ``u32 len ‖ value``: 4-byte values land at 0, 8, 16.
GOLDEN_DATAPTR = bytes.fromhex(
    "0100000000000000" "0000000000000000"
    "0df0fecaefbeadde" "0800000000000000"
    "ffffffffffffffff" "1000000000000000"
)
GOLDEN_FILTERKV = bytes.fromhex(
    "0100000000000000"
    "0df0fecaefbeadde"
    "ffffffffffffffff"
)
# fmt: on


def _batch():
    return KVBatch(
        np.asarray(KEYS, dtype=np.uint64),
        np.frombuffer(b"".join(VALUES), dtype=np.uint8).reshape(3, 4),
    )


def _encode_with_writer(fmt):
    """Run a single-destination writer and capture its shipped envelopes."""
    sent = []
    writer = WriterState(
        rank=0,
        fmt=fmt,
        partitioner=HashPartitioner(1),
        device=StorageDevice(),
        value_bytes=4,
        send=sent.append,
    )
    writer.put_batch(_batch())
    writer.flush()
    assert len(sent) == 1 and sent[0].nrecords == 3
    return writer, sent[0]


def _receiver(fmt):
    return ReceiverState(
        rank=0, nranks=1, fmt=fmt, device=StorageDevice(), value_bytes=4
    )


def test_base_payload_matches_golden_bytes():
    _, env = _encode_with_writer(FMT_BASE)
    assert env.payload == GOLDEN_BASE


def test_dataptr_payload_matches_golden_bytes():
    _, env = _encode_with_writer(FMT_DATAPTR)
    assert env.payload == GOLDEN_DATAPTR


def test_filterkv_payload_matches_golden_bytes():
    _, env = _encode_with_writer(FMT_FILTERKV)
    assert env.payload == GOLDEN_FILTERKV


def test_base_golden_bytes_decode_round_trip():
    recv = _receiver(FMT_BASE)
    _, env = _encode_with_writer(FMT_BASE)
    recv.deliver(env)
    recv.finish()
    reader = SSTableReader(recv.device, main_table_name(0, 0))
    assert dict(scan_rows(reader)) == dict(zip(KEYS, VALUES))


def test_dataptr_golden_bytes_decode_to_working_pointers():
    recv = _receiver(FMT_DATAPTR)
    writer, env = _encode_with_writer(FMT_DATAPTR)
    recv.deliver(env)
    recv.finish()
    reader = SSTableReader(recv.device, main_table_name(0, 0))
    vlog = ValueLog.open(writer.device, 0)
    for key, value in zip(KEYS, VALUES):
        ptr = DataPointer.unpack(reader.get(key))
        assert ptr.rank == 0
        # Pointers decoded from the wire bytes dereference into the
        # writer's value log and recover the original payload.
        assert vlog.read(ptr) == value


def test_filterkv_golden_bytes_decode_into_aux_table():
    recv = _receiver(FMT_FILTERKV)
    _, env = _encode_with_writer(FMT_FILTERKV)
    recv.deliver(env)
    recv.finish()  # the aux table is built at seal, not per envelope
    for key in KEYS:
        assert 0 in recv.aux.candidate_ranks(key)
