"""The ingest path written one record at a time: the write-side test oracle.

`SimCluster` writes an epoch with array operations.  This module writes the
same epoch record by record, from the documented formats alone:

* value log — ``u32 length ‖ value``, one append per value;
* wire — each record encoded on its own into a per-destination buffer that
  ships whole-record envelopes once it holds ``batch_bytes``, routed one
  envelope at a time directly or over the 3-hop path (`Direct`,
  `ThreeHop`);
* SSTable — ``u64 key ‖ value`` rows in stable key order (no length: the
  index holds the one row width),
  key groups and blocks cut record by record (`cut_records`, also the
  oracle of the writer's array cutter), the Bloom filter block (10 bits
  per key, and none in a filterkv main table whose epoch seals csf first:
  its aux guard is the record's one filter), the column-wise index with
  its group table, and the 64-byte footer.

It shares with the code under test only what is not the write path:
`HashPartitioner` (key to owner), `BloomFilter` (the filter's bits),
`build_sealed_aux` (the aux seal), the `ClusterStats` record and
`random_kv_batch`.  Its checksums are `zlib.crc32` called
here, zero-extended to 8 bytes, not the package's checksum helper.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.cluster.simcluster import ClusterStats
from repro.core.auxtable import aux_to_blob, build_sealed_aux
from repro.core.kv import random_kv_batch
from repro.core.partitioning import HashPartitioner
from repro.filters.bloom import BloomFilter
from repro.storage import sstable
from repro.storage.blockio import StorageDevice
from repro.storage.envelope import seal

ENTRY = struct.Struct("<Q")  # key: a table row is this, then the value
LEN = struct.Struct("<I")  # value-log length prefix
MAGIC = 0xF117E5CB_0F1A7ED  # SSTable footer magic: unframed rows, CRC-32 key groups
# The layout before it: the same tables, every row ``u64 key ‖ u32 vlen ‖
# value``.  Written only to check that it is refused.
FRAMED_ENTRY = struct.Struct("<QI")
FRAMED_MAGIC = 0xF117E5CB_C3C3236


def _sealed(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(8, "little")


# -- value log -----------------------------------------------------------------


def vlog_append(device: StorageDevice, name: str, value: bytes) -> int:
    """Append one length-prefixed value to log ``name``; returns the offset
    it landed at."""
    return device.append(name, LEN.pack(len(value)) + value)


# -- SSTable -------------------------------------------------------------------


def _row(key: int, value: bytes, framed: bool) -> bytes:
    return (FRAMED_ENTRY.pack(key, len(value)) if framed else ENTRY.pack(key)) + value


def cut_records(keys, values, block_size: int, group_cut: int, framed: bool = False):
    """Cut key-sorted records into blocks one record at a time: a group
    opens at the first record once the open one holds ``group_cut`` bytes,
    a block closes at the record that takes it to ``block_size``.  Yields,
    per block, ``(bytes, records, last key, group first keys, group
    offsets)`` — what the writer's array cutter ``sstable._cut_rows``
    yields for the same rows (``framed``: rows of the earlier layout)."""
    block, n, gfirst, goff, k = bytearray(), 0, [], [], 0
    for k, v in zip(keys, values):
        if not goff or len(block) - goff[-1] >= group_cut:
            gfirst.append(k)
            goff.append(len(block))
        block += _row(k, v, framed)
        n += 1
        if len(block) >= block_size:
            yield bytes(block), n, k, gfirst, goff
            block, n, gfirst, goff = bytearray(), 0, [], []
    if n:
        yield bytes(block), n, k, gfirst, goff


def table_image(items: list[tuple[int, bytes]], block_size: int,
                bloom_bits_per_key: float = 10.0, framed: bool = False) -> bytes:
    """The bytes of an SSTable holding ``items`` (in write order), values of
    one width; ``framed`` writes the earlier length-framed layout."""
    records = sorted(items, key=lambda kv: kv[0])  # stable: first write first
    entry = FRAMED_ENTRY if framed else ENTRY
    rec = entry.size + len(records[0][1]) if records else 0
    # A group is the fewest records reaching GROUP_BYTES, rounded up to a
    # multiple of eight records.
    group_cut = -(-sstable.GROUP_BYTES // (8 * rec)) * 8 * rec if rec else 0

    data = bytearray()
    blocks: list[tuple[int, ...]] = []  # first, last, offset; length, records, groups
    groups: list[tuple[int, ...]] = []  # first key, checksum; offset in block
    for block, n, last, gfirst, goff in cut_records(
        [k for k, _ in records], [v for _, v in records], block_size, group_cut, framed
    ):
        for first, off, end in zip(gfirst, goff, [*goff[1:], len(block)]):
            groups.append((first, zlib.crc32(block[off:end]), off))
        blocks.append((gfirst[0], last, len(data), len(block), n, len(goff)))
        data += block

    filt, nhashes = b"", 0
    if bloom_bits_per_key > 0 and records:
        bloom = BloomFilter.from_bits_per_key(len(records), bloom_bits_per_key)
        bloom.add_many(np.asarray([k for k, _ in items], dtype=np.uint64))
        filt, nhashes = _sealed(bloom.to_bytes()), bloom.nhashes

    index = struct.pack("<III", len(blocks), len(groups), rec)
    for c, column in enumerate(zip(*blocks)):
        index += b"".join(struct.pack("<Q" if c < 3 else "<I", v) for v in column)
    for c, column in enumerate(zip(*groups)):
        index += b"".join(struct.pack("<Q" if c < 2 else "<I", v) for v in column)
    index = _sealed(index)
    footer = _sealed(struct.pack(
        "<QQQQQQII", FRAMED_MAGIC if framed else MAGIC, len(data) + len(filt), len(index),
        len(data), len(filt), len(records), block_size, nhashes,
    ))
    return bytes(data) + filt + index + footer


class Table:
    """Per-record SSTable writer: `add`, then `finish` appends the image."""

    def __init__(self, device: StorageDevice, name: str, block_size: int = 4 << 20,
                 bloom_bits_per_key: float = 10.0):
        self.device, self.name = device, name
        device.create(name)
        self.block_size = block_size
        self.bloom_bits_per_key = bloom_bits_per_key
        self.items: list[tuple[int, bytes]] = []

    def add(self, key: int, value: bytes) -> None:
        self.items.append((int(key), bytes(value)))

    def finish(self) -> None:
        image = table_image(self.items, self.block_size, self.bloom_bits_per_key)
        self.device.append(self.name, image)


# -- one rank's writer and receiver ----------------------------------------------


def _bloom_bits(fmt, aux_backend) -> float:
    """A table's Bloom budget: a filterkv main table in an epoch that seals
    csf has none, every other table 10 bits per key."""
    return 0.0 if fmt.name == "filterkv" and aux_backend == "csf" else 10.0


def _wire_record_bytes(fmt, value_bytes: int) -> int:
    return {"base": 8 + value_bytes, "dataptr": 16, "filterkv": 8}[fmt.name]


@dataclass(frozen=True)
class Envelope:
    """One message on the wire: ``nrecords`` whole records from ``src``."""

    src: int
    dest: int
    payload: bytes
    nrecords: int


class Writer:
    """One rank's producer side, record by record (`WriterState`'s role
    for one of its ranks)."""

    def __init__(self, rank, fmt, partitioner, device, value_bytes, send, aux_backend,
                 batch_bytes=16384, epoch=0, block_size=1 << 20):
        self.rank, self.fmt, self.partitioner, self.device = rank, fmt, partitioner, device
        self.value_bytes, self.send, self.batch_bytes = value_bytes, send, batch_bytes
        self.rec = _wire_record_bytes(fmt, value_bytes)
        self.buffers: dict[int, bytearray] = {}
        self.records_written = 0
        self.wire_bytes = 0
        self.shipped = 0
        self.vlog = self.main = None
        if fmt.name == "dataptr":
            self.vlog = f"vlog.{rank:06d}"
            device.create(self.vlog)
        elif fmt.name == "filterkv":
            self.main = Table(device, f"part.{epoch:03d}.{rank:06d}", block_size,
                              _bloom_bits(fmt, aux_backend))

    def put_batch(self, batch) -> None:
        """Write every record locally, in batch order, then ship the batch
        destination by destination in rank order, each destination's
        records in batch order."""
        encoded = [
            self.put(key, value.tobytes()) for key, value in zip(batch.keys.tolist(), batch.values)
        ]
        for dest in sorted({dest for dest, _ in encoded}):
            for payload in (payload for d, payload in encoded if d == dest):
                self.buffer(dest, payload)

    def put(self, key: int, value: bytes) -> tuple[int, bytes]:
        """One record's local write; returns its destination and payload."""
        if len(value) != self.value_bytes:
            raise ValueError(f"value width {len(value)} != {self.value_bytes}")
        if self.fmt.name == "dataptr":
            payload = struct.pack("<QQ", key, vlog_append(self.device, self.vlog, value))
        elif self.fmt.name == "filterkv":
            self.main.add(key, value)
            payload = struct.pack("<Q", key)
        else:
            payload = struct.pack("<Q", key) + value
        self.records_written += 1
        return self.partitioner.partition_of_one(key), payload

    def buffer(self, dest: int, payload: bytes) -> None:
        buf = self.buffers.setdefault(dest, bytearray())
        buf += payload
        cut = max(self.rec, self.batch_bytes // self.rec * self.rec)  # whole records
        while len(buf) >= self.batch_bytes:
            self.ship(dest, buf[:cut])
            del buf[:cut]

    def ship(self, dest: int, payload) -> None:
        self.wire_bytes += len(payload)
        self.shipped += 1
        self.send(Envelope(self.rank, dest, bytes(payload), len(payload) // self.rec))

    def flush(self) -> None:
        for dest, buf in self.buffers.items():
            if buf:
                self.ship(dest, buf)
        self.buffers.clear()

    def finish(self) -> None:
        self.flush()
        if self.main is not None:
            self.main.finish()

    @property
    def local_storage_bytes(self) -> int:
        names = [n for n in (self.vlog, self.main and self.main.name) if n]
        return sum(self.device.file_size(n) for n in names)


class Receiver:
    """One rank's partition-owner side, record by record, one envelope per
    `deliver` (`ReceiverState`'s role and constructor)."""

    def __init__(self, rank, nranks, fmt, device, value_bytes, aux_backend, epoch=0,
                 block_size=1 << 20, aux_seed=0):
        self.rank, self.nranks, self.fmt, self.aux_backend = rank, nranks, fmt, aux_backend
        self.device, self.epoch, self.aux_seed = device, epoch, aux_seed
        self.rec = _wire_record_bytes(fmt, value_bytes)
        self.records_received = 0
        self.received = 0
        self.table = None
        self.aux = None
        self.aux_keys: list[int] = []
        self.aux_srcs: list[int] = []
        if fmt.name in ("base", "dataptr"):
            self.table = Table(device, f"part.{epoch:03d}.{rank:06d}", block_size)

    def deliver(self, env: Envelope) -> None:
        if env.dest != self.rank:
            raise ValueError(f"envelope for rank {env.dest} delivered to {self.rank}")
        for pos in range(0, len(env.payload), self.rec):
            record = env.payload[pos : pos + self.rec]
            (key,) = struct.unpack_from("<Q", record)
            if self.fmt.name == "base":
                self.table.add(key, record[8:])
            elif self.fmt.name == "dataptr":  # the 12-byte pointer: u32 rank, u64 offset
                (offset,) = struct.unpack_from("<Q", record, 8)
                self.table.add(key, struct.pack("<IQ", env.src, offset))
            else:
                self.aux_keys.append(key)
                self.aux_srcs.append(env.src)
        self.records_received += env.nrecords
        self.received += 1

    def finish(self) -> None:
        if self.table is not None:
            self.table.finish()
            return
        (self.aux,) = build_sealed_aux(
            [
                (
                    self.rank,
                    np.asarray(self.aux_keys, dtype=np.uint64),
                    np.asarray(self.aux_srcs, dtype=np.uint64),
                )
            ],
            nparts=self.nranks,
            backend=self.aux_backend,
            seed=self.aux_seed,
            metrics=None,
        )
        name = f"aux.{self.epoch:03d}.{self.rank:06d}"
        self.device.create(name)
        self.device.append(name, seal(aux_to_blob(self.aux)))


# -- routing -----------------------------------------------------------------


class Direct:
    """Every envelope is one message: none for a rank's own, a node-local
    (shared-memory) one within a node of ``ppn`` ranks, else a wire RPC."""

    def __init__(self, deliver, ppn: int):
        self.deliver, self.ppn = deliver, ppn
        self.wire_messages = self.wire_bytes = self.local_messages = 0

    def send(self, env: Envelope) -> None:
        if env.src != env.dest:
            if env.src // self.ppn == env.dest // self.ppn:
                self.local_messages += 1
            else:
                self.wire_messages += 1
                self.wire_bytes += len(env.payload)
        self.deliver(env)

    def flush(self) -> None:
        pass


class ThreeHop(Direct):
    """The DeltaFS path: sender → its node's representative → the remote
    node's representative → destination.  The node-local hops ride shared
    memory; the representatives aggregate every envelope between their two
    nodes and send one wire message once the aggregate holds
    ``batch_bytes``, the rest at the end of the burst, oldest aggregate
    first.  A node's own traffic takes one local hop, a rank's own none."""

    def __init__(self, deliver, ppn: int, batch_bytes: int):
        super().__init__(deliver, ppn)
        self.batch_bytes = batch_bytes
        self.pending: dict[tuple[int, int], list[Envelope]] = {}  # in opening order

    def send(self, env: Envelope) -> None:
        if env.src == env.dest:
            self.deliver(env)
            return
        self.local_messages += 1  # hop 1, or the whole way within a node
        pair = (env.src // self.ppn, env.dest // self.ppn)
        if pair[0] == pair[1]:
            self.deliver(env)
            return
        self.pending.setdefault(pair, []).append(env)
        if sum(len(e.payload) for e in self.pending[pair]) >= self.batch_bytes:
            self.ship(self.pending.pop(pair))

    def ship(self, envs: list[Envelope]) -> None:
        self.wire_messages += 1  # hop 2
        self.wire_bytes += sum(len(e.payload) for e in envs)
        for env in envs:
            self.local_messages += 1  # hop 3
            self.deliver(env)

    def flush(self) -> None:
        for pair in list(self.pending):
            self.ship(self.pending.pop(pair))


# -- a whole epoch -------------------------------------------------------------

SERIES = (
    "pipeline.records_encoded",
    "pipeline.wire_bytes",
    "pipeline.batches_shipped",
    "pipeline.records_decoded",
    "pipeline.batches_received",
)


@dataclass
class Replay:
    device: StorageDevice
    stats: ClusterStats
    wire_bytes: int  # every envelope payload shipped, self-addressed ones included
    series: dict[tuple[str, int], int]  # (a `SERIES` name, rank) -> count


def generated_puts(nranks, value_bytes, seed, records_per_rank, batch_records=4096):
    """The ``(rank, batch)`` puts ``SimCluster.run_epoch`` makes, in order."""
    rng = np.random.default_rng(seed)
    puts = []
    for rank in range(nranks):
        remaining = records_per_rank
        while remaining > 0:
            n = min(batch_records, remaining)
            puts.append((rank, random_kv_batch(n, value_bytes, rng)))
            remaining -= n
    return puts


def replay_epoch(nranks, fmt, value_bytes, seed, records_per_rank=0, batch_records=4096,
                 batch_bytes=16384, block_size=1 << 20, aux_backend="cuckoo", puts=None,
                 routing="direct", ppn=1) -> Replay:
    """What ``SimCluster(nranks, fmt, value_bytes, batch_bytes, block_size=,
    seed=, routing=, ppn=, aux_backend=)`` persists and counts after
    ``run_epoch(records_per_rank, batch_records)`` — or, given ``puts``
    (``(rank, batch)`` pairs in any rank order), after one ``put`` each and
    ``finish_epoch``."""
    if puts is None:
        puts = generated_puts(nranks, value_bytes, seed, records_per_rank, batch_records)
    device = StorageDevice()
    partitioner = HashPartitioner(nranks)
    receivers = [
        Receiver(r, nranks, fmt, device, value_bytes, aux_backend, block_size=block_size,
                 aux_seed=seed)
        for r in range(nranks)
    ]

    def deliver(env: Envelope) -> None:
        receivers[env.dest].deliver(env)

    router = ThreeHop(deliver, ppn, batch_bytes) if routing == "3hop" else Direct(deliver, ppn)
    writers = [
        Writer(r, fmt, partitioner, device, value_bytes, router.send, aux_backend,
               batch_bytes=batch_bytes, block_size=block_size)
        for r in range(nranks)
    ]
    for rank, batch in puts:
        writers[rank].put_batch(batch)
    for w in writers:
        w.finish()
    router.flush()
    for r in receivers:
        r.finish()

    total = device.total_bytes_stored()
    local = sum(w.local_storage_bytes for w in writers)
    stats = ClusterStats(
        nranks=nranks,
        records=sum(w.records_written for w in writers),
        rpc_messages=router.wire_messages,
        shuffle_bytes=router.wire_bytes,
        storage_bytes=total,
        local_storage_bytes=local,
        remote_storage_bytes=total - local,
        aux_bytes=sum(r.aux.size_bytes for r in receivers if r.aux is not None),
        local_messages=router.local_messages,
    )
    series = {}
    for w, r in zip(writers, receivers):
        counts = (w.records_written, w.wire_bytes, w.shipped, r.records_received, r.received)
        series.update({(name, w.rank): n for name, n in zip(SERIES, counts)})
    return Replay(device, stats, sum(w.wire_bytes for w in writers), series)


def extents(device: StorageDevice) -> dict[str, bytes]:
    """Every extent on ``device``, name -> bytes."""
    out = {}
    for name in device.list_files():
        out[name] = device.read(name, 0, device.file_size(name))
    return out
