"""The executing write pipeline: what each rank actually does per record.

`WriterState` implements the producer side of Fig. 3 for all three formats
— local writes, payload encoding, destination batching — and `ReceiverState`
the partition-owner side — decoding, partition tables, aux-table builds.
`repro.cluster.simcluster.SimCluster` wires one of each per rank over an
in-memory transport with exact message/byte accounting.

Payload wire formats (little-endian, fixed-width; the sender's rank rides
in the batch envelope):

* base:      ``key u64 ‖ value[value_bytes]`` per record
* dataptr:   ``key u64 ‖ offset u64``         per record
* filterkv:  ``key u64``                      per record
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs import MetricsRegistry, active
from ..storage.blockio import StorageDevice
from ..storage.envelope import seal
from ..storage.log import ValueLog
from ..storage.sstable import SSTableWriter, TableStats
from .auxtable import AuxTable, aux_to_blob, build_sealed_aux
from .formats import FormatSpec
from .kv import KEY_BYTES, KVBatch
from .partitioning import HashPartitioner

__all__ = [
    "Envelope",
    "WriterState",
    "ReceiverState",
    "build_aux",
    "main_table_name",
    "aux_table_name",
    "clear_epoch",
    "epoch_files",
    "rank_extents",
]

SendFn = Callable[["Envelope"], None]


def main_table_name(epoch: int, rank: int) -> str:
    """The name a writer gives the partition / main table it creates for
    one rank of one epoch.  Readers take names from the epoch's listed
    extents (`rank_extents`), never from this."""
    return f"part.{epoch:03d}.{rank:06d}"


def aux_table_name(epoch: int, rank: int) -> str:
    """The name a writer gives the aux table it seals for one partition."""
    return f"aux.{epoch:03d}.{rank:06d}"


def rank_extents(files, nranks: int) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    """An epoch's listed extents resolved to per-rank ``(tables, auxes)``.

    The manifest's ``EpochInfo.files`` is the one source of an epoch's
    extent names.  A name's last field is the rank (or aux partition) it
    serves; its epoch field may be a retired epoch's id, because a merge
    adopts a source's extent whole instead of rewriting it.  ``auxes`` is
    all None for the formats without aux tables.
    """
    named = {"part": [None] * nranks, "aux": [None] * nranks}
    for name in files:
        slots = named.get(name.split(".", 1)[0])
        if slots is not None:
            slots[int(name.rsplit(".", 1)[1])] = name
    missing = [rank for rank, name in enumerate(named["part"]) if name is None]
    if missing:
        raise ValueError(f"epoch lists no table for rank(s) {missing}")
    return tuple(named["part"]), tuple(named["aux"])


def epoch_files(device: StorageDevice, epoch: int, fmt: FormatSpec) -> list[str]:
    """The extents on ``device`` that epoch ``epoch`` of a ``fmt`` store
    holds, in device order: its partitions and aux tables, and for
    dataptr (whose pointers dereference into them) the shared value logs."""
    names = [main_table_name(epoch, 0), aux_table_name(epoch, 0)]
    if fmt.name == "dataptr":
        names.append(ValueLog.filename(0))
    own = tuple(n.rpartition(".")[0] + "." for n in names)
    return [n for n in device.list_files() if n.startswith(own)]


def clear_epoch(device: StorageDevice, epoch: int) -> None:
    """Delete every ``part.<epoch>.*`` and ``aux.<epoch>.*`` extent, before
    epoch id ``epoch`` is written.

    Writers create by appending, so what a failed attempt left would
    otherwise sit in front of the retry's bytes.  The caller passes the
    manifest's ``next_epoch``, which no committed epoch lists (adopted
    extents carry older ids); value logs are shared by every epoch and
    never deleted.
    """
    own = tuple(n(epoch, 0).rpartition(".")[0] + "." for n in (main_table_name, aux_table_name))
    for name in device.list_files():
        if name.startswith(own):
            device.delete(name)


@dataclass(frozen=True)
class Envelope:
    """One RPC batch on the (simulated) wire."""

    src: int
    dest: int
    payload: bytes
    nrecords: int


class WriterState:
    """Producer-side pipeline for one rank."""

    def __init__(
        self,
        rank: int,
        fmt: FormatSpec,
        partitioner: HashPartitioner,
        device: StorageDevice,
        value_bytes: int,
        send: SendFn,
        batch_bytes: int = 16384,
        epoch: int = 0,
        block_size: int = 1 << 20,
        metrics: MetricsRegistry | None = None,
    ):
        self.rank = rank
        self.fmt = fmt
        self.partitioner = partitioner
        self.device = device
        self.value_bytes = value_bytes
        self.send = send
        self.batch_bytes = batch_bytes
        self.epoch = epoch
        self._buffers: dict[int, bytearray] = {}
        self._buffer_counts: dict[int, int] = {}
        self.records_written = 0
        self.metrics = active(metrics)
        self._m_records = self.metrics.counter(
            "pipeline.records_encoded", format=fmt.name, rank=rank
        )
        self._m_wire_bytes = self.metrics.counter(
            "pipeline.wire_bytes", format=fmt.name, rank=rank
        )
        self._m_batches = self.metrics.counter(
            "pipeline.batches_shipped", format=fmt.name, rank=rank
        )
        self._vlog: ValueLog | None = None
        self._main: SSTableWriter | None = None
        if fmt.name == "dataptr":
            self._vlog = ValueLog(device, rank)
        elif fmt.name == "filterkv":
            self._main = SSTableWriter(
                device, main_table_name(epoch, rank), block_size=block_size
            )

    # -- producing --------------------------------------------------------

    def put_batch(self, batch: KVBatch) -> None:
        """Process one batch of generated KV pairs.

        Local writes (value log, main table) and payload encoding all
        happen as array operations with no per-record Python work.
        """
        if batch.value_bytes != self.value_bytes:
            raise ValueError(
                f"batch value width {batch.value_bytes} != pipeline width {self.value_bytes}"
            )
        offsets = None
        if self.fmt.name == "dataptr":
            offsets = self._vlog.append_many(batch.values)
        elif self.fmt.name == "filterkv":
            self._main.add_many(batch.keys, batch.values)
        for dest, idx in enumerate(self.partitioner.split(batch.keys)):
            if idx.size == 0:
                continue
            payload = self._encode(batch, idx, offsets)
            self._append_to_buffer(dest, payload, idx.size)
        self.records_written += len(batch)
        self._m_records.inc(len(batch))

    def _encode(self, batch: KVBatch, idx: np.ndarray, offsets: np.ndarray | None) -> bytes:
        keys_le = batch.keys[idx].astype("<u8")
        if self.fmt.name == "base":
            out = np.zeros((idx.size, KEY_BYTES + self.value_bytes), dtype=np.uint8)
            out[:, :KEY_BYTES] = keys_le.view(np.uint8).reshape(-1, KEY_BYTES)
            out[:, KEY_BYTES:] = batch.values[idx]
            return out.tobytes()
        if self.fmt.name == "dataptr":
            out = np.zeros((idx.size, KEY_BYTES + 8), dtype=np.uint8)
            out[:, :KEY_BYTES] = keys_le.view(np.uint8).reshape(-1, KEY_BYTES)
            out[:, KEY_BYTES:] = offsets[idx].astype("<u8").view(np.uint8).reshape(-1, 8)
            return out.tobytes()
        return keys_le.tobytes()

    def _append_to_buffer(self, dest: int, payload: bytes, nrecords: int) -> None:
        buf = self._buffers.setdefault(dest, bytearray())
        buf += payload
        self._buffer_counts[dest] = self._buffer_counts.get(dest, 0) + nrecords
        record_bytes = len(payload) // nrecords
        # Ship whole records only: trim the cut to a record boundary.  A
        # record wider than batch_bytes would trim to zero; such records
        # ship as single-record envelopes instead of looping forever.
        cut = max(record_bytes, (self.batch_bytes // record_bytes) * record_bytes)
        while len(buf) >= self.batch_bytes and len(buf) >= record_bytes:
            take = min(cut, (len(buf) // record_bytes) * record_bytes)
            self._ship(dest, bytes(buf[:take]), take // record_bytes)
            del buf[:take]
            self._buffer_counts[dest] -= take // record_bytes

    def _ship(self, dest: int, payload: bytes, nrecords: int) -> None:
        if nrecords:
            self._m_wire_bytes.inc(len(payload))
            self._m_batches.inc()
            self.send(Envelope(self.rank, dest, payload, nrecords))

    def flush(self) -> None:
        """Ship every partial batch (end of the I/O burst)."""
        for dest, buf in self._buffers.items():
            if buf:
                self._ship(dest, bytes(buf), self._buffer_counts[dest])
        self._buffers.clear()
        self._buffer_counts.clear()

    def finish(self) -> TableStats | None:
        """Flush, then finalize local structures; returns main-table
        stats."""
        self.flush()
        if self._main is not None:
            return self._main.finish()
        return None

    @property
    def local_storage_bytes(self) -> int:
        if self._vlog is not None:
            return self._vlog.size_bytes
        if self._main is not None:
            return self.device.file_size(main_table_name(self.epoch, self.rank))
        return 0


class ReceiverState:
    """Partition-owner pipeline for one rank."""

    def __init__(
        self,
        rank: int,
        nranks: int,
        fmt: FormatSpec,
        device: StorageDevice,
        value_bytes: int,
        epoch: int = 0,
        block_size: int = 1 << 20,
        aux_seed: int = 0,
        aux_backends: tuple[str, ...] = ("cuckoo",),
        metrics: MetricsRegistry | None = None,
    ):
        self.rank = rank
        self.nranks = nranks
        self.fmt = fmt
        self.device = device
        self.value_bytes = value_bytes
        self.epoch = epoch
        self.aux_backends = aux_backends
        self._aux_seed = aux_seed
        self.records_received = 0
        self.metrics = active(metrics)
        self._m_records = self.metrics.counter(
            "pipeline.records_decoded", format=fmt.name, rank=rank
        )
        self._m_batches = self.metrics.counter(
            "pipeline.batches_received", format=fmt.name, rank=rank
        )
        # An epoch's mappings are immutable once it seals, so the burst only
        # buffers them — the wire payload *is* the key column (8 B/key), the
        # source column is one (sender, count) run per envelope — and
        # `build_aux` builds the aux table once, from the exact key count,
        # via the `build_sealed_aux` call compaction makes.  None until then.
        self.aux: AuxTable | None = None
        self._table: SSTableWriter | None = None
        self._aux_keys = bytearray()
        self._aux_srcs: list[int] = []
        self._aux_counts: list[int] = []
        if fmt.name in ("base", "dataptr"):
            self._table = SSTableWriter(
                device, main_table_name(epoch, rank), block_size=block_size
            )

    def deliver(self, env: Envelope) -> None:
        """Decode one batch into the partition's tables.

        Decoding is columnar: wire payloads reshape into record matrices
        and land in the tables via ``add_many`` with no per-record Python
        work.
        """
        if env.dest != self.rank:
            raise ValueError(f"envelope for rank {env.dest} delivered to {self.rank}")
        if self.fmt.name == "base":
            rec = KEY_BYTES + self.value_bytes
            rows = np.frombuffer(env.payload, dtype=np.uint8).reshape(env.nrecords, rec)
            keys = rows[:, :KEY_BYTES].copy().view("<u8").ravel()
            self._table.add_many(keys, rows[:, KEY_BYTES:])
        elif self.fmt.name == "dataptr":
            rows = np.frombuffer(env.payload, dtype=np.uint8).reshape(
                env.nrecords, KEY_BYTES + 8
            )
            keys = rows[:, :KEY_BYTES].copy().view("<u8").ravel()
            # Stored value is the packed 12-byte DataPointer: the sender's
            # rank (u32, from the envelope) + wire offset.
            ptrs = np.empty((env.nrecords, 12), dtype=np.uint8)
            ptrs[:, :4] = np.frombuffer(
                np.uint32(env.src).astype("<u4").tobytes(), dtype=np.uint8
            )
            ptrs[:, 4:] = rows[:, KEY_BYTES:]
            self._table.add_many(keys, ptrs)
        else:
            if len(env.payload) != env.nrecords * KEY_BYTES:
                raise ValueError(
                    f"{len(env.payload)} payload bytes for {env.nrecords} filterkv records"
                )
            self._aux_keys += env.payload
            self._aux_srcs.append(env.src)
            self._aux_counts.append(env.nrecords)
        self.records_received += env.nrecords
        self._m_records.inc(env.nrecords)
        self._m_batches.inc()

    def finish(self) -> TableStats | None:
        """Persist the partition's table, or seal its aux blob (built here,
        as a seal of one, unless `build_aux` built the epoch's together)."""
        if self._table is not None:
            return self._table.finish()
        if self.aux is None:
            build_aux([self])
        self.aux.record_structure_metrics()
        # Sealed self-describing blob: a crash mid-append leaves a torn seal
        # that recovery detects, and a complete one reloads the table exactly.
        name = aux_table_name(self.epoch, self.rank)
        self.device.create(name)
        self.device.append(name, seal(aux_to_blob(self.aux)))
        return None

    def _mappings(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The buffered ``(partition, keys, source ranks)`` to seal."""
        srcs = np.repeat(np.asarray(self._aux_srcs, dtype=np.uint64), self._aux_counts)
        return self.rank, np.frombuffer(self._aux_keys, dtype="<u8"), srcs


def build_aux(receivers: list[ReceiverState]) -> None:
    """Build the aux table of every filterkv receiver of one epoch in one
    `build_sealed_aux` call, from their shared rank count, backends and
    seed (`ReceiverState.finish` then seals each).  The paper's N receivers
    build their tables in parallel; one process builds them together."""
    receivers = [r for r in receivers if r._table is None]
    if not receivers:
        return
    first = receivers[0]
    tables = build_sealed_aux(
        (r._mappings() for r in receivers),
        nparts=first.nranks,
        backends=first.aux_backends,
        seed=first._aux_seed,
        metrics=first.metrics,
    )
    for r, aux in zip(receivers, tables):
        r.aux = aux
