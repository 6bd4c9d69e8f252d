"""The executing write pipeline: what each rank actually does per record.

`WriterState` implements the producer side of Fig. 3 for all three formats
— local writes, payload encoding, destination batching — and `ReceiverState`
the partition-owner side — decoding, partition tables, aux-table builds.
`repro.cluster.simcluster.SimCluster` runs one writer over all its ranks and
one receiver per rank: an epoch's shuffle is one pass over every rank's
puts (`WriterState.finish`), whose messages are `Rows` that a router counts
and each receiver takes as columns, with exact message/byte accounting.

Payload wire formats (little-endian, fixed-width; the sender's rank rides
in the message):

* base:      ``key u64 ‖ value[value_bytes]`` per record
* dataptr:   ``key u64 ‖ offset u64``         per record
* filterkv:  ``key u64``                      per record
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import MetricsRegistry, active
from ..storage.blockio import StorageDevice
from ..storage.envelope import seal
from ..storage.log import ValueLog
from ..storage.sstable import TABLE_BLOOM_BITS, SSTableWriter, TableStats
from .auxtable import AuxTable, aux_to_blob, build_sealed_aux
from .formats import FormatSpec
from .kv import KEY_BYTES, KVBatch
from .partitioning import HashPartitioner

__all__ = [
    "Rows",
    "WriterState",
    "ReceiverState",
    "build_aux",
    "table_bloom_bits",
    "main_table_name",
    "aux_table_name",
    "clear_epoch",
    "epoch_files",
    "rank_extents",
]


def main_table_name(epoch: int, rank: int) -> str:
    """The name a writer gives the partition / main table it creates for
    one rank of one epoch.  Readers take names from the epoch's listed
    extents (`rank_extents`), never from this."""
    return f"part.{epoch:03d}.{rank:06d}"


def aux_table_name(epoch: int, rank: int) -> str:
    """The name a writer gives the aux table it seals for one partition."""
    return f"aux.{epoch:03d}.{rank:06d}"


def table_bloom_bits(fmt: str, aux_backend: str) -> float:
    """Bloom bits per key of a main table of format ``fmt`` in an epoch
    that seals its aux tables with ``aux_backend``: none for a filterkv
    epoch that seals csf (every store's), whose guard (`csf_fp_bits`) is
    the key's one filter; `TABLE_BLOOM_BITS` for every other table — base
    and dataptr have no aux, and `SimCluster`'s paper epochs seal the
    4-bit cuckoo.
    """
    return 0.0 if fmt == "filterkv" and aux_backend == "csf" else TABLE_BLOOM_BITS


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
class Rows:
    """An epoch's shuffle, one row per message, rows in the order they are
    sent: row ``i`` carries ``records[first[i] : first[i] + count[i]]``
    from rank ``src[i]`` to rank ``dest[i]``.  ``records`` holds every wire
    record of the epoch as an ``(n, record_bytes)`` uint8 matrix, grouped
    by (dest, writer), each group in put order."""

    src: np.ndarray
    dest: np.ndarray
    first: np.ndarray
    count: np.ndarray
    records: np.ndarray

    def by_dest(self, order: np.ndarray, nranks: int) -> list[tuple[np.ndarray, ...]]:
        """Per receiving rank, the rows it takes in delivery ``order`` (row
        indices), as `ReceiverState.deliver`'s ``(records, senders,
        counts)``."""
        order = order[np.argsort(self.dest[order], kind="stable")]
        counts, senders = self.count[order], self.src[order]
        ends = np.cumsum(counts)
        idx = np.repeat(self.first[order] - (ends - counts), counts) + np.arange(counts.sum())
        # `take` along rows, not `records[idx]`: ~10x faster on narrow rows.
        records = np.take(self.records, idx, axis=0)
        rows = np.searchsorted(self.dest[order], np.arange(nranks + 1)).tolist()
        at = np.concatenate(([0], ends))[rows].tolist()
        return [
            (records[a:b], senders[r:s], counts[r:s])
            for a, b, r, s in zip(at, at[1:], rows, rows[1:])
        ]


class WriterState:
    """Producer side of one epoch for the writer ranks ``ranks``: every
    rank of a `SimCluster`, or the one rank an MPI process owns.

    `put_batch` does a rank's local write at once and keeps the batch;
    `finish` shuffles every kept put in one pass and finalizes the local
    tables.  ``aux_backend`` is what the epoch's receivers seal with: it
    decides whether a filterkv main table carries a Bloom filter block
    (`table_bloom_bits`)."""

    def __init__(
        self,
        ranks: list[int],
        fmt: FormatSpec,
        partitioner: HashPartitioner,
        device: StorageDevice,
        value_bytes: int,
        aux_backend: str,
        batch_bytes: int = 16384,
        epoch: int = 0,
        block_size: int = 1 << 20,
        metrics: MetricsRegistry | None = None,
    ):
        self.ranks = list(ranks)
        self.fmt = fmt
        self.partitioner = partitioner
        self.device = device
        self.value_bytes = value_bytes
        self.record_bytes = int(fmt.shuffle_bytes_per_record(value_bytes, partitioner.nparts))
        self.batch_bytes = batch_bytes
        self._slot = {rank: i for i, rank in enumerate(self.ranks)}
        self._puts: list[tuple[int, KVBatch, np.ndarray | None]] = []
        self.records_written = 0
        self.metrics = active(metrics)
        self._m_records, self._m_wire_bytes, self._m_batches = (
            [self.metrics.counter(name, format=fmt.name, rank=r) for r in self.ranks]
            for name in (
                "pipeline.records_encoded", "pipeline.wire_bytes", "pipeline.batches_shipped"
            )
        )
        self._vlogs = [ValueLog(device, r) for r in self.ranks] if fmt.name == "dataptr" else []
        bloom = table_bloom_bits(fmt.name, aux_backend)
        self._mains = [
            SSTableWriter(device, main_table_name(epoch, r), block_size, bloom)
            for r in (self.ranks if fmt.name == "filterkv" else ())
        ]

    # -- producing --------------------------------------------------------

    def put_batch(self, rank: int, batch: KVBatch) -> None:
        """Write one batch of rank ``rank``'s generated KV pairs locally
        (value log, main table) and keep it for the shuffle."""
        if batch.value_bytes != self.value_bytes:
            raise ValueError(
                f"batch value width {batch.value_bytes} != pipeline width {self.value_bytes}"
            )
        slot = self._slot[rank]
        offsets = None
        if self.fmt.name == "dataptr":
            offsets = self._vlogs[slot].append_many(batch.values)
        elif self.fmt.name == "filterkv":
            self._mains[slot].add_many(batch.keys, batch.values)
        self._puts.append((slot, batch, offsets))
        self.records_written += len(batch)
        self._m_records[slot].inc(len(batch))

    def finish(self) -> Rows:
        """Shuffle every kept put, then finalize the local tables.

        One pass over all of them: one hash of every key, one stable sort
        by (dest, writer) and one (dest × writer) count matrix.  A (writer,
        dest) buffer cuts ``batch_bytes // record_bytes`` whole records
        (one, when a record is wider than the batch) each time it holds
        ``batch_bytes``, so its cuts are fixed runs of its sorted group,
        each shipped by the put that brought the record filling it; the
        rest ships at the end of the burst.  Rows go out as a per-record
        writer sends them: the cuts in put order, dests ascending within a
        put, then the remainders in writer order, each writer's dests in
        the order they first appeared.
        """
        puts, self._puts = self._puts, []
        nw, nd, rec = len(self.ranks), self.partitioner.nparts, self.record_bytes
        slots = np.asarray([slot for slot, _, _ in puts], dtype=np.int64)
        put_of = np.repeat(np.arange(len(puts)), [len(batch) for _, batch, _ in puts])
        keys = _concat([batch.keys for _, batch, _ in puts], np.zeros(0, np.uint64))
        cell = self.partitioner.partition_of(keys) * nw + slots[put_of]
        # A stable argsort of 16-bit keys is numpy's radix sort, ~10x a wider one's.
        narrow = np.uint16 if nd * nw <= 1 << 16 else np.int64
        order = np.argsort(cell.astype(narrow), kind="stable")
        held = np.bincount(cell, minlength=nd * nw)  # the (dest × writer) matrix
        base = np.cumsum(held) - held  # each (dest, writer) group's first record
        put_sorted = put_of[order]

        take = max(1, self.batch_bytes // rec)
        hold = max(1, -(-self.batch_bytes // rec))  # records that fill a batch
        ncuts = -(-np.maximum(held - hold + 1, 0) // take)
        cut = np.repeat(np.arange(held.size), ncuts)
        step = np.arange(cut.size) - np.repeat(np.cumsum(ncuts) - ncuts, ncuts)
        cut_first = base[cut] + step * take
        cuts = np.argsort(put_sorted[cut_first + hold - 1] * nd + cut // nw, kind="stable")
        left = held - ncuts * take
        rem = np.flatnonzero(left)
        first_put = put_sorted[base[rem]]
        rems = np.argsort(((rem % nw) * len(puts) + first_put) * nd + rem // nw, kind="stable")

        cells = np.concatenate((cut[cuts], rem[rems]))
        rows = Rows(
            src=np.asarray(self.ranks, dtype=np.int64)[cells % nw],
            dest=cells // nw,
            first=np.concatenate((cut_first[cuts], (base + ncuts * take)[rem][rems])),
            count=np.concatenate((np.full(cuts.size, take), left[rem][rems])),
            records=self._records(puts, keys, order),
        )
        sent = held.reshape(nd, nw).sum(axis=0).tolist()
        for slot, messages in enumerate(np.bincount(cells % nw, minlength=nw).tolist()):
            self._m_wire_bytes[slot].inc(sent[slot] * rec)
            self._m_batches[slot].inc(messages)
        for main in self._mains:
            main.finish()
        return rows

    def _records(self, puts, keys: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Every put's wire records (module docstring) in ``order``."""
        key_bytes = keys[order].astype("<u8", copy=False).view(np.uint8).reshape(-1, KEY_BYTES)
        if self.fmt.name == "filterkv":
            return key_bytes
        out = np.empty((order.size, self.record_bytes), dtype=np.uint8)
        out[:, :KEY_BYTES] = key_bytes
        if self.fmt.name == "base":
            values = [b.values for _, b, _ in puts]
            empty = np.zeros((0, self.value_bytes), np.uint8)
            out[:, KEY_BYTES:] = np.take(_concat(values, empty), order, axis=0)
        else:
            offsets = _concat([o for _, _, o in puts], np.zeros(0, np.uint64))
            out[:, KEY_BYTES:] = offsets[order].astype("<u8").view(np.uint8).reshape(-1, 8)
        return out

    @property
    def local_storage_bytes(self) -> int:
        mains = sum(self.device.file_size(main.name) for main in self._mains)
        return mains + sum(vlog.size_bytes for vlog in self._vlogs)


def _concat(arrays: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    return np.concatenate(arrays) if arrays else empty


class ReceiverState:
    """Partition-owner pipeline for one rank."""

    def __init__(
        self,
        rank: int,
        nranks: int,
        fmt: FormatSpec,
        device: StorageDevice,
        value_bytes: int,
        aux_backend: str,
        epoch: int = 0,
        block_size: int = 1 << 20,
        aux_seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        self.rank = rank
        self.nranks = nranks
        self.fmt = fmt
        self.device = device
        self.value_bytes = value_bytes
        self.record_bytes = int(fmt.shuffle_bytes_per_record(value_bytes, nranks))
        self.epoch = epoch
        self.aux_backend = aux_backend
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
        # buffers them — the wire records *are* the key column (8 B/key), the
        # source column each message's sender, once per record — and
        # `build_aux` builds the aux table once, from the exact key count,
        # via the `build_sealed_aux` call compaction makes.  None until then.
        self.aux: AuxTable | None = None
        self._table: SSTableWriter | None = None
        self._aux_keys: list[np.ndarray] = []
        self._aux_srcs: list[np.ndarray] = []
        if fmt.name in ("base", "dataptr"):
            self._table = SSTableWriter(
                device, main_table_name(epoch, rank), block_size=block_size
            )

    def deliver(self, records: np.ndarray, senders: np.ndarray, counts: np.ndarray) -> None:
        """Take this partition's rows in one call: ``records`` the
        ``(n, record_bytes)`` wire records in arrival order, one ``(sender,
        count)`` per message that carried them.

        Decoding is columnar: the key column and the values land in the
        tables via ``add_many`` with no per-record Python work.
        """
        n = int(np.sum(counts))
        if records.shape != (n, self.record_bytes):
            raise ValueError(f"{records.shape} records for {n} of {self.record_bytes} B")
        keys = np.ascontiguousarray(records[:, :KEY_BYTES]).view("<u8").ravel()
        if self.fmt.name == "base":
            self._table.add_many(keys, records[:, KEY_BYTES:])
        elif self.fmt.name == "dataptr":
            # Stored value is the packed 12-byte DataPointer: the sender's
            # rank (u32, from the message) + wire offset.
            ptrs = np.empty((n, 12), dtype=np.uint8)
            ptrs[:, :4] = np.repeat(np.asarray(senders, "<u4"), counts).view(np.uint8).reshape(n, 4)
            ptrs[:, 4:] = records[:, KEY_BYTES:]
            self._table.add_many(keys, ptrs)
        else:
            self._aux_keys.append(keys)
            self._aux_srcs.append(np.repeat(np.asarray(senders, np.uint64), counts))
        self.records_received += n
        self._m_records.inc(n)
        self._m_batches.inc(len(counts))

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
        none = np.zeros(0, np.uint64)
        return self.rank, _concat(self._aux_keys, none), _concat(self._aux_srcs, none)


def build_aux(receivers: list[ReceiverState]) -> None:
    """Build the aux table of every filterkv receiver of one epoch in one
    `build_sealed_aux` call, from their shared rank count, backend and
    seed (`ReceiverState.finish` then seals each).  The paper's N receivers
    build their tables in parallel; one process builds them together."""
    receivers = [r for r in receivers if r._table is None]
    if not receivers:
        return
    first = receivers[0]
    tables = build_sealed_aux(
        (r._mappings() for r in receivers),
        nparts=first.nranks,
        backend=first.aux_backend,
        seed=first._aux_seed,
        metrics=first.metrics,
    )
    for r, aux in zip(receivers, tables):
        r.aux = aux
