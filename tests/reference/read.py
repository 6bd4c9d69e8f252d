"""The read path answered one key at a time: the read-side test oracle.

`QueryEngine.get_many` resolves a batch with shared table opens,
block-coalesced lookups and grouped value-log sweeps.  This module answers
each key on its own, the way the paper's reader does (Fig. 11):

* the key's owner partition, `HashPartitioner.partition_of_one`;
* its candidate partitions: the owner alone for base and dataptr, the
  owner's aux-table `candidate_ranks` for filterkv, walked in ascending
  order until the first that holds the key;
* a table is read with `scan_rows`, this module's own row-by-row walk
  over every block (every key group's CRC-32 checked here against the
  index first), and the first row of a key — the first written — is its
  value;
* for dataptr that value is a 12-byte pointer, ``u32 rank ‖ u64 offset``,
  to a ``u32 length ‖ value`` record of that writer's value log.

It shares with the code under test only what is not the read flow: the
partitioner, the aux tables, the per-rank table names the engine resolved
from its epoch's listed extents, and the table metadata `SSTableReader`
opens (`load_table_meta`'s footer, index and group table).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.reader import QueryStats
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import CorruptBlockError, SSTableReader

KEY = struct.Struct("<Q")  # a table row: the key, then the value to the row's end
POINTER = struct.Struct("<IQ")  # dataptr's stored value: writer rank, log offset
LEN = struct.Struct("<I")  # value-log length prefix

# Counters that depend only on the probe schedule, never on the I/O plan.
READER_COUNTERS = ("reader.queries", "reader.hits", "reader.partitions_probed", "reader.candidates")
AUX_COUNTERS = ("aux.probes", "aux.candidates", "aux.false_candidates")


@dataclass(frozen=True)
class Answer:
    value: bytes | None
    partitions_searched: int
    candidates: int  # aux-table candidates (filterkv); 0 for the other formats

    @property
    def found(self) -> bool:
        return self.value is not None


class ReadOracle:
    """Per-key answers over one epoch an engine reads (same device, format,
    partitioner, aux tables and epoch)."""

    def __init__(self, engine):
        self.device = engine.device
        self.fmt = engine.fmt
        self.partitioner = engine.partitioner
        self.aux_tables = engine.aux_tables
        self.epoch = engine.epoch
        self.table_names = engine.table_names
        self._tables: dict[int, dict[int, bytes]] = {}

    def table(self, rank: int) -> dict[int, bytes]:
        """Partition ``rank``'s table as key -> first value written."""
        table = self._tables.get(rank)
        if table is None:
            table = {}
            for key, value in scan_rows(SSTableReader(self.device, self.table_names[rank])):
                table.setdefault(key, value)
            self._tables[rank] = table
        return table

    def answer(self, key: int) -> Answer:
        key = int(key)
        owner = self.partitioner.partition_of_one(key)
        if self.fmt.name == "filterkv":
            ranks = [int(r) for r in self.aux_tables[owner].candidate_ranks(key)]
        else:
            ranks = [owner]
        value, searched = None, 0
        for rank in sorted(ranks):
            searched += 1
            value = self.table(rank).get(key)
            if value is not None:
                break
        if value is not None and self.fmt.name == "dataptr":
            value = self._log_value(value)
        return Answer(value, searched, len(ranks) if self.fmt.name == "filterkv" else 0)

    def _log_value(self, pointer: bytes) -> bytes:
        rank, offset = POINTER.unpack(pointer)
        name = f"vlog.{rank:06d}"
        (length,) = LEN.unpack(self.device.read(name, offset, LEN.size))
        return self.device.read(name, offset + LEN.size, length)


def scan_rows(reader: SSTableReader) -> list[tuple[int, bytes]]:
    """Every row of ``reader``'s table in stored order, as ``(key, value)``.

    One device read per block of the reader's extent; every key group
    of the block is checked against its CRC-32 in the index before any row
    of the block is decoded, then the rows are walked one by one,
    ``record_bytes`` each.  Damage raises `CorruptBlockError` naming the
    block and the group, as the reader's own decoder does.
    """
    meta, out = reader.meta, []
    rec = meta.record_bytes
    for i in range(meta.off.size):
        raw = reader._device.read(reader.name, int(meta.off[i]), int(meta.length[i]))
        if len(raw) != int(meta.length[i]):
            raise CorruptBlockError(f"block {i} of {reader.name!r} truncated")
        first = int(meta.gstart[i])
        for g in range(first, int(meta.gstart[i + 1])):
            at = int(meta.goff[g])
            if zlib.crc32(raw[at : at + meta.group_bytes]) != int(meta.gsum[g]):
                raise CorruptBlockError(
                    f"checksum mismatch in block {i}, key group {g - first} of {reader.name!r}"
                )
        for pos in range(0, len(raw), rec):
            (key,) = KEY.unpack_from(raw, pos)
            out.append((key, raw[pos + KEY.size : pos + rec]))
    return out


def reader_counters(answers: list[Answer]) -> dict[str, int]:
    """The `READER_COUNTERS` totals a reader answering ``answers`` records."""
    return {
        "reader.queries": len(answers),
        "reader.hits": sum(a.found for a in answers),
        "reader.partitions_probed": sum(a.partitions_searched for a in answers),
        "reader.candidates": sum(a.candidates for a in answers),
    }


def totals(registry, names) -> dict[str, int]:
    return {name: int(registry.total(name)) for name in names}


def check_against_oracle(engine, keys, aux_registry):
    """``engine.get_many(keys)`` answers every key as `ReadOracle` does:
    same values, ``found`` and ``partitions_searched`` per key, same reader
    counters, and the same aux probe counters in ``aux_registry`` (the
    registry the engine's aux tables count into).  Returns the call's
    per-key stats and its device I/O delta."""
    reader_before = totals(engine.metrics, READER_COUNTERS)
    before = totals(aux_registry, AUX_COUNTERS)
    io_before = engine.device.counters.snapshot()
    values, stats = engine.get_many(keys)
    io = engine.device.counters.delta(io_before)
    mid = totals(aux_registry, AUX_COUNTERS)
    oracle = ReadOracle(engine)
    answers = [oracle.answer(k) for k in keys]
    after = totals(aux_registry, AUX_COUNTERS)

    assert values == [a.value for a in answers]
    assert [s.found for s in stats] == [a.found for a in answers]
    assert [s.partitions_searched for s in stats] == [a.partitions_searched for a in answers]
    reader = totals(engine.metrics, READER_COUNTERS)
    assert {n: reader[n] - reader_before[n] for n in READER_COUNTERS} == reader_counters(answers)
    assert {n: mid[n] - before[n] for n in AUX_COUNTERS} == {
        n: after[n] - mid[n] for n in AUX_COUNTERS
    }
    return stats, io


def walk_stats(epochs, engine, keys) -> list[QueryStats]:
    """Each key's `QueryStats` for a newest-first walk over ``epochs``
    (oldest first), summed the way walks summed them before one
    accumulator held a whole walk: ``engine(epoch).get_many`` of the keys
    still unanswered, newest epoch first, and each key's per-epoch stats
    added field by field (latency epoch by epoch, so the float sums
    associate the same way)."""
    keys = np.asarray(keys, dtype=np.uint64)
    out = [QueryStats() for _ in range(keys.size)]
    left = list(range(keys.size))
    for epoch in reversed(epochs):
        if not left:
            break
        values, stats = engine(epoch).get_many(keys[left])
        still = []
        for i, value, st in zip(left, values, stats):
            total = out[i]
            total.found = total.found or st.found
            total.latency += st.latency
            total.reads += st.reads
            total.bytes_read += st.bytes_read
            total.partitions_searched += st.partitions_searched
            for cat, n in st.breakdown_reads.items():
                total.breakdown_reads[cat] = total.breakdown_reads.get(cat, 0) + n
            for cat, n in st.breakdown_bytes.items():
                total.breakdown_bytes[cat] = total.breakdown_bytes.get(cat, 0) + n
            if value is None:
                still.append(i)
        left = still
    return out


def footprint(device: StorageDevice) -> tuple[list[str], int, int]:
    """What a read must leave as it found it: the device's extent names,
    stored bytes and append count.  A read names its extent and holds
    nothing, so a read that moves this created or wrote an extent."""
    return device.list_files(), device.total_bytes_stored(), device.counters.writes
