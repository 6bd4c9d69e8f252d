"""Write buffering: memtables, sorted runs, and the flattened merge.

The paper's driver "buffers at most 16MB of data in memory before writing
it to storage efficiently" (§V-A), and DeltaFS persists each partition as
a *flattened* LSM-tree — sorted runs written during the burst, merged into
one table at finalize time rather than compacted repeatedly (§V-B).

`MemTable` is the bounded in-memory buffer; `RunWriter` spills full
memtables as sorted runs into a log extent; `flatten_runs` merge-sorts the
runs into a final `SSTableWriter` — giving the write path real memory
bounds instead of unbounded Python lists.

The path is columnar: `MemTable.add_many` buffers whole key/value arrays,
`RunWriter.spill` serializes a run with array ops, and `flatten_runs`
merges runs as one stable array sort.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..obs import MetricsRegistry, active
from .blockio import StorageDevice
from .checksum import fastsum64
from .sstable import CorruptBlockError, SSTableWriter, TableStats, value_matrix

__all__ = ["MemTable", "RunWriter", "flatten_runs"]

_ENTRY = struct.Struct("<QI")


class MemTable:
    """Bounded in-memory KV buffer of fixed-width values.

    ``add_many`` buffers as many records of a batch as the budget admits
    and returns how many it took; once `full`, the caller drains
    (`sorted_arrays`) and `reset`s.  Sizing counts key + value bytes, like
    the paper's 16 MB figure.
    """

    def __init__(self, budget_bytes: int = 16 << 20):
        if budget_bytes < 64:
            raise ValueError(f"budget too small: {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []  # arrival order
        self._len = 0
        self._bytes = 0

    def add_many(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Buffer a prefix of ``(keys, values)``; returns how many fit.

        ``values`` is a ``(len(keys), width)`` uint8 matrix, one width for
        everything buffered.  Records are taken until the running byte size
        reaches the budget — including the record that crosses it — so
        callers spill-and-retry with the remainder.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        values = value_matrix(values, keys.size)
        if keys.size == 0 or self.full:
            return 0
        rec = 8 + values.shape[1]
        # Smallest count whose bytes reach the budget, capped at the batch.
        take = min(keys.size, -(-(self.budget_bytes - self._bytes) // rec))
        self._chunks.append((keys[:take], values[:take]))
        self._len += take
        self._bytes += take * rec
        return take

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return self._len

    @property
    def full(self) -> bool:
        return self._bytes >= self.budget_bytes

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Entries in key order as arrays (stable: first write first)."""
        if not self._chunks:
            return np.zeros(0, dtype=np.uint64), np.zeros((0, 0), dtype=np.uint8)
        keys = np.concatenate([k for k, _ in self._chunks])
        order = np.argsort(keys, kind="stable")
        return keys[order], np.concatenate([v for _, v in self._chunks])[order]

    def reset(self) -> None:
        self._chunks.clear()
        self._len = 0
        self._bytes = 0


@dataclass(frozen=True)
class _Run:
    offset: int
    length: int
    nentries: int
    value_bytes: int
    # fastsum64 of the run's bytes, held in memory only: a run lives for
    # one burst, and nothing is merged from it unless it still matches.
    checksum: int


class RunWriter:
    """Spills memtables as sorted runs into one log extent."""

    def __init__(
        self, device: StorageDevice, name: str, metrics: MetricsRegistry | None = None
    ):
        self._file = device.open(name, create=True)
        self.runs: list[_Run] = []
        m = active(metrics)
        self._m_flushes = m.counter("storage.memtable_flushes")
        self._m_spill_bytes = m.counter("storage.memtable_spill_bytes")

    def spill(self, memtable: MemTable) -> None:
        """Write the memtable's sorted contents as one run and reset it.

        A run is ``n × (u64 key, u32 vlen, value)`` in key order.
        """
        if len(memtable) == 0:
            return
        keys, values = memtable.sorted_arrays()
        n, w = values.shape
        recs = np.empty((n, _ENTRY.size + w), dtype=np.uint8)
        recs[:, :8] = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
        recs[:, 8:12] = np.frombuffer(_ENTRY.pack(0, w)[8:], dtype=np.uint8)
        recs[:, 12:] = values
        blob = recs.tobytes()
        offset = self._file.append(blob)
        self.runs.append(_Run(offset, len(blob), n, w, fastsum64(blob)))
        self._m_flushes.inc()
        self._m_spill_bytes.inc(len(blob))
        memtable.reset()

    def read_run_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Load one spilled run back as arrays (already key-sorted).

        Raises `CorruptBlockError` when the bytes read back are not the
        bytes spilled.
        """
        run = self.runs[i]
        blob = self._file.read(run.offset, run.length)
        if len(blob) != run.length or fastsum64(blob) != run.checksum:
            raise CorruptBlockError(f"run {i} of {self._file.name!r} changed since its spill")
        rows = np.frombuffer(blob, np.uint8).reshape(run.nentries, _ENTRY.size + run.value_bytes)
        return rows[:, :8].copy().view("<u8").ravel(), rows[:, _ENTRY.size :]

    @property
    def size_bytes(self) -> int:
        """Bytes of spilled run data currently in the extent."""
        return self._file.size


def flatten_runs(run_writer: RunWriter, table: SSTableWriter) -> TableStats:
    """Merge all spilled runs into one final SSTable.

    This is the "flattened LSM-tree" step: a single merge at burst end
    instead of repeated background compaction.  Runs are concatenated in
    spill order and handed to the table writer, whose stable sort puts
    equal keys in (run, within-run) order — exactly the earliest-write-
    first semantics `SSTableReader`'s first-wins lookup expects, and the
    same order a per-record k-way heap merge produces.
    """
    for i in range(len(run_writer.runs)):
        table.add_many(*run_writer.read_run_arrays(i))
    return table.finish()
