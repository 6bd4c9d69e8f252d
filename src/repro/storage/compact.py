"""Storage-side primitives for epoch compaction: merge reads and writes.

Compaction k-way-merges the sorted SSTables of several sealed epochs into
one.  Because every source table is already sorted and `SSTableWriter`
re-sorts with a *stable* argsort, the merge reduces to array work: read
each source into columnar arrays (every key group's CRC-32 checked),
concatenate in newest-epoch-first chunk order, and keep the first
occurrence of every key — exactly the record the pre-compaction read path
(newest epoch first, first hit wins) would have returned.  A merged table
whose winners are exactly one source table's rows is that table, so the
merge adopts the source extent instead of calling `write_merged_table`.
The orchestration (which epochs, which extents to adopt or write, aux
rebuild, manifest swap) lives in `repro.core.compact`; this module knows
only about tables, never about extent names' epochs.
"""

from __future__ import annotations

import numpy as np

from .blockio import StorageDevice
from .sstable import SSTableWriter, TableStats, concat_values

__all__ = [
    "read_table_arrays",
    "concat_values",
    "first_occurrence",
    "write_merged_table",
]


def read_table_arrays(device: StorageDevice, name: str) -> tuple[np.ndarray, np.ndarray]:
    """One source table's full contents as ``(keys, values)`` arrays, read
    by a reader that keeps no block (each one is fetched once)."""
    from .sstable import SSTableReader  # local: avoid import-order knots

    return SSTableReader(device, name).scan_arrays()


def first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Winning row per distinct key under first-write-wins.

    Returns indices (in ascending key order) of the *first* occurrence of
    each key in ``keys``.  Feed it concatenated chunks ordered newest epoch
    first and the survivors are precisely what the multi-epoch walk serves:
    the stable argsort keeps equal keys in input order, so position in the
    concatenation is the tiebreak.
    """
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    firsts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    return order[firsts]


def write_merged_table(
    device: StorageDevice,
    name: str,
    keys: np.ndarray,
    values: np.ndarray,
    block_size: int,
) -> TableStats:
    """Write (and close) one merged partition table with the bulk writer.

    Empty inputs still produce a valid (zero-entry) table: every rank must
    own a table in the merged epoch because aux false positives can name
    any rank, and the reader opens tables unconditionally for the direct
    formats.
    """
    writer = SSTableWriter(device, name, block_size=block_size)
    if keys.size:
        writer.add_many(keys, values)
    return writer.finish()
