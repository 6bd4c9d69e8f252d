"""Flattened-LSM SSTable: the on-storage partition format (DeltaFS analog).

Each data partition is persisted as a single sorted table per epoch,
mirroring how DeltaFS Indexed Massive Directories flatten their LSM-tree
(paper §V-B: "each partition is persisted as a flattened LSM-Tree").  The
read path matches Fig. 11's cost structure:

1. read the fixed-size **footer** at the end of the file;
2. read the **index block** (per-block first keys + offsets) and, in a
   table that has one, the **Bloom filter block** (a store's filterkv main
   tables have none: the epoch's csf aux guard is their one filter);
3. binary-search the index and read the candidate **data block(s)**.

Layout (all little-endian, 8-byte keys as in the paper's experiments)::

    [data block]*  [filter block]  [index block]  [footer (64 B)]

    data block  := nentries × (u64 key, value) rows and nothing else, every
                   row ``record_bytes`` long (the index stores the width
                   once; rows carry no length), cut into *key groups* of
                   ~`GROUP_BYTES` whole rows
    filter block:= bloom bytes ‖ u64 CRC-32           (absent when empty)
    index block := u32 nblocks, u32 ngroups, u32 record_bytes (0 = empty
                   table), then two tables stored one column
                   after another.  Per block: u64 first key, u64 last key,
                   u64 file offset; u32 length, u32 entries, u32 key groups.
                   Per key group, all blocks' end to end: u64 first key,
                   u64 CRC-32 of the group's bytes; u32 offset inside
                   its block.  Then u64 CRC-32 of everything before it.
    footer      := magic u64, index_off u64, index_len u64,
                   filter_off u64, filter_len u64, nentries u64,
                   block_size u32, bloom_nhashes u32,
                   u64 CRC-32 of the first 56 footer bytes

    Every checksum is a `zlib.crc32`, zero-extended into its 8-byte slot.

    A block plays two roles and the layout keeps them apart.  It is the
    *I/O unit*: a lookup reads each block it needs with one device read.
    The key group is the *verify/decode unit*: every byte of a block
    belongs to exactly one group, each group has its own checksum in the
    (checksummed) index block, and a lookup checks and decodes only the
    groups its keys land in — chosen from the group first keys, so a key
    that is absent is still a verified "absent".  What that one read
    fetches follows the reader's `BlockCache`: with none, or one that
    keeps blocks, it fetches the whole block (and the cache keeps it);
    with one that keeps none, only the span from the first to the last
    group the lookup touches, planned from the resident group table
    before the read.  Filter, index and footer carry their own checksums,
    so corruption anywhere in the table is detected at read time rather
    than silently changing answers.  Tables
    of the earlier layouts — rows framed by a ``u32`` value length, the
    same groups under a 64-bit NumPy sum, or a count and one checksum per
    block, no groups — have other magics and are refused by name with
    `UnsupportedLayoutError`, as are tables whose values were of several
    widths (record_bytes 0 with blocks).

Values are one ``(n, width)`` uint8 matrix per table: every record has
the same size, so blocks and groups are rows of whole records.  Writers
buffer entries, sort by key, and emit blocks of ``block_size`` bytes.
Writers and readers name their extent (`StorageDevice.append` /
`read`): nothing is opened.  Every access is charged to the device, so
seeks and bytes line up with Fig. 11b/c.
"""

from __future__ import annotations

import struct
import weakref
import zlib
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..filters.bloom import BloomFilter
from ..obs import MetricsRegistry
from ..obs.trace import child_span, current_span
from .blockio import StorageDevice
from .checksum import CHECKSUM_BYTES, crc32_rows
from .envelope import UnsupportedLayoutError

__all__ = [
    "SSTableWriter",
    "SSTableReader",
    "BlockCache",
    "TableMeta",
    "TableStats",
    "load_table_meta",
    "concat_values",
    "value_matrix",
    "FOOTER_BYTES",
    "TABLE_BLOOM_BITS",
    "CorruptBlockError",
]


class CorruptBlockError(ValueError):
    """Stored bytes disagree with their checksum, or a section that passed
    its checksum describes something the file cannot hold."""


_MAGIC = 0xF117E5CB_0F1A7ED  # unframed key ‖ value rows, CRC-32 key groups
# Its predecessors, refused by name: the same groups of rows framed by a
# u32 value length, the groups under a 64-bit NumPy sum, and before that
# one checksum per block.
_MAGIC_FRAMED = 0xF117E5CB_C3C3236
_MAGIC_SUM64 = 0xF117E5CB_6209BF5
_MAGIC_BLOCKSUM = 0xF117E5CB_DE17AF5
FOOTER_BYTES = 64
_FOOTER_BODY = struct.Struct("<QQQQQQII")  # + trailing CRC-32 slot = 64 B
_KEY_BYTES = 8  # a row is its u64 key, then its value
_INDEX_HDR = struct.Struct("<III")
_BLOCK_ENTRY_BYTES = 3 * 8 + 3 * 4  # first, last, off; len, n, groups: stored as columns
_GROUP_ENTRY_BYTES = 8 + 8 + 4  # first key, checksum, offset: stored as columns

# The verify/decode unit: a key group closes at the first whole record that
# takes it to this many bytes.  Measured between 4 KB and 8 KB (CHANGES.md,
# PR 24); readers take group bounds from the table, never from this constant.
GROUP_BYTES = 4096

# Bloom bits per key of a table that carries a filter block: every base and
# dataptr table, and the filterkv main tables of an epoch whose aux is the
# paper's cuckoo (`pipeline.table_bloom_bits` states the rule).
TABLE_BLOOM_BITS = 10.0

# Data blocks a warm view's `BlockCache` keeps per table it reads
# (`QueryEngine.warm`: ``BLOCK_CACHE_BLOCKS × table_cache_entries``).
BLOCK_CACHE_BLOCKS = 2


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` (along the first axis) that hands a lone part back
    as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def value_matrix(values: np.ndarray, n: int | None = None) -> np.ndarray:
    """``values`` as the one value representation, an ``(n, width)`` uint8
    matrix.  Anything else raises `ValueError`: a wider dtype is refused,
    never cast (a cast would keep only each value's low byte)."""
    values = np.asarray(values)
    if values.dtype != np.uint8:
        raise ValueError(f"values must be a uint8 matrix, got dtype {values.dtype}")
    if values.ndim != 2 or (n is not None and values.shape[0] != n):
        raise ValueError(f"values must be ({'n' if n is None else n}, width); got {values.shape}")
    return values


def concat_values(chunks: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``(n, width)`` value matrices of one width, in order."""
    parts = [vals for vals in chunks if len(vals)]
    return _concat(parts) if parts else np.zeros((0, 0), dtype=np.uint8)


def _cut_rows(skeys, svalues, block_size: int, group_cut: int):
    """Cut key-sorted records into blocks with array ops.

    Every record is one row, key ‖ value bytes, all of one width, so block
    and group boundaries fall at uniform record counts: a block closes at
    the record that takes it to ``block_size``, a group every ``group_cut``
    bytes.  Yields, per block, ``(bytes, records, last key, group first
    keys, group offsets)``.
    """
    n, w = svalues.shape
    rec = _KEY_BYTES + w
    recs = np.empty((n, rec), dtype=np.uint8)
    recs[:, :_KEY_BYTES] = skeys.astype("<u8").view(np.uint8).reshape(-1, _KEY_BYTES)
    recs[:, _KEY_BYTES:] = svalues
    per_block = max(1, -(-block_size // rec))  # ceil
    per_group = group_cut // rec
    for start in range(0, n, per_block):
        stop = min(start + per_block, n)
        yield (
            recs[start:stop].tobytes(),
            stop - start,
            int(skeys[stop - 1]),
            skeys[start:stop:per_group],
            np.arange(0, (stop - start) * rec, group_cut, dtype="<u4"),
        )


def _group_bytes(rec: int) -> int:
    """Size of a full key group in a table of ``rec``-byte records: the
    fewest records reaching `GROUP_BYTES`, rounded up to a multiple of eight
    of them (a layout constant: it sets every table's group count)."""
    return -(-GROUP_BYTES // (8 * rec)) * 8 * rec


@dataclass(frozen=True)
class TableStats:
    """Size breakdown of a finished SSTable."""

    nentries: int
    data_bytes: int
    filter_bytes: int
    index_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.filter_bytes + self.index_bytes + FOOTER_BYTES


class SSTableWriter:
    """Buffers KV entries and writes a sorted, indexed table.

    Parameters
    ----------
    device, name:
        Where the table lands.
    block_size:
        Target data-block size; the paper's read path fetches blocks in
        4 MiB units, benchmarks use smaller blocks at reduced scale.
    bloom_bits_per_key:
        Per-table Bloom filter budget; 0 writes no filter block (footer
        ``filter_len`` and ``bloom_nhashes`` 0).  `pipeline.table_bloom_bits`
        says which tables carry one.
    """

    def __init__(
        self,
        device: StorageDevice,
        name: str,
        block_size: int = 4 << 20,
        bloom_bits_per_key: float = TABLE_BLOOM_BITS,
    ):
        if block_size < 64:
            raise ValueError(f"block_size too small: {block_size}")
        self.block_size = block_size
        self.bloom_bits_per_key = bloom_bits_per_key
        self.device = device
        self.name = name
        device.create(name)
        # Entries are buffered as columnar chunks in arrival order: each
        # chunk is (keys u64, values as a (n, width) uint8 matrix).
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._nentries = 0
        self._finished = False

    def __len__(self) -> int:
        return self._nentries

    def add_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Buffer a batch of entries (duplicate keys are kept; the reader
        returns the first written).

        ``values`` is a ``(len(keys), width)`` uint8 matrix, one width for
        every entry of the table.
        """
        if self._finished:
            raise ValueError("writer already finished")
        keys = np.ascontiguousarray(keys, dtype=np.uint64).ravel()
        values = value_matrix(values, keys.size)
        if keys.size == 0:
            return
        if self._chunks and values.shape[1] != self._chunks[0][1].shape[1]:
            raise ValueError(
                f"values of width {values.shape[1]} added to a table of "
                f"{self._chunks[0][1].shape[1]}-byte values"
            )
        self._chunks.append((keys, values))
        self._nentries += keys.size

    def finish(self) -> TableStats:
        """Sort, write blocks + filter + index + footer; returns sizes."""
        if self._finished:
            raise ValueError("writer already finished")
        self._finished = True
        chunks = self._chunks
        keys = _concat([k for k, _ in chunks]) if chunks else np.zeros(0, dtype=np.uint64)
        values = concat_values([v for _, v in chunks])
        order = np.argsort(keys, kind="stable")
        nentries = keys.size
        record_bytes = _KEY_BYTES + values.shape[1]
        # A group closes once it holds this many bytes (whole records).
        group_cut = _group_bytes(record_bytes)
        index_entries: list[tuple[int, int, int, int, int, int]] = []
        group_first: list[np.ndarray] = []  # the group table, column by column
        group_sum: list[np.ndarray] = []
        group_off: list[np.ndarray] = []
        data_bytes = 0
        for payload, n, last, gfirst, goff in _cut_rows(
            keys[order], values[order], self.block_size, group_cut
        ):
            off = self.device.append(self.name, payload)
            index_entries.append((int(gfirst[0]), last, off, len(payload), n, len(goff)))
            group_first.append(np.asarray(gfirst, dtype="<u8"))
            group_off.append(np.asarray(goff, dtype="<u4"))
            group_sum.append(crc32_rows(payload, group_cut))
            data_bytes += len(payload)

        # Filter block (checksummed like every section).
        filter_blob = b""
        bloom_nhashes = 0
        if self.bloom_bits_per_key > 0 and nentries > 0:
            bf = BloomFilter.from_bits_per_key(nentries, self.bloom_bits_per_key)
            bf.add_many(keys)
            filter_blob = bf.to_bytes()
            filter_blob += zlib.crc32(filter_blob).to_bytes(CHECKSUM_BYTES, "little")
            bloom_nhashes = bf.nhashes
        filter_off = (
            self.device.append(self.name, filter_blob)
            if filter_blob
            else self.device.file_size(self.name)
        )

        # Index block: the block table, then the group table, both by column.
        nblocks = len(index_entries)
        index_blob = _INDEX_HDR.pack(
            nblocks, sum(g.size for g in group_off), record_bytes if nblocks else 0
        )
        if nblocks:
            index_blob += struct.pack(
                f"<{3 * nblocks}Q{3 * nblocks}I", *(v for col in zip(*index_entries) for v in col)
            ) + b"".join(_concat(col).tobytes() for col in (group_first, group_sum, group_off))
        index_blob += zlib.crc32(index_blob).to_bytes(CHECKSUM_BYTES, "little")
        index_off = self.device.append(self.name, index_blob)

        footer_body = _FOOTER_BODY.pack(
            _MAGIC,
            index_off,
            len(index_blob),
            filter_off,
            len(filter_blob),
            nentries,
            self.block_size,
            bloom_nhashes,
        )
        self.device.append(
            self.name, footer_body + zlib.crc32(footer_body).to_bytes(CHECKSUM_BYTES, "little")
        )
        self._chunks.clear()
        return TableStats(
            nentries=nentries,
            data_bytes=data_bytes,
            filter_bytes=len(filter_blob),
            index_bytes=len(index_blob),
        )


@dataclass(frozen=True)
class TableMeta:
    """Everything a reader parses out of a table's footer, index and filter.

    Immutable and handle-free: a sealed table never changes, so one
    verified `TableMeta` can back any number of `SSTableReader`s (pass it
    as ``meta=``) without touching the device again.
    """

    nentries: int
    block_size: int
    first: np.ndarray  # per data block: first key, last key, offset, length
    last: np.ndarray
    off: np.ndarray
    length: np.ndarray
    bloom: BloomFilter | None
    record_bytes: int  # bytes per record (0 in an empty table)
    group_bytes: int  # bytes per full key group (0 in an empty table)
    # Key groups, all blocks' end to end; block i owns gstart[i]:gstart[i+1].
    gstart: np.ndarray
    gfirst: np.ndarray  # per group: first key, offset inside its block, checksum
    goff: np.ndarray
    gsum: np.ndarray

    @cached_property
    def view(self) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """``first``, ``last``, ``gstart``, ``gfirst`` and ``gsum`` as plain
        int lists, built on a table's first read: the read's per-key and
        per-group steps index them without a NumPy scalar per step."""
        cols = (self.first, self.last, self.gstart, self.gfirst, self.gsum)
        return tuple(c.tolist() for c in cols)


def _checked(blob: bytes, what: str, name: str) -> bytes:
    """Verify and strip a section's trailing checksum."""
    if len(blob) < CHECKSUM_BYTES + 4:
        raise CorruptBlockError(f"{what} truncated to {len(blob)} bytes in {name!r}")
    body, stored = blob[:-CHECKSUM_BYTES], blob[-CHECKSUM_BYTES:]
    if zlib.crc32(body) != int.from_bytes(stored, "little"):
        raise CorruptBlockError(f"{what} checksum mismatch in table {name!r}")
    return body


def load_table_meta(device: StorageDevice, name: str) -> TableMeta:
    """Read and verify a table's footer, index and filter (2 device reads).

    Raises `ValueError` for a table too small or with a bad magic,
    `UnsupportedLayoutError` for one written in an earlier layout (rows
    framed by a value length, 64-bit sum, one checksum per block, variable
    width), and
    `CorruptBlockError` for a checksum mismatch, a truncated section, or a
    section that passed its checksum but does not fit the file — every
    count and offset is checked against the bytes present before anything
    is sized from it.
    """
    size = device.file_size(name)
    if size < FOOTER_BYTES:
        raise ValueError(f"table {name!r} too small to hold a footer")
    footer = device.read(name, size - FOOTER_BYTES, FOOTER_BYTES)
    body, stored = footer[: _FOOTER_BODY.size], footer[_FOOTER_BODY.size :]
    (
        magic,
        index_off,
        index_len,
        filter_off,
        filter_len,
        nentries,
        block_size,
        bloom_nhashes,
    ) = _FOOTER_BODY.unpack(body)
    earlier = {
        _MAGIC_FRAMED: "length-framed row",
        _MAGIC_SUM64: "64-bit-sum key-group",
        _MAGIC_BLOCKSUM: "block-checksum",
    }
    if magic in earlier:
        raise UnsupportedLayoutError(
            f"table {name!r} is in the {earlier[magic]} layout (magic {magic:#x}); this "
            f"reader supports only the unframed-row CRC-32 key-group layout (magic {_MAGIC:#x})"
        )
    if magic != _MAGIC:
        raise ValueError(f"bad magic in table {name!r}")
    if zlib.crc32(body) != int.from_bytes(stored, "little"):
        raise CorruptBlockError(f"footer checksum mismatch in table {name!r}")

    def inconsistent(what: str) -> CorruptBlockError:
        return CorruptBlockError(f"{what} in table {name!r} (its checksum matched)")

    if filter_off + filter_len > index_off or index_off + index_len > size - FOOTER_BYTES:
        raise inconsistent("footer sections overlap or leave the file")
    if filter_len and (not 1 <= bloom_nhashes <= 64 or (filter_len - CHECKSUM_BYTES) % 8):
        raise inconsistent("filter block is no Bloom filter this writer emits")
    if not filter_len and bloom_nhashes:
        raise inconsistent(f"filterless footer names {bloom_nhashes} Bloom hashes")
    # Filter and index blobs are adjacent on storage; fetch them with a
    # single read, like the paper's "load the partition's indexes"
    # step (one ~12 MB read in their runs).
    if filter_len:
        span = device.read(name, filter_off, (index_off + index_len) - filter_off)
        filter_blob = span[:filter_len]
        index_blob = span[index_off - filter_off :]
    else:
        filter_blob = b""
        index_blob = device.read(name, index_off, index_len)
    index_blob = _checked(index_blob, "index block", name)
    if filter_blob:
        filter_blob = _checked(filter_blob, "filter block", name)

    if len(index_blob) < _INDEX_HDR.size:
        raise inconsistent("index block shorter than its header")
    nblocks, ngroups, record_bytes = _INDEX_HDR.unpack_from(index_blob)
    if nblocks and not record_bytes:
        raise UnsupportedLayoutError(
            f"table {name!r} is in the variable-width layout (record_bytes 0); this "
            f"reader supports only fixed-width records"
        )
    groups_at = _INDEX_HDR.size + nblocks * _BLOCK_ENTRY_BYTES
    if len(index_blob) != groups_at + ngroups * _GROUP_ENTRY_BYTES:
        raise inconsistent(f"index block is not {nblocks} blocks + {ngroups} groups long")
    first, last, off = np.frombuffer(index_blob, "<u8", 3 * nblocks, _INDEX_HDR.size).reshape(
        3, nblocks
    )
    length, count, groups = (
        np.frombuffer(index_blob, "<u4", 3 * nblocks, groups_at - 12 * nblocks)
        .astype(np.int64)
        .reshape(3, nblocks)
    )
    gfirst, gsum = np.frombuffer(index_blob, "<u8", 2 * ngroups, groups_at).reshape(2, ngroups)
    goff = np.frombuffer(index_blob, "<u4", ngroups, groups_at + 16 * ngroups).astype(np.int64)

    # Geometry, before anything is sized from it: blocks lie inside the data
    # region and their group counts add up to the group table.
    gstart = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(groups, out=gstart[1:])
    if (
        (groups < 1).any()
        or gstart[-1] != ngroups
        or int(count.sum()) != nentries
        # as floats: a damaged u64 offset must compare, not wrap
        or (off.astype(np.float64) + length > filter_off).any()
    ):
        raise inconsistent("block index does not fit the data region or the group table")
    group_bytes = 0
    if record_bytes:
        # Groups are equal-size rows of their block (its last group the
        # short row): one pass verifies or decodes many.
        if nblocks:
            group_bytes = int(goff[1] if groups[0] > 1 else length[0])
        within = np.arange(ngroups) - np.repeat(gstart[:-1], groups)  # place in its block
        if (
            record_bytes < _KEY_BYTES
            or group_bytes == 0
            or group_bytes % record_bytes
            or (length != count * record_bytes).any()
            or (goff != within * group_bytes).any()
            or (groups != -(-length // group_bytes)).any()
        ):
            raise inconsistent(f"blocks or groups are not rows of {record_bytes}-byte records")

    bloom = BloomFilter.from_bytes(filter_blob, bloom_nhashes) if filter_len else None
    return TableMeta(
        nentries, block_size, first, last, off, length, bloom,
        record_bytes, group_bytes, gstart, gfirst, goff, gsum,
    )


class _Block:
    """One fetch from a data block: a run of its consecutive key groups.

    A reader without a cache, or with one that keeps blocks, fetches the
    whole block, every group; one over a 0-block cache fetches the span
    from the first to the last group a call touches.  ``lo`` is the run's
    first group within its block; group ``j`` of the run is bytes ``j *
    group_bytes`` onwards of ``raw`` (the block's last group the short
    one).  ``verified`` holds one flag per group of the run: a group is
    checksummed the first time a lookup lands in it, never before, and a
    block in a cache keeps its flags for the next reader.
    """

    __slots__ = ("raw", "lo", "verified")

    def __init__(self, raw: bytes, lo: int, ngroups: int):
        self.raw = raw
        self.lo = lo
        self.verified = bytearray(ngroups)


# `sstable.block_cache.misses` of each registry a reader without a cache
# counts its fetches into, looked up once per registry.
_MISSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _block_misses(metrics: MetricsRegistry):
    counter = _MISSES.get(metrics)
    if counter is None:
        counter = _MISSES[metrics] = metrics.counter("sstable.block_cache.misses")
    return counter


class BlockCache:
    """LRU of fetched data blocks, keyed ``(extent name, block)``.

    One cache serves every reader built over it, so a block one reader
    fetched (and the groups it verified) serves the next reader of the
    same table with no device read.  It holds at most ``blocks`` blocks
    and counts ``sstable.block_cache.{hits,misses}``.  A 0-block cache
    keeps nothing: its readers fetch only the span of key groups a call
    decodes.
    """

    def __init__(self, blocks: int, metrics: MetricsRegistry):
        self.blocks = blocks
        self._lru: OrderedDict[tuple[str, int], _Block] = OrderedDict()
        self._m_hits = metrics.counter("sstable.block_cache.hits")
        self._m_misses = metrics.counter("sstable.block_cache.misses")

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, name: str, i: int) -> _Block | None:
        blk = self._lru.get((name, i))
        if blk is None:
            self._m_misses.inc()
            return None
        self._lru.move_to_end((name, i))
        self._m_hits.inc()
        return blk

    def put(self, name: str, i: int, blk: _Block) -> None:
        self._lru[(name, i)] = blk
        if len(self._lru) > self.blocks:
            self._lru.popitem(last=False)


class SSTableReader:
    """Reads point queries out of a finished SSTable.

    The constructor performs the footer + index (+ filter) reads, mirroring
    a reader program opening a partition; `get` then costs one data-block
    read per candidate block.  A table's Bloom filter block, if it has
    one, refutes absent keys before any block is planned; without one (a
    store's filterkv table, behind a csf aux guard) every key is planned.
    Pass ``meta=`` (a `TableMeta` an earlier
    open of the same sealed table produced) to model a reader that keeps
    footer/index/filter resident: the open then costs no device read.
    Fig. 11 amortizes these across the 100 queries only partially — each
    query opens its partition afresh in the paper, which is the default
    here.  A reader reads its extent by name and opens nothing, so it
    needs no closing and costs nothing to drop.

    What one data-block read fetches follows from ``cache``.  With none,
    the reader fetches whole blocks and keeps none (each call reads each
    block it needs once, and counts it a block-cache miss).  With a
    `BlockCache` of blocks it fetches whole blocks into the cache.  Over a
    0-block cache it fetches, per block a call needs, only the span from
    the first to the last key group that call's keys land in — still one
    read per block, and the bytes it fetches are those it decodes plus any
    untouched groups between them.  Either way the groups are chosen from
    the resident group table before any I/O.
    """

    __slots__ = ("_device", "name", "meta", "_cache")

    def __init__(
        self,
        device: StorageDevice,
        name: str,
        meta: TableMeta | None = None,
        cache: BlockCache | None = None,
    ):
        self._device = device
        self.name = name
        self.meta = meta if meta is not None else load_table_meta(device, name)
        self._cache = cache

    def get(self, key: int) -> bytes | None:
        """Point lookup, `get_many` of one key; returns the (first) value or
        None."""
        return self.get_many(np.asarray([key], dtype=np.uint64))[0][0]

    def get_many(self, keys: np.ndarray) -> tuple[list[bytes | None], int]:
        """Point lookups, the table's one read (`get` is this of one key);
        returns ``(values, blocks_touched)``.

        ``values[i]`` is the first value written for ``keys[i]``, or None.
        Keys are coalesced per data block, so each needed block is read
        once for the whole batch and the key groups the batch lands in are
        verified and decoded in one pass (the filter and index are
        consulted once per batch).  ``blocks_touched`` is the number of
        data blocks the batch needed — the denominator of the
        block-coalescing ratio.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if current_span() is None:  # untraced: skip span-argument setup
            return self._get_many(keys)
        with child_span(
            "sstable.get_many",
            counters=self._device.metrics,
            prefixes=("sstable.",),
            table=self.name,
            keys=int(keys.size),
        ) as span:
            values, blocks_touched = self._get_many(keys)
            if span is not None:
                span.annotate(blocks=blocks_touched)
            return values, blocks_touched

    def _get_many(self, keys: np.ndarray) -> tuple[list[bytes | None], int]:
        values: list[bytes | None] = [None] * keys.size
        meta = self.meta
        nblocks = meta.first.size
        if nblocks == 0:
            return values, 0
        bloom = meta.bloom
        if bloom is None:
            pos, k = range(keys.size), keys
        else:
            pos = bloom.contains_many(keys).nonzero()[0]
            pos, k = pos.tolist(), keys[pos]
        first, last, gstart, gfirst, _ = meta.view
        ks = k.tolist()
        # Place every key once, table-wide.  Keys ascend across blocks, so a
        # key can be only in the first block whose last key is not below it,
        # and only if that block starts at-or-before it; group first keys
        # ascend too, so the groups starting below the key give its group:
        # the last of them (clipped to the key's block), plus the next when
        # the key *is* that group's first key (duplicates may begin in the
        # tail of the one before).
        if len(ks) == 1:  # a lone key: plain-int steps, no array round trip
            blocks, below = [bisect_left(last, ks[0])], [bisect_left(gfirst, ks[0])]
        else:
            blocks = meta.last.searchsorted(k).tolist()
            below = meta.gfirst.searchsorted(k).tolist()
        plan: dict[int, tuple[list[tuple[int, int]], set[int]]] = {}
        for p, key, b, at in zip(pos, ks, blocks, below):
            if b == nblocks or first[b] > key:
                continue
            lo = gstart[b]
            hi = gstart[b + 1] - 1
            step = plan.get(b)
            if step is None:
                step = plan[b] = ([], set())
            step[0].append((p, key))
            # The last group starting below the key, clipped to its block:
            # ``min(max(at - 1, lo), hi)``, block-relative.
            step[1].add(at - 1 - lo if lo < at <= hi + 1 else (0 if at <= lo else hi - lo))
            if lo <= at <= hi and gfirst[at] == key:
                step[1].add(at - lo)
        rec = meta.record_bytes
        gb = meta.group_bytes
        per = gb // rec
        for b in sorted(plan):
            items, groups = plan[b]
            groups = sorted(groups)
            blk = self._run(b, groups[0], groups[-1] + 1)
            run = [j - blk.lo for j in groups]
            self._verify(blk, b, run)
            # Find each key among the rows of verified groups only, in one
            # search over their key column (groups ascend, and so do the
            # rows of each): a slice of the run when every group from the
            # first to the last planned one is verified, else the planned
            # groups gathered.
            raw = blk.raw
            col = np.ndarray((len(raw) // rec,), "<u8", raw, 0, (rec,))
            a = run[0]
            if blk.verified.find(0, a, run[-1] + 1) < 0:
                col = col[a * per : (run[-1] + 1) * per]
                run = None
            else:  # rows of the run's whole groups, one group a row; a short last one apart
                full = len(raw) // gb
                short = col[full * per :] if run[-1] == full else None
                col = np.ndarray((full, per), "<u8", raw, 0, (gb, rec))[
                    run if short is None else run[:-1]
                ].ravel()
                if short is not None:
                    col = np.concatenate((col, short))
            bk = k if len(items) == len(ks) else np.array([key for _, key in items], np.uint64)
            loc = np.minimum(col.searchsorted(bk), col.size - 1)
            hit = (col[loc] == bk).tolist()
            for (p, _), h, r in zip(items, hit, loc.tolist()):
                if h:
                    r = a * per + r if run is None else run[r // per] * per + r % per
                    values[p] = raw[r * rec + _KEY_BYTES : (r + 1) * rec]
        return values, len(plan)

    # -- blocks (the I/O unit) and key groups (the verify/decode unit) ------

    def _run(self, i: int, lo: int, hi: int) -> _Block:
        """Block ``i`` for a lookup landing in its groups ``lo:hi``, in at
        most one device read, nothing verified.

        Without a cache, the whole block, kept by nobody.  With one, a hit
        costs no device read and keeps what earlier lookups verified; a
        miss fetches the whole block into it, or, when it keeps none, only
        the groups ``lo:hi``.  A short read raises `CorruptBlockError`
        naming table and block.
        """
        cache = self._cache
        meta = self.meta
        if cache is None:
            _block_misses(self._device.metrics).inc()
        else:
            blk = cache.get(self.name, i)
            if blk is not None:
                return blk
        if cache is None or cache.blocks:
            gstart = meta.view[2]
            lo, hi = 0, gstart[i + 1] - gstart[i]
        gb = meta.group_bytes
        start = lo * gb
        size = min(hi * gb, int(meta.length[i])) - start
        raw = self._device.read(self.name, int(meta.off[i]) + start, size)
        if len(raw) != size:
            raise CorruptBlockError(
                f"block {i} of {self.name!r} truncated: {len(raw)} of the {size} bytes "
                f"of its key groups {lo} to {hi - 1}"
            )
        blk = _Block(raw, lo, hi - lo)
        if cache is not None and cache.blocks:
            cache.put(self.name, i, blk)
        return blk

    def _verify(self, blk: _Block, i: int, run) -> None:
        """Checksum those of the run's groups ``run`` (ascending) that no
        lookup has verified yet; nothing of a group is used before its
        checksum passes.  The checksum covers every byte of a group, so
        every key and value a read decodes from it is verified; the first
        group that disagrees with the index is named by its place in block
        ``i``."""
        verified = blk.verified
        gb = self.meta.group_bytes
        _, _, gstart, _, gsum = self.meta.view
        g0 = gstart[i] + blk.lo
        raw = memoryview(blk.raw)
        for j in run:
            if not verified[j]:
                if zlib.crc32(raw[j * gb : (j + 1) * gb]) != gsum[g0 + j]:
                    raise CorruptBlockError(
                        f"checksum mismatch in block {i}, key group {blk.lo + j} "
                        f"of {self.name!r}"
                    )
                verified[j] = 1

    def scan_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Full table contents as columnar arrays, in stored key order.

        Returns ``(keys, values)``, values a ``(n, width)`` uint8 matrix.
        Every block is fetched whole, and every group of it verified
        before any of it is decoded; a reader without a cache holds one
        block at a time, so peak memory is the decoded output plus one
        block.
        """
        key_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        rec = self.meta.record_bytes
        gstart = self.meta.view[2]
        for i in range(self.meta.off.size):
            blk = self._run(i, 0, gstart[i + 1] - gstart[i])
            self._verify(blk, i, range(len(blk.verified)))
            raw, n = blk.raw, len(blk.raw) // rec
            key_parts.append(np.ndarray((n,), "<u8", raw, 0, (rec,)).astype(np.uint64))
            shape = (n, rec - _KEY_BYTES)
            val_parts.append(np.ndarray(shape, np.uint8, raw, _KEY_BYTES, (rec, 1)).copy())
        if not key_parts:
            return np.zeros(0, dtype=np.uint64), np.zeros((0, 0), dtype=np.uint8)
        return _concat(key_parts), _concat(val_parts)
