"""Flattened-LSM SSTable: the on-storage partition format (DeltaFS analog).

Each data partition is persisted as a single sorted table per epoch,
mirroring how DeltaFS Indexed Massive Directories flatten their LSM-tree
(paper §V-B: "each partition is persisted as a flattened LSM-Tree").  The
read path matches Fig. 11's cost structure:

1. read the fixed-size **footer** at the end of the file;
2. read the **index block** (per-block first keys + offsets) and the
   optional per-table **Bloom filter block**;
3. binary-search the index and read the candidate **data block(s)**.

Layout (all little-endian, 8-byte keys as in the paper's workloads)::

    [data block]*  [filter block]  [index block]  [footer (64 B)]

    data block  := u32 nentries, then nentries × (u64 key, u32 vlen, value),
                   then u64 fastsum64 of everything before it
    filter block:= bloom bytes ‖ u64 fastsum64          (absent when empty)
    index block := u32 nblocks, then nblocks × (u64 first, u64 last,
                   u64 off, u32 len, u32 n), then u64 fastsum64
    footer      := magic u64, index_off u64, index_len u64,
                   filter_off u64, filter_len u64, nentries u64,
                   block_size u32, bloom_nhashes u32,
                   u64 fastsum64 of the first 56 footer bytes

    Every section carries its own checksum, so corruption anywhere in the
    table — data, filter, index, or footer — is detected at read time
    rather than silently changing answers.

Writers buffer entries, sort by key, and emit blocks of ``block_size``
bytes.  Readers are handed a `StorageFile`, so every access is charged to
the owning `StorageDevice` — seeks and bytes line up with Fig. 11b/c.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..filters.bloom import BloomFilter
from ..obs.trace import child_span, current_span
from .blockio import StorageDevice, StorageFile
from .checksum import CHECKSUM_BYTES, fastsum64

__all__ = [
    "SSTableWriter",
    "SSTableReader",
    "TableMeta",
    "TableStats",
    "load_table_meta",
    "FOOTER_BYTES",
    "CorruptBlockError",
]


class CorruptBlockError(ValueError):
    """A data block's stored checksum does not match its contents."""

_MAGIC = 0xF117E5CB_DE17AF5
FOOTER_BYTES = 64
_FOOTER_BODY = struct.Struct("<QQQQQQII")  # + trailing fastsum64 = 64 B
_ENTRY_HDR = struct.Struct("<QI")
_U32 = struct.Struct("<I")
_INDEX_ENTRY = struct.Struct("<QQQII")


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
        Per-table Bloom filter budget; 0 disables the filter block.
    vectorized:
        When True (default) fixed-width tables are sorted, blocked, and
        serialized with array operations; False forces the per-record
        reference path (same bytes — kept as the scalar-equivalence
        baseline and exercised automatically for variable-width values).
    """

    def __init__(
        self,
        device: StorageDevice,
        name: str,
        block_size: int = 4 << 20,
        bloom_bits_per_key: float = 10.0,
        vectorized: bool = True,
    ):
        if block_size < 64:
            raise ValueError(f"block_size too small: {block_size}")
        self.block_size = block_size
        self.bloom_bits_per_key = bloom_bits_per_key
        self.vectorized = vectorized
        self._file: StorageFile = device.open(name, create=True)
        # Entries are buffered as columnar chunks in arrival order: each
        # chunk is (keys u64, values) where values is a 2-D uint8 matrix
        # (fixed-width fast path) or a list[bytes] (variable-width).
        # Scalar `add`s accumulate in a pending tail that is sealed into a
        # chunk lazily, so interleaved add/add_many keeps insertion order.
        self._chunks: list[tuple[np.ndarray, np.ndarray | list[bytes]]] = []
        self._pending_keys: list[int] = []
        self._pending_values: list[bytes] = []
        self._nentries = 0
        self._finished = False

    def __len__(self) -> int:
        return self._nentries

    def add(self, key: int, value: bytes) -> None:
        """Buffer one entry (duplicate keys are kept; reader returns first)."""
        if self._finished:
            raise ValueError("writer already finished")
        self._pending_keys.append(int(key))
        self._pending_values.append(bytes(value))
        self._nentries += 1

    def add_many(self, keys: np.ndarray, values: np.ndarray | list[bytes]) -> None:
        """Buffer a batch of entries without per-record Python work.

        ``values`` is either a ``(len(keys), width)`` uint8 matrix — the
        vectorized fixed-width path — or a list of bytes of any widths.
        """
        if self._finished:
            raise ValueError("writer already finished")
        keys = np.ascontiguousarray(keys, dtype=np.uint64).ravel()
        if isinstance(values, np.ndarray):
            values = np.asarray(values, dtype=np.uint8)
            if values.ndim != 2 or values.shape[0] != keys.size:
                raise ValueError(
                    f"values must be ({keys.size}, width); got {values.shape}"
                )
        elif len(values) != keys.size:
            raise ValueError("keys and values length mismatch")
        if keys.size == 0:
            return
        self._seal_pending()
        self._chunks.append((keys, values))
        self._nentries += keys.size

    def _seal_pending(self) -> None:
        if self._pending_keys:
            self._chunks.append(
                (
                    np.asarray(self._pending_keys, dtype=np.uint64),
                    self._pending_values,
                )
            )
            self._pending_keys = []
            self._pending_values = []

    def _collect(self) -> tuple[np.ndarray, np.ndarray | list[bytes]]:
        """All buffered entries in insertion order.

        Returns ``(keys, values)`` with values as one 2-D uint8 matrix when
        every entry has the same width, else as a flat list[bytes].
        """
        self._seal_pending()
        if not self._chunks:
            return np.zeros(0, dtype=np.uint64), np.zeros((0, 0), dtype=np.uint8)
        keys = (
            self._chunks[0][0]
            if len(self._chunks) == 1
            else np.concatenate([c[0] for c in self._chunks])
        )
        widths = set()
        for _, vals in self._chunks:
            if isinstance(vals, np.ndarray):
                widths.add(vals.shape[1])
            else:
                widths.update(len(v) for v in vals)
            if len(widths) > 1:
                break
        if len(widths) == 1:
            w = widths.pop()
            mats = [
                vals
                if isinstance(vals, np.ndarray)
                else np.frombuffer(b"".join(vals), dtype=np.uint8).reshape(len(vals), w)
                for _, vals in self._chunks
            ]
            values = mats[0] if len(mats) == 1 else np.concatenate(mats, axis=0)
            return keys, values
        flat: list[bytes] = []
        for _, vals in self._chunks:
            if isinstance(vals, np.ndarray):
                flat.extend(vals.tobytes()[i : i + vals.shape[1]] for i in
                            range(0, vals.size, vals.shape[1]))
            else:
                flat.extend(vals)
        return keys, flat

    def finish(self) -> TableStats:
        """Sort, write blocks + filter + index + footer; returns sizes."""
        if self._finished:
            raise ValueError("writer already finished")
        self._finished = True
        keys, values = self._collect()
        order = np.argsort(keys, kind="stable")
        index_entries: list[tuple[int, int, int, int, int]] = []
        nentries = keys.size
        data_bytes = 0

        if self.vectorized and isinstance(values, np.ndarray) and nentries:
            # Fixed-width fast path: every record is KEY+len+value bytes, so
            # block boundaries fall at a uniform record count and the whole
            # data section is built with array ops (byte-identical to the
            # scalar path's incremental block building).
            width = values.shape[1]
            rec = _ENTRY_HDR.size + width
            skeys = keys[order]
            recs = np.empty((nentries, rec), dtype=np.uint8)
            recs[:, :8] = skeys.astype("<u8").view(np.uint8).reshape(-1, 8)
            recs[:, 8:12] = np.frombuffer(_U32.pack(width), dtype=np.uint8)
            recs[:, 12:] = values[order]
            per_block = max(1, -(-self.block_size // rec))  # ceil
            for start in range(0, nentries, per_block):
                rows = recs[start : start + per_block]
                payload = _U32.pack(rows.shape[0]) + rows.tobytes()
                payload += fastsum64(payload).to_bytes(CHECKSUM_BYTES, "little")
                off = self._file.append(payload)
                index_entries.append(
                    (
                        int(skeys[start]),
                        int(skeys[min(start + per_block, nentries) - 1]),
                        off,
                        len(payload),
                        rows.shape[0],
                    )
                )
                data_bytes += len(payload)
        elif nentries:
            block = bytearray()
            block_keys: list[int] = []

            def flush_block() -> None:
                nonlocal block, block_keys, data_bytes
                if not block_keys:
                    return
                payload = _U32.pack(len(block_keys)) + bytes(block)
                payload += fastsum64(payload).to_bytes(CHECKSUM_BYTES, "little")
                off = self._file.append(payload)
                index_entries.append(
                    (block_keys[0], block_keys[-1], off, len(payload), len(block_keys))
                )
                data_bytes += len(payload)
                block = bytearray()
                block_keys = []

            arr = isinstance(values, np.ndarray)
            for i in order:
                k = int(keys[i])
                v = values[i].tobytes() if arr else values[i]
                block += _ENTRY_HDR.pack(k, len(v)) + v
                block_keys.append(k)
                if len(block) >= self.block_size:
                    flush_block()
            flush_block()

        # Filter block (checksummed like data blocks).
        filter_blob = b""
        bloom_nhashes = 0
        if self.bloom_bits_per_key > 0 and nentries > 0:
            bf = BloomFilter.from_bits_per_key(nentries, self.bloom_bits_per_key)
            bf.add_many(keys)
            filter_blob = bf.to_bytes()
            filter_blob += fastsum64(filter_blob).to_bytes(CHECKSUM_BYTES, "little")
            bloom_nhashes = bf.nhashes
        filter_off = self._file.append(filter_blob) if filter_blob else self._file.size

        # Index block (checksummed like data blocks).
        index_blob = _U32.pack(len(index_entries)) + b"".join(
            _INDEX_ENTRY.pack(*e) for e in index_entries
        )
        index_blob += fastsum64(index_blob).to_bytes(CHECKSUM_BYTES, "little")
        index_off = self._file.append(index_blob)

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
        self._file.append(
            footer_body + fastsum64(footer_body).to_bytes(CHECKSUM_BYTES, "little")
        )
        self._chunks.clear()
        return TableStats(
            nentries=nentries,
            data_bytes=data_bytes,
            filter_bytes=len(filter_blob),
            index_bytes=len(index_blob),
        )

    def close(self) -> None:
        """Release the output extent handle (idempotent; after `finish`)."""
        self._file.close()


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
    nbytes: int  # resident size: the index arrays plus the Bloom filter's bits


def _checked(blob: bytes, what: str, name: str) -> bytes:
    """Verify and strip a section's trailing checksum."""
    if len(blob) < CHECKSUM_BYTES + 4:
        raise CorruptBlockError(f"{what} truncated to {len(blob)} bytes in {name!r}")
    body, stored = blob[:-CHECKSUM_BYTES], blob[-CHECKSUM_BYTES:]
    if fastsum64(body) != int.from_bytes(stored, "little"):
        raise CorruptBlockError(f"{what} checksum mismatch in table {name!r}")
    return body


def load_table_meta(file: StorageFile, name: str) -> TableMeta:
    """Read and verify a table's footer, index and filter (2 device reads).

    Raises `ValueError` for a table too small or with a bad magic, and
    `CorruptBlockError` for a checksum mismatch or a truncated section.
    """
    size = file.size
    if size < FOOTER_BYTES:
        raise ValueError(f"table {name!r} too small to hold a footer")
    footer = file.read(size - FOOTER_BYTES, FOOTER_BYTES)
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
    if magic != _MAGIC:
        raise ValueError(f"bad magic in table {name!r}")
    if fastsum64(body) != int.from_bytes(stored, "little"):
        raise CorruptBlockError(f"footer checksum mismatch in table {name!r}")
    # Filter and index blobs are adjacent on storage; fetch them with a
    # single read, like the paper's "load the partition's indexes"
    # step (one ~12 MB read in their runs).
    if filter_len:
        span = file.read(filter_off, (index_off + index_len) - filter_off)
        filter_blob = span[:filter_len]
        index_blob = span[index_off - filter_off :]
    else:
        filter_blob = b""
        index_blob = file.read(index_off, index_len)
    index_blob = _checked(index_blob, "index block", name)
    if filter_blob:
        filter_blob = _checked(filter_blob, "filter block", name)
    (nblocks,) = _U32.unpack(index_blob[:4])
    raw = np.frombuffer(
        index_blob, dtype=np.uint8, count=nblocks * _INDEX_ENTRY.size, offset=4
    )
    if nblocks:
        entries = raw.reshape(nblocks, _INDEX_ENTRY.size)
        first = entries[:, 0:8].copy().view("<u8").ravel()
        last = entries[:, 8:16].copy().view("<u8").ravel()
        off = entries[:, 16:24].copy().view("<u8").ravel()
        length = entries[:, 24:28].copy().view("<u4").ravel()
    else:
        first = last = off = np.zeros(0, dtype=np.uint64)
        length = np.zeros(0, dtype=np.uint32)
    bloom = BloomFilter.from_bytes(filter_blob, bloom_nhashes) if filter_len else None
    nbytes = first.nbytes + last.nbytes + off.nbytes + length.nbytes
    if bloom is not None:
        nbytes += bloom.size_bytes
    return TableMeta(nentries, block_size, first, last, off, length, bloom, nbytes)


class SSTableReader:
    """Reads point queries out of a finished SSTable.

    The constructor performs the footer + index (+ filter) reads, mirroring
    a reader program opening a partition; `get` then costs one data-block
    read per candidate block.  Pass ``meta=`` (a `TableMeta` an earlier
    open of the same sealed table produced) to model a reader that keeps
    footer/index/filter resident: the open then costs no device read.
    Fig. 11 amortizes these across the 100 queries only partially — each
    query opens its partition afresh in the paper, which is the default
    here.
    """

    def __init__(
        self,
        device: StorageDevice,
        name: str,
        block_cache_blocks: int = 2,
        meta: TableMeta | None = None,
    ):
        self._file = device.open(name)
        self.name = name
        self._metrics = device.metrics
        # Small LRU over decoded data blocks: consecutive lookups that land
        # in the same block (sorted scans, hot blocks under a warm reader)
        # skip the re-read, the re-checksum *and* the re-decode.
        self.block_cache_blocks = max(0, int(block_cache_blocks))
        self._block_cache: OrderedDict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray, bytes]
        ] = OrderedDict()
        self._m_bc_hits = device.metrics.counter("sstable.block_cache.hits")
        self._m_bc_misses = device.metrics.counter("sstable.block_cache.misses")
        if meta is None:
            try:
                meta = load_table_meta(self._file, name)
            except Exception:
                self._file.close()  # a failed open must not leak its handle
                raise
        self.meta = meta
        self.nentries = meta.nentries
        self.block_size = meta.block_size
        self._first, self._last = meta.first, meta.last
        self._off, self._len = meta.off, meta.length
        self._bloom = meta.bloom

    def close(self) -> None:
        """Release the underlying extent handle (idempotent).

        Readers that a query path opens per lookup must be closed (or
        cached for reuse) — `StorageDevice.open_handles` audits exactly
        this.  Footer/index/filter state stays resident, but further
        `get`/`scan` calls will fail on the closed handle.
        """
        self._file.close()

    def __enter__(self) -> "SSTableReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def may_contain(self, key: int) -> bool:
        """Bloom-filter gate: False means the key is definitely absent."""
        if self._bloom is None:
            return True
        return int(key) in self._bloom

    def get(self, key: int) -> bytes | None:
        """Point lookup; returns the (first) value or None."""
        key = int(key)
        if current_span() is None:  # untraced: skip span-argument setup
            return self._get(key)
        with child_span(
            "sstable.get", counters=self._metrics, prefixes=("sstable.",), table=self.name
        ):
            return self._get(key)

    def _get(self, key: int) -> bytes | None:
        if not self.may_contain(key):
            return None
        k = np.uint64(key)
        lo = int(np.searchsorted(self._last, k, side="left"))
        while lo < self._first.size and self._first[lo] <= k:
            bkeys, voffs, vlens, body = self._parsed_block(lo)
            j = int(np.searchsorted(bkeys, k, side="left"))
            if j < bkeys.size and bkeys[j] == k:
                o = int(voffs[j])
                return body[o : o + int(vlens[j])]
            lo += 1
        return None

    def _read_block(self, i: int) -> bytes:
        """Fetch block ``i`` from the device, verifying its trailing
        checksum — on every read, whatever supplied the table's meta."""
        payload = self._file.read(int(self._off[i]), int(self._len[i]))
        if len(payload) < CHECKSUM_BYTES + 4:
            raise CorruptBlockError(f"block {i} truncated to {len(payload)} bytes")
        body, stored = payload[:-CHECKSUM_BYTES], payload[-CHECKSUM_BYTES:]
        if fastsum64(body) != int.from_bytes(stored, "little"):
            raise CorruptBlockError(f"checksum mismatch in block {i}")
        return body

    def _parsed_block(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
        """Block ``i`` decoded to entry arrays: (keys, value offsets into
        ``body``, value lengths, body).

        Served from the reader's small block cache when the block was
        fetched recently — a hit costs no device read, no re-checksum and
        no re-decode (``sstable.block_cache.{hits,misses}`` count both).
        """
        parsed = self._block_cache.get(i)
        if parsed is not None:
            self._block_cache.move_to_end(i)
            self._m_bc_hits.inc()
            return parsed
        self._m_bc_misses.inc()
        parsed = self._parse_block(self._read_block(i))
        if self.block_cache_blocks:
            self._block_cache[i] = parsed
            if len(self._block_cache) > self.block_cache_blocks:
                self._block_cache.popitem(last=False)
        return parsed

    @staticmethod
    def _parse_block(body: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
        """Decode one block body into (keys, value_offsets, value_lengths).

        Fixed-width fast path: if striding at the first entry's width makes
        every stored ``vlen`` field read back that same width, the layout
        *is* uniform (each aligned vlen proves the next record's position by
        induction), and the whole block decodes with array ops.  Otherwise
        falls back to the sequential scalar walk.
        """
        (n,) = _U32.unpack(body[:4])
        if n == 0:
            z = np.zeros(0, dtype=np.int64)
            return np.zeros(0, dtype=np.uint64), z, z, body
        buf = np.frombuffer(body, dtype=np.uint8)
        (w0,) = _U32.unpack(body[12:16])
        rec = _ENTRY_HDR.size + w0
        if 4 + n * rec == len(body):
            mat = buf[4 : 4 + n * rec].reshape(n, rec)
            vlens = mat[:, 8:12].copy().view("<u4").ravel()
            if (vlens == w0).all():
                bkeys = mat[:, :8].copy().view("<u8").ravel().astype(np.uint64)
                voffs = 4 + _ENTRY_HDR.size + np.arange(n, dtype=np.int64) * rec
                return bkeys, voffs, vlens.astype(np.int64), body
        bkeys = np.empty(n, dtype=np.uint64)
        voffs = np.empty(n, dtype=np.int64)
        vlens = np.empty(n, dtype=np.int64)
        pos = 4
        for j in range(n):
            if pos + _ENTRY_HDR.size > len(body):
                # Lengths that walk off the block (a writer bug: the
                # checksum matched): serve what still decodes.
                return bkeys[:j], voffs[:j], vlens[:j], body
            k, vlen = _ENTRY_HDR.unpack(body[pos : pos + _ENTRY_HDR.size])
            pos += _ENTRY_HDR.size
            bkeys[j], voffs[j], vlens[j] = k, pos, vlen
            pos += vlen
        return bkeys, voffs, vlens, body

    def may_contain_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized Bloom gate; False means definitely absent."""
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if self._bloom is None:
            return np.ones(keys.size, dtype=bool)
        return self._bloom.contains_many(keys)

    def get_many(self, keys: np.ndarray) -> tuple[list[bytes | None], int]:
        """Batched point lookups; returns ``(values, blocks_touched)``.

        ``values[i]`` is byte-identical to ``self.get(keys[i])``; keys are
        coalesced per data block so each needed block is read, checksummed,
        and decoded once for the whole batch (the filter and index are
        consulted once per batch with array ops).  ``blocks_touched`` is the
        number of per-block resolution passes the batch needed — the
        denominator of the block-coalescing ratio.
        """
        keys = np.asarray(keys, dtype=np.uint64).ravel()
        if current_span() is None:  # untraced: skip span-argument setup
            return self._get_many(keys)
        with child_span(
            "sstable.get_many",
            counters=self._metrics,
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
        if keys.size == 0 or self._first.size == 0:
            return values, 0
        alive = np.nonzero(self.may_contain_many(keys))[0]
        if alive.size == 0:
            return values, 0
        pos = alive
        cur = np.searchsorted(self._last, keys[alive], side="left").astype(np.int64)
        blocks_touched = 0
        while pos.size:
            # A key is still in play while its candidate block exists and
            # starts at-or-before it (the scalar walk's loop condition).
            ok = cur < self._first.size
            ok[ok] = self._first[cur[ok]] <= keys[pos[ok]]
            pos, cur = pos[ok], cur[ok]
            if pos.size == 0:
                break
            order = np.argsort(cur, kind="stable")
            pos, cur = pos[order], cur[order]
            starts = np.flatnonzero(np.r_[True, cur[1:] != cur[:-1]])
            ends = np.r_[starts[1:], cur.size]
            next_pos: list[np.ndarray] = []
            next_cur: list[np.ndarray] = []
            for s, e in zip(starts, ends):
                bkeys, voffs, vlens, body = self._parsed_block(int(cur[s]))
                blocks_touched += 1
                gk = keys[pos[s:e]]
                loc = np.searchsorted(bkeys, gk, side="left")
                hit = loc < bkeys.size
                hit[hit] = bkeys[loc[hit]] == gk[hit]
                for j in np.nonzero(hit)[0]:
                    o = int(voffs[loc[j]])
                    values[int(pos[s + j])] = body[o : o + int(vlens[loc[j]])]
                miss = np.nonzero(~hit)[0]
                if miss.size:
                    next_pos.append(pos[s:e][miss])
                    next_cur.append(cur[s:e][miss] + 1)
            if not next_pos:
                break
            pos = np.concatenate(next_pos)
            cur = np.concatenate(next_cur)
        return values, blocks_touched

    def scan_arrays(self) -> tuple[np.ndarray, np.ndarray | list[bytes]]:
        """Full table contents as columnar arrays, in stored key order.

        Returns ``(keys, values)`` where values is a ``(n, width)`` uint8
        matrix when every entry has the same width (the compaction merge
        fast path), else a list[bytes].  Blocks stream through the block
        cache one at a time, so peak memory is the decoded output plus one
        block.
        """
        key_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray | list[bytes]] = []
        widths: set[int] = set()
        for i in range(self._off.size):
            bkeys, voffs, vlens, body = self._parsed_block(i)
            if bkeys.size == 0:
                continue
            key_parts.append(bkeys)
            buf = np.frombuffer(body, dtype=np.uint8)
            if (vlens == vlens[0]).all():
                w = int(vlens[0])
                widths.add(w)
                val_parts.append(buf[voffs[:, None] + np.arange(w, dtype=np.int64)])
            else:
                widths.add(-1)
                val_parts.append(
                    [body[int(o) : int(o) + int(n)] for o, n in zip(voffs, vlens)]
                )
        if not key_parts:
            return np.zeros(0, dtype=np.uint64), np.zeros((0, 0), dtype=np.uint8)
        keys = key_parts[0] if len(key_parts) == 1 else np.concatenate(key_parts)
        if len(widths) == 1 and -1 not in widths:
            mats = [np.asarray(p, dtype=np.uint8) for p in val_parts]
            return keys, mats[0] if len(mats) == 1 else np.concatenate(mats, axis=0)
        flat: list[bytes] = []
        for part in val_parts:
            if isinstance(part, np.ndarray):
                flat.extend(bytes(row) for row in part)
            else:
                flat.extend(part)
        return keys, flat

    def scan(self) -> list[tuple[int, bytes]]:
        """Full scan in key order (test/verification helper: its own
        entry-by-entry walk, independent of `_parse_block`)."""
        out: list[tuple[int, bytes]] = []
        for i in range(self._off.size):
            payload = self._read_block(i)
            (n,) = _U32.unpack(payload[:4])
            pos = 4
            for _ in range(n):
                k, vlen = _ENTRY_HDR.unpack(payload[pos : pos + _ENTRY_HDR.size])
                pos += _ENTRY_HDR.size
                out.append((k, payload[pos : pos + vlen]))
                pos += vlen
        return out
