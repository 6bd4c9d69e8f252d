"""Unit tests for the flattened-LSM SSTable format."""

import bisect

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.storage.blockio import StorageDevice
from repro.storage.envelope import UnsupportedLayoutError
from repro.storage.sstable import (
    FOOTER_BYTES,
    GROUP_BYTES,
    BlockCache,
    CorruptBlockError,
    SSTableReader,
    SSTableWriter,
    load_table_meta,
)

from ..reference import ingest as ref
from ..reference.read import footprint, scan_rows


def rows(items):
    """``(key, value)`` pairs, values of one width, as ``(keys, values)``
    arrays: the values a ``(len(items), width)`` uint8 matrix."""
    width = len(items[0][1]) if items else 0
    values = np.frombuffer(b"".join(v for _, v in items), dtype=np.uint8)
    return np.asarray([k for k, _ in items], dtype=np.uint64), values.reshape(len(items), width)


def touched_span(meta, key):
    """``(block, start, stop)``: the file bytes a ranged read of ``key``
    fetches, worked out from the table's index alone — the key group that
    must hold the key's first occurrence (the last one starting below it)
    through the next group when the key *is* that group's first key.  None
    when no block can hold the key (the Bloom gate is the caller's)."""
    b = int(np.searchsorted(meta.last, np.uint64(key)))
    if b == meta.first.size or int(meta.first[b]) > key:
        return None
    gfirst = meta.gfirst[meta.gstart[b] : meta.gstart[b + 1]].tolist()
    below = bisect.bisect_left(gfirst, key)
    lo = max(below - 1, 0)
    hi = below if below < len(gfirst) and gfirst[below] == key else lo
    off, gb = int(meta.off[b]), meta.group_bytes
    return b, off + lo * gb, off + min((hi + 1) * gb, int(meta.length[b]))


def ranged_bytes(meta, keys) -> int:
    """Bytes one ranged `get_many` of ``keys`` (those past the Bloom gate)
    fetches: per block, its first through its last touched byte."""
    spans: dict[int, tuple[int, int]] = {}
    for key in keys:
        span = touched_span(meta, int(key))
        if span is not None:
            b, start, stop = span
            lo, hi = spans.get(b, (start, stop))
            spans[b] = (min(lo, start), max(hi, stop))
    return sum(stop - start for start, stop in spans.values())


def build(dev, name, items, **kw):
    w = SSTableWriter(dev, name, **kw)
    w.add_many(*rows(items))
    return w.finish()


def test_roundtrip_sorted_lookup():
    dev = StorageDevice()
    items = [(k, f"v{k}".encode()) for k in (5, 1, 9, 3, 7)]
    build(dev, "t", items, block_size=64)
    r = SSTableReader(dev, "t")
    for k, v in items:
        assert r.get(k) == v
    assert r.get(2) is None
    assert r.get(100) is None


def test_scan_returns_key_order():
    dev = StorageDevice()
    rng = np.random.default_rng(1)
    keys = rng.permutation(200).astype(np.uint64)
    build(dev, "t", [(int(k), bytes([int(k) % 251])) for k in keys], block_size=128)
    r = SSTableReader(dev, "t")
    scanned = scan_rows(r)
    assert [k for k, _ in scanned] == sorted(int(k) for k in keys)
    assert len(scanned) == 200


def test_multi_block_boundaries():
    dev = StorageDevice()
    items = [(k, b"x" * 50) for k in range(500)]
    stats = build(dev, "t", items, block_size=256)
    assert stats.nentries == 500
    r = SSTableReader(dev, "t")
    for k in (0, 1, 249, 250, 499):
        assert r.get(k) == b"x" * 50


def test_stats_accounting():
    dev = StorageDevice()
    stats = build(dev, "t", [(1, b"abcd"), (2, b"defg")], block_size=1024)
    assert stats.nentries == 2
    assert stats.total_bytes == dev.file_size("t")
    assert stats.data_bytes > 0 and stats.index_bytes > 0 and stats.filter_bytes > 0


def test_bloom_gate_blocks_absent_keys():
    dev = StorageDevice()
    build(dev, "t", [(k, b"v") for k in range(0, 2000, 2)], block_size=512)
    r = SSTableReader(dev, "t")
    before = dev.counters.snapshot()
    misses = sum(r.get(k) is not None for k in range(1, 2000, 2))
    assert misses == 0
    # The Bloom filter should suppress nearly all data-block reads.
    assert dev.counters.delta(before).reads < 100


def test_no_bloom_mode():
    dev = StorageDevice()
    stats = build(dev, "t", [(1, b"a")], bloom_bits_per_key=0)
    assert stats.filter_bytes == 0
    r = SSTableReader(dev, "t")
    assert r.meta.bloom is None
    assert r.get(1) == b"a" and r.get(999) is None  # no filter: the block says absent


def test_duplicate_keys_first_wins():
    dev = StorageDevice()
    build(dev, "t", [(7, b"first-"), (7, b"second")], block_size=64)
    assert SSTableReader(dev, "t").get(7) == b"first-"


def test_duplicate_keys_across_block_boundary():
    dev = StorageDevice()
    build(dev, "t", [(7, b"dup%02d" % i) for i in range(20)], block_size=64)
    assert SSTableReader(dev, "t").get(7) == b"dup00"


def test_empty_table():
    dev = StorageDevice()
    stats = build(dev, "t", [])
    assert stats.nentries == 0
    r = SSTableReader(dev, "t")
    assert r.get(1) is None
    assert scan_rows(r) == []


def test_read_costs_match_fig11_structure():
    """Opening costs footer+index+filter reads; get() costs one block read."""
    dev = StorageDevice()
    build(dev, "t", [(k, b"v" * 16) for k in range(100)], block_size=512)
    before = dev.counters.snapshot()
    r = SSTableReader(dev, "t")
    open_reads = dev.counters.delta(before).reads
    assert open_reads == 2  # footer, then filter+index in one span
    before = dev.counters.snapshot()
    assert r.get(50) is not None
    assert dev.counters.delta(before).reads == 1


def test_writer_finish_twice_rejected():
    dev = StorageDevice()
    w = SSTableWriter(dev, "t")
    w.finish()
    with pytest.raises(ValueError):
        w.finish()
    with pytest.raises(ValueError):
        w.add_many(*rows([(1, b"late")]))


def test_add_many_validates_lengths():
    dev = StorageDevice()
    w = SSTableWriter(dev, "t")
    with pytest.raises(ValueError):
        w.add_many(np.asarray([1, 2], dtype=np.uint64), rows([(1, b"only-one")])[1])
    w.add_many(*rows([(1, b"four")]))
    with pytest.raises(ValueError, match="width 5 added to a table of 4-byte values"):
        w.add_many(*rows([(2, b"five!")]))  # a table holds one value width


def test_tiny_block_size_rejected():
    with pytest.raises(ValueError):
        SSTableWriter(StorageDevice(), "t", block_size=16)


def test_footer_magic_validated():
    dev = StorageDevice()
    dev.create("junk")
    dev.append("junk", b"\x00" * FOOTER_BYTES)
    with pytest.raises(ValueError):
        SSTableReader(dev, "junk")
    dev.create("short")
    dev.append("short", b"\x01")
    with pytest.raises(ValueError):
        SSTableReader(dev, "short")


def test_large_values():
    dev = StorageDevice()
    big = bytes(np.random.default_rng(2).integers(0, 256, 50_000, dtype=np.uint8))
    build(dev, "t", [(1, big)], block_size=1024)
    assert SSTableReader(dev, "t").get(1) == big


class TestGetMany:
    def _probe(self, r, keys):
        vals, blocks = r.get_many(np.asarray(keys, dtype=np.uint64))
        assert vals == [r.get(int(k)) for k in keys]
        return vals, blocks

    def test_fixed_width_matches_scalar(self):
        dev = StorageDevice()
        rng = np.random.default_rng(30)
        keys = rng.permutation(500).astype(np.uint64) * 3
        build(dev, "t", [(int(k), int(k).to_bytes(8, "little")) for k in keys],
              block_size=128)
        r = SSTableReader(dev, "t")
        probe = np.concatenate([keys[:200], np.asarray([1, 4, 10_000], dtype=np.uint64)])
        self._probe(r, probe)

    def test_scalar_bulk_and_scan_agree(self):
        """Scalar get, get_many, `scan_arrays` and the independent `scan()`
        walk tell one story, absent keys and block edges included."""
        dev = StorageDevice()
        rng = np.random.default_rng(31)
        keys = np.unique(rng.integers(0, 5000, size=400, dtype=np.uint64))
        items = [(int(k), bytes(rng.integers(0, 256, 41, dtype=np.uint8))) for k in keys]
        build(dev, "t", items, block_size=200)
        r = SSTableReader(dev, "t")
        truth = dict(scan_rows(r))
        assert truth == dict(items)
        probe = np.concatenate([keys, keys + np.uint64(5000), np.asarray([0, 4999], np.uint64)])
        vals, _ = r.get_many(probe)
        for k, v in zip(probe.tolist(), vals):
            assert v == truth.get(k)
            assert r.get(k) == truth.get(k)
        akeys, avals = r.scan_arrays()
        assert dict(zip(akeys.tolist(), map(bytes, avals))) == truth

    def test_duplicate_keys_return_first_inserted(self):
        dev = StorageDevice()
        # duplicates straddle block boundaries
        build(dev, "t", [(7, b"a%02d" % i) for i in range(40)] + [(9, b"nin")],
              block_size=64)
        r = SSTableReader(dev, "t")
        vals, _ = r.get_many(np.asarray([7, 9, 8], dtype=np.uint64))
        assert vals == [b"a00", b"nin", None]
        assert r.get(7) == b"a00"

    def test_block_coalescing_single_read_per_block(self):
        dev = StorageDevice()
        keys = np.arange(256, dtype=np.uint64)
        build(dev, "t", [(int(k), bytes(8)) for k in keys], block_size=1 << 20,
              bloom_bits_per_key=0.0)
        r = SSTableReader(dev, "t", cache=BlockCache(0, dev.metrics))
        before = dev.counters.snapshot()
        vals, blocks = r.get_many(keys)  # all keys live in one block
        d = dev.counters.delta(before)
        assert all(v is not None for v in vals)
        assert blocks == 1
        assert d.reads == 1

    def test_empty_batch_and_empty_table(self):
        dev = StorageDevice()
        build(dev, "t", [])
        r = SSTableReader(dev, "t")
        assert r.get_many(np.zeros(0, dtype=np.uint64)) == ([], 0)
        assert r.get_many(np.asarray([3], dtype=np.uint64)) == ([None], 0)


class TestBlockCache:
    def test_repeat_gets_hit_cache(self):
        m = MetricsRegistry()
        dev = StorageDevice(metrics=m)
        build(dev, "t", [(k, bytes([k % 251])) for k in range(64)], block_size=1 << 20)
        r = SSTableReader(dev, "t", cache=BlockCache(2, m))
        before = dev.counters.snapshot()
        for k in (1, 2, 3, 4):
            r.get(k)
        assert dev.counters.delta(before).reads == 1  # one block fetch, 3 hits
        assert m.total("sstable.block_cache.hits") == 3
        assert m.total("sstable.block_cache.misses") == 1

    def test_cache_disabled(self):
        """No cache and a 0-block cache both re-read: every fetch a miss."""
        m = MetricsRegistry()
        dev = StorageDevice(metrics=m)
        build(dev, "t", [(k, bytes(4)) for k in range(64)], block_size=1 << 20)
        for cache in (None, BlockCache(0, m)):
            r = SSTableReader(dev, "t", cache=cache)
            before = dev.counters.snapshot()
            for k in (1, 2):
                r.get(k)
            assert dev.counters.delta(before).reads == 2
        assert m.total("sstable.block_cache.misses") == 4
        assert m.total("sstable.block_cache.hits") == 0

    def test_eviction_bounds_cache(self):
        """A cache never holds more than its budget, however many readers
        of however many tables fetch through it."""
        dev = StorageDevice()
        for name in ("a", "b", "c"):
            build(dev, name, [(k, bytes(32)) for k in range(200)], block_size=64)
        cache = BlockCache(3, dev.metrics)
        for name in ("a", "b", "c", "a"):
            r = SSTableReader(dev, name, cache=cache)
            for k in range(0, 200, 5):
                r.get(k)
                assert len(cache) <= 3
            r.scan_arrays()
            assert len(cache) == 3

    def test_a_kept_block_serves_the_next_reader_of_the_table(self):
        m = MetricsRegistry()
        dev = StorageDevice(metrics=m)
        build(dev, "t", [(k, b"v%03d" % k) for k in range(100)], block_size=1 << 20)
        cache = BlockCache(2, m)
        assert SSTableReader(dev, "t", cache=cache).get(7) == b"v007"
        meta = SSTableReader(dev, "t").meta
        before = dev.counters.snapshot()
        assert SSTableReader(dev, "t", meta, cache).get(8) == b"v008"
        assert dev.counters.delta(before).reads == 0
        assert m.total("sstable.block_cache.hits") == 1

    def test_block_0_of_two_tables_does_not_collide(self):
        dev = StorageDevice()
        build(dev, "a", [(k, b"a") for k in range(50)], block_size=1 << 20)
        build(dev, "b", [(k, b"b") for k in range(50)], block_size=1 << 20)
        cache = BlockCache(2, dev.metrics)
        a, b = SSTableReader(dev, "a", cache=cache), SSTableReader(dev, "b", cache=cache)
        assert [a.get(3), b.get(3), a.get(4), b.get(4)] == [b"a", b"b", b"a", b"b"]
        assert len(cache) == 2


def test_reader_over_cached_meta_reads_only_data():
    """``meta=`` from an earlier open: no footer/index read, same answers."""
    dev = StorageDevice()
    build(dev, "t", [(k, b"v%03d" % k) for k in range(300)], block_size=256)
    meta = SSTableReader(dev, "t").meta
    assert meta.nentries == 300
    before = dev.counters.snapshot()
    r = SSTableReader(dev, "t", meta=meta)
    assert dev.counters.delta(before).reads == 0
    assert r.get(17) == b"v017" and r.get(999) is None
    assert dev.counters.delta(before).reads == 1


def test_failed_open_releases_its_handle():
    """A refused open leaves the device as it found it."""
    dev = StorageDevice()
    dev.create("junk")
    dev.append("junk", b"\x00" * FOOTER_BYTES)
    before = footprint(dev)
    with pytest.raises(ValueError):
        SSTableReader(dev, "junk")
    assert footprint(dev) == before


class TestKeyGroups:
    """Blocks are the I/O unit, key groups the verify/decode unit."""

    @staticmethod
    def _small_groups(monkeypatch, nbytes=128):
        # Readers take group bounds from the table, never from the constant,
        # so a test may write many-group tables out of a few records.
        from repro.storage import sstable

        monkeypatch.setattr(sstable, "GROUP_BYTES", nbytes)

    @staticmethod
    def _value(i, width):
        # "odd": 23-byte records, so groups round up to whole 8-byte words
        return bytes([i % 251]) * (8 if width == "fixed" else 11)

    @pytest.mark.parametrize("width", ["fixed", "odd"])
    @pytest.mark.parametrize("cache", [0, 2])
    def test_duplicates_across_group_and_block_seams(self, monkeypatch, width, cache):
        self._small_groups(monkeypatch)
        keys = [2 * (i // 9) for i in range(400)]  # every key nine times over
        items = [(k, self._value(i, width)) for i, k in enumerate(keys)]
        dev = StorageDevice()
        build(dev, "t", items, block_size=512, bloom_bits_per_key=0)
        r = SSTableReader(dev, "t", cache=BlockCache(cache, dev.metrics))
        meta = r.meta
        assert meta.first.size >= 4 and (np.diff(meta.gstart) >= 2).all()
        # the seams the test is about exist: a key starts a group, and a block
        assert set(meta.gfirst[1:].tolist()) & set(keys)
        first = {}
        for k, v in items:
            first.setdefault(k, v)
        probe = np.arange(0, max(keys) + 4, dtype=np.uint64)
        want = [first.get(k) for k in probe.tolist()]  # odd keys fall between records
        assert [r.get(k) for k in probe.tolist()] == want
        vals, blocks = r.get_many(probe)
        assert vals == want and blocks >= meta.first.size
        assert r.get(2**64 - 1) is None  # above the table
        scanned = scan_rows(r)
        assert [k for k, _ in scanned] == keys
        seen = {}
        for k, v in scanned:
            seen.setdefault(k, v)
        assert seen == first

    def test_absent_keys_below_between_and_above(self, monkeypatch):
        self._small_groups(monkeypatch)
        dev = StorageDevice()
        keys = list(range(100, 2100, 20))
        build(dev, "t", [(k, b"v" * 8) for k in keys], bloom_bits_per_key=0)
        r = SSTableReader(dev, "t")
        gfirst = r.meta.gfirst.tolist()
        assert len(gfirst) >= 8
        absent = [0, 99, 2081, 2**63]
        absent += [g - 1 for g in gfirst[1:]]  # between two groups
        absent += [g + 1 for g in gfirst]  # just inside each
        vals, _ = r.get_many(np.asarray(absent + keys, dtype=np.uint64))
        assert vals == [None] * len(absent) + [b"v" * 8] * len(keys)
        assert [r.get(k) for k in absent] == [None] * len(absent)

    @pytest.mark.parametrize("width", ["fixed", "odd"])
    def test_table_smaller_than_one_group(self, width):
        dev = StorageDevice()
        items = [(k, self._value(k, width)) for k in (9, 3, 6)]
        build(dev, "t", items)
        r = SSTableReader(dev, "t")
        assert r.meta.gfirst.tolist() == [3] and r.meta.gstart.tolist() == [0, 1]
        assert [r.get(k) for k in (3, 6, 9, 1, 5, 12)] == [
            self._value(3, width), self._value(6, width), self._value(9, width), None, None, None,
        ]
        assert r.get_many(np.asarray([9, 4, 3], dtype=np.uint64))[0] == [
            self._value(9, width), None, self._value(3, width),
        ]

    def test_empty_table_has_no_groups(self):
        dev = StorageDevice()
        build(dev, "t", [])
        r = SSTableReader(dev, "t")
        assert r.meta.gfirst.size == 0 and r.meta.gstart.tolist() == [0]
        assert r.get(1) is None and scan_rows(r) == []
        keys, values = r.scan_arrays()
        assert keys.size == 0 and len(values) == 0

    @pytest.mark.parametrize("width", ["fixed", "odd"])
    def test_groups_tile_every_block(self, width):
        """Every byte of a block belongs to exactly one group, groups hold
        whole records, and a fixed-width group is whole 8-byte words."""
        from repro.storage.sstable import GROUP_BYTES

        dev = StorageDevice()
        items = [(k, self._value(k, width) * 3) for k in range(3000)]
        build(dev, "t", items, block_size=3 * GROUP_BYTES + 100)
        r = SSTableReader(dev, "t")
        m = r.meta
        assert m.first.size >= 2
        scanned = dict(scan_rows(r))
        for b in range(m.first.size):
            goff = m.goff[m.gstart[b] : m.gstart[b + 1]]
            assert goff[0] == 0 and (np.diff(goff) >= GROUP_BYTES).all()
            assert goff[-1] < m.length[b]
            assert (np.diff(goff) == m.group_bytes).all() and m.group_bytes % 8 == 0
            blk = r._fetch(b)  # the whole block
            for g, off in enumerate(goff.tolist()):  # a group starts at a record
                key = int.from_bytes(blk.raw[off : off + 8], "little")
                assert key == m.gfirst[m.gstart[b] + g] and key in scanned

    def test_a_lookup_verifies_only_the_groups_it_lands_in(self):
        dev = StorageDevice()
        build(dev, "t", [(k, bytes(56)) for k in range(4096)], block_size=1 << 20)
        cache = BlockCache(2, dev.metrics)
        r = SSTableReader(dev, "t", cache=cache)
        ngroups = r.meta.gfirst.size
        assert ngroups > 40
        assert r.get(1000) == bytes(56)
        (blk,) = cache._lru.values()
        assert blk.verified.sum() == 1
        r.get_many(np.asarray([5, 6, 4000], dtype=np.uint64))
        assert blk.verified.sum() == 3
        r.get(int(r.meta.gfirst[7]))  # a group's first key: that group and the one before
        assert blk.verified[6] and blk.verified[7] and blk.verified.sum() == 5
        r.scan_arrays()
        assert blk.verified.all()

    def test_vectorized_and_scalar_writers_cut_the_same_groups(self, monkeypatch):
        """The writer's array cutter and the per-record reference cutter,
        fed the same rows, write the same table."""
        from repro.storage import sstable

        rng = np.random.default_rng(9)
        keys = rng.integers(0, 1 << 40, size=900, dtype=np.uint64)
        values = rng.integers(0, 256, size=(900, 21), dtype=np.uint8)
        images = []
        for cutter in (sstable._cut_rows, lambda k, v, *cut: ref.cut_records(
            k.tolist(), [row.tobytes() for row in v], *cut
        )):
            monkeypatch.setattr(sstable, "_cut_rows", cutter)
            dev = StorageDevice()
            w = SSTableWriter(dev, "t", block_size=10_000)
            w.add_many(keys, values)
            w.finish()
            images.append(dev.read("t", 0, dev.file_size("t")))
        assert SSTableReader(dev, "t").meta.gfirst.size > 4  # several blocks and groups
        assert images[0] == images[1]


class TestRangedReads:
    """A reader over a 0-block cache (``BlockCache(0)``) fetches, per block,
    only the span of key groups a call touches: the same answers and device
    reads as a whole-block reader, and exactly the span's bytes."""

    @staticmethod
    def _table(monkeypatch, width):
        TestKeyGroups._small_groups(monkeypatch)
        # every key five times over, so runs of duplicates straddle group seams
        keys = [3 * (i // 5) for i in range(1500)]
        items = [(k, (i.to_bytes(4, "little") * 5)[:width]) for i, k in enumerate(keys)]
        dev = StorageDevice()
        build(dev, "t", items, block_size=2010, bloom_bits_per_key=4)
        r = SSTableReader(dev, "t")
        return dev, r.meta, scan_rows(r)

    @staticmethod
    def _seams(meta, scanned):
        """Keys that start a group (not a block) while their duplicates start
        in the group before, and the keys of every block's short last group."""
        rec, gb = meta.record_bytes, meta.group_bytes
        per = gb // rec
        seam, short = set(), set()
        at = 0  # first record of the block
        for b in range(meta.first.size):
            n = int(meta.length[b]) // rec
            for g in range(1, int(meta.gstart[b + 1] - meta.gstart[b])):
                if scanned[at + g * per][0] == scanned[at + g * per - 1][0]:
                    seam.add(scanned[at + g * per][0])
            if meta.length[b] % gb:
                short.update(k for k, _ in scanned[at + n - n % per : at + n])
            at += n
        return seam, short

    @pytest.mark.parametrize("width", [20, 13])  # 32-byte records, and 25: not whole words
    def test_ranged_reads_match_whole_blocks_and_scan(self, monkeypatch, width):
        dev, meta, scanned = self._table(monkeypatch, width)
        assert meta.first.size >= 4 and (np.diff(meta.gstart) >= 2).all()
        truth: dict[int, bytes] = {}
        for k, v in scanned:
            truth.setdefault(k, v)
        seam, short = self._seams(meta, scanned)
        assert seam and short  # the cases the test is about exist
        present = sorted(truth)
        absent = [k + 1 for k in present] + [2**64 - 1]
        gate = meta.bloom.contains_many(np.asarray(absent, dtype=np.uint64))
        assert gate.any() and not gate.all()  # absent keys the Bloom filter passes, and not
        passes = set(present) | {k for k, g in zip(absent, gate.tolist()) if g}

        def read(blocks, call):
            """One fresh reader over resident metadata and a fresh cache of
            ``blocks``: what it returns, and the device reads and bytes it
            cost."""
            before = dev.counters.snapshot()
            out = call(SSTableReader(dev, "t", meta, BlockCache(blocks, dev.metrics)))
            d = dev.counters.delta(before)
            return out, d.reads, d.bytes_read

        for k in present + absent:
            ranged, reads, nbytes = read(0, lambda r: r.get(k))
            whole, whole_reads, whole_bytes = read(2, lambda r: r.get(k))
            assert ranged == whole == truth.get(k), k
            assert reads == whole_reads, k
            assert nbytes == (ranged_bytes(meta, [k]) if k in passes else 0), k
            assert nbytes <= whole_bytes

        probe = np.asarray(present[::3] + absent[::2] + present[::7], dtype=np.uint64)
        probe = np.random.default_rng(5).permutation(probe)
        (ranged, blocks), reads, nbytes = read(0, lambda r: r.get_many(probe))
        (whole, whole_blocks), whole_reads, whole_bytes = read(2, lambda r: r.get_many(probe))
        assert ranged == whole == [truth.get(k) for k in probe.tolist()]
        assert reads == whole_reads == blocks == whole_blocks
        assert nbytes == ranged_bytes(meta, [k for k in probe.tolist() if k in passes])
        assert nbytes <= whole_bytes

    def test_a_span_skips_the_groups_around_it(self, monkeypatch):
        dev, meta, _ = self._table(monkeypatch, 20)
        b = 1
        g = int(meta.gstart[b]) + 2  # the block's third group: groups on both sides
        key = int(meta.gfirst[g]) + 3  # no group starts with it: one group only
        assert int(meta.gfirst[g + 1]) > key
        r = SSTableReader(dev, "t", meta, BlockCache(0, dev.metrics))
        before = dev.counters.snapshot()
        r.get_many(np.asarray([key], dtype=np.uint64))
        d = dev.counters.delta(before)
        assert (d.reads, d.bytes_read) == (1, meta.group_bytes)
        assert touched_span(meta, key) == (
            b, int(meta.off[b]) + 2 * meta.group_bytes, int(meta.off[b]) + 3 * meta.group_bytes
        )


@pytest.mark.parametrize("cache", [0, 2])
def test_a_short_block_read_names_table_and_block(cache):
    """A block cut short underneath a reader with resident metadata: the
    error names the extent and the block, whole-block fetch or span."""
    dev, name = StorageDevice(), "part.003.000007"
    build(dev, name, [(k, bytes(40)) for k in range(2000)], block_size=4 * GROUP_BYTES)
    meta = SSTableReader(dev, name).meta
    assert meta.first.size >= 3
    dev.truncate(name, int(meta.off[1]) + 100)  # inside block 1's first group
    r = SSTableReader(dev, name, meta, BlockCache(cache, dev.metrics))
    with pytest.raises(CorruptBlockError) as err:
        r.get(int(meta.first[1]) + 1)
    assert "block 1 " in str(err.value) and repr(name) in str(err.value)


def _block_checksum_layout_table(items) -> bytes:
    """A table in the block-checksum layout, built from its documented
    format: data block := u32 n ‖ n × (u64 key, u32 vlen, value) ‖ u64
    checksum; index := u32 nblocks ‖ nblocks × (u64 first, u64 last,
    u64 off, u32 len, u32 n) ‖ u64 checksum; the same 64-byte footer
    under magic 0xF117E5CBDE17AF5.  (One block, no filter.)  That layout
    summed with a 64-bit NumPy checksum; a CRC-32 stands in for it here,
    since the magic alone refuses the table."""
    import struct
    import zlib

    def seal(body):
        return body + zlib.crc32(body).to_bytes(8, "little")

    items = sorted(items)
    block = seal(
        struct.pack("<I", len(items))
        + b"".join(struct.pack("<QI", k, len(v)) + v for k, v in items)
    )
    index = seal(
        struct.pack("<I", 1)
        + struct.pack("<QQQII", items[0][0], items[-1][0], 0, len(block), len(items))
    )
    footer = seal(
        struct.pack(
            "<QQQQQQII", 0xF117E5CB_DE17AF5, len(block), len(index), len(block), 0,
            len(items), 1 << 20, 0,
        )
    )
    return block + index + footer


def test_previous_layout_is_refused_by_name_and_releases_its_handle():
    dev = StorageDevice()
    dev.create("old")
    dev.append("old", _block_checksum_layout_table([(k, b"v%03d" % k) for k in range(40)]))
    before = footprint(dev)
    with pytest.raises(UnsupportedLayoutError, match="block-checksum layout.*key-group layout"):
        SSTableReader(dev, "old")
    assert footprint(dev) == before


def test_the_64_bit_sum_key_group_layout_is_refused_by_name():
    """The key-group layout as it was before its checksums became CRC-32s:
    the same bytes under magic 0xF117E5CB6209BF5, refused before any
    checksum is compared."""
    dev = StorageDevice()
    build(dev, "t", [(k, b"v%03d" % k) for k in range(40)])
    at = dev.file_size("t") - FOOTER_BYTES
    SSTableReader(dev, "t")
    magic = int.from_bytes(dev.read("t", at, 8), "little")
    for i, byte in enumerate((magic ^ 0xF117E5CB_6209BF5).to_bytes(8, "little")):
        if byte:
            dev.corrupt("t", at + i, xor=byte)
    with pytest.raises(UnsupportedLayoutError, match="64-bit-sum key-group layout"):
        SSTableReader(dev, "t")


def test_the_length_framed_row_layout_is_refused_by_name():
    """The layout before unframed rows: the same key groups of rows
    ``u64 key ‖ u32 vlen ‖ value`` under magic 0xF117E5CBC3C3236, written
    here by the reference encoder.  `load_table_meta` and the reader both
    refuse it by name, before any checksum is compared; the same rows
    unframed open and read."""
    items = [(k, b"v%03d" % k) for k in range(40)]
    dev = StorageDevice()
    dev.create("old")
    dev.append("old", ref.table_image(items, 1 << 20, framed=True))
    with pytest.raises(UnsupportedLayoutError, match="length-framed row layout.*0xf117e5cbc3c3236"):
        SSTableReader(dev, "old")
    with pytest.raises(UnsupportedLayoutError, match="length-framed row"):
        load_table_meta(dev, "old")
    dev.create("new")
    dev.append("new", ref.table_image(items, 1 << 20))
    r = SSTableReader(dev, "new")
    assert r.meta.record_bytes == 8 + 4 and scan_rows(r) == items
