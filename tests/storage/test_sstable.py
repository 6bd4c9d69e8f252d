"""Unit tests for the flattened-LSM SSTable format."""

import numpy as np
import pytest

from repro.storage.blockio import StorageDevice
from repro.storage.sstable import FOOTER_BYTES, SSTableReader, SSTableWriter


def build(dev, name, items, **kw):
    w = SSTableWriter(dev, name, **kw)
    for k, v in items:
        w.add(k, v)
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
    scanned = r.scan()
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
    stats = build(dev, "t", [(1, b"abc"), (2, b"defg")], block_size=1024)
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
    build(dev, "t", [(1, b"a")], bloom_bits_per_key=0)
    r = SSTableReader(dev, "t")
    assert r.may_contain(999)  # no filter: must say maybe
    assert r.get(1) == b"a"


def test_duplicate_keys_first_wins():
    dev = StorageDevice()
    w = SSTableWriter(dev, "t", block_size=64)
    w.add(7, b"first")
    w.add(7, b"second")
    w.finish()
    assert SSTableReader(dev, "t").get(7) == b"first"


def test_duplicate_keys_across_block_boundary():
    dev = StorageDevice()
    w = SSTableWriter(dev, "t", block_size=64)
    for i in range(20):
        w.add(7, b"dup%02d" % i)
    w.finish()
    assert SSTableReader(dev, "t").get(7) == b"dup00"


def test_empty_table():
    dev = StorageDevice()
    stats = build(dev, "t", [])
    assert stats.nentries == 0
    r = SSTableReader(dev, "t")
    assert r.get(1) is None
    assert r.scan() == []


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
        w.add(1, b"late")


def test_add_many_validates_lengths():
    dev = StorageDevice()
    w = SSTableWriter(dev, "t")
    with pytest.raises(ValueError):
        w.add_many(np.asarray([1, 2], dtype=np.uint64), [b"only-one"])


def test_tiny_block_size_rejected():
    with pytest.raises(ValueError):
        SSTableWriter(StorageDevice(), "t", block_size=16)


def test_footer_magic_validated():
    dev = StorageDevice()
    f = dev.open("junk", create=True)
    f.append(b"\x00" * FOOTER_BYTES)
    with pytest.raises(ValueError):
        SSTableReader(dev, "junk")
    g = dev.open("short", create=True)
    g.append(b"\x01")
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

    def test_variable_width_matches_scalar(self):
        dev = StorageDevice()
        items = [(k, b"x" * (1 + k % 37)) for k in range(300)]
        build(dev, "t", items, block_size=256, vectorized=False)
        r = SSTableReader(dev, "t")
        self._probe(r, list(range(0, 320, 3)))

    def test_variable_width_scalar_bulk_and_scan_agree(self):
        """`_parse_block`'s sequential fallback is the scalar path's only
        decoder: scalar get, get_many and the independent `scan()` walk
        must tell one story, absent keys and block edges included."""
        dev = StorageDevice()
        rng = np.random.default_rng(31)
        keys = np.unique(rng.integers(0, 5000, size=400, dtype=np.uint64))
        items = [(int(k), bytes(rng.integers(0, 256, int(k) % 41, dtype=np.uint8)))
                 for k in keys]
        build(dev, "t", items, block_size=200, vectorized=False)
        r = SSTableReader(dev, "t")
        truth = dict(r.scan())
        assert truth == dict(items)
        probe = np.concatenate([keys, keys + np.uint64(5000), np.asarray([0, 4999], np.uint64)])
        vals, _ = r.get_many(probe)
        for k, v in zip(probe.tolist(), vals):
            assert v == truth.get(k)
            assert r.get(k) == truth.get(k)
        akeys, avals = r.scan_arrays()
        assert dict(zip(akeys.tolist(), avals)) == truth

    def test_duplicate_keys_return_first_inserted(self):
        dev = StorageDevice()
        w = SSTableWriter(dev, "t", block_size=64)
        for i in range(40):
            w.add(7, f"a{i}".encode())  # duplicates straddle block boundaries
        w.add(9, b"nine")
        w.finish()
        r = SSTableReader(dev, "t")
        vals, _ = r.get_many(np.asarray([7, 9, 8], dtype=np.uint64))
        assert vals == [b"a0", b"nine", None]
        assert r.get(7) == b"a0"

    def test_block_coalescing_single_read_per_block(self):
        dev = StorageDevice()
        keys = np.arange(256, dtype=np.uint64)
        build(dev, "t", [(int(k), bytes(8)) for k in keys], block_size=1 << 20,
              bloom_bits_per_key=0.0)
        r = SSTableReader(dev, "t", block_cache_blocks=0)
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
        from repro.obs import MetricsRegistry

        m = MetricsRegistry()
        dev = StorageDevice(metrics=m)
        build(dev, "t", [(k, bytes([k % 251])) for k in range(64)], block_size=1 << 20)
        r = SSTableReader(dev, "t")
        before = dev.counters.snapshot()
        for k in (1, 2, 3, 4):
            r.get(k)
        assert dev.counters.delta(before).reads == 1  # one block fetch, 3 hits
        assert m.total("sstable.block_cache.hits") == 3
        assert m.total("sstable.block_cache.misses") == 1

    def test_cache_disabled(self):
        dev = StorageDevice()
        build(dev, "t", [(k, bytes(4)) for k in range(64)], block_size=1 << 20)
        r = SSTableReader(dev, "t", block_cache_blocks=0)
        before = dev.counters.snapshot()
        for k in (1, 2):
            r.get(k)
        assert dev.counters.delta(before).reads == 2

    def test_eviction_bounds_cache(self):
        dev = StorageDevice()
        build(dev, "t", [(k, bytes(32)) for k in range(200)], block_size=64)
        r = SSTableReader(dev, "t", block_cache_blocks=2)
        for k in range(0, 200, 5):
            r.get(k)
        assert len(r._block_cache) <= 2  # the one LRU: decoded blocks


def test_reader_over_cached_meta_reads_only_data():
    """``meta=`` from an earlier open: no footer/index read, same answers."""
    dev = StorageDevice()
    build(dev, "t", [(k, b"v%03d" % k) for k in range(300)], block_size=256)
    baseline = dev.open_handles
    with SSTableReader(dev, "t") as first:
        meta = first.meta
    assert meta.nentries == 300 and meta.nbytes > 0
    before = dev.counters.snapshot()
    with SSTableReader(dev, "t", meta=meta) as r:
        assert dev.counters.delta(before).reads == 0
        assert r.get(17) == b"v017" and r.get(999) is None
        assert dev.counters.delta(before).reads == 1
    assert dev.open_handles == baseline


def test_failed_open_releases_its_handle():
    dev = StorageDevice()
    dev.open("junk", create=True).append(b"\x00" * FOOTER_BYTES)
    baseline = dev.open_handles
    with pytest.raises(ValueError):
        SSTableReader(dev, "junk")
    assert dev.open_handles == baseline
