"""Failure injection: corrupted storage must be detected, never served.

All damage is introduced through the public fault surface on
`StorageDevice` (``corrupt`` / ``truncate``) — the same hooks the
``repro.faults`` plans use — so these tests double as a contract check
on that API.  Coverage walks the whole table layout: data blocks, the
filter block, the index block, the footer body, and the footer checksum.
"""

from functools import partial

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.pipeline import main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import CorruptBlockError, SSTableReader, SSTableWriter

from ..reference.read import scan_rows
from ..storage.test_sstable import rows


def _build_table(dev, n=500):
    w = SSTableWriter(dev, "t", block_size=512)
    w.add_many(*rows([(k, b"payload-%03d" % (k % 1000)) for k in range(n)]))
    return w.finish()


def test_data_block_corruption_detected():
    dev = StorageDevice()
    stats = _build_table(dev)
    r = SSTableReader(dev, "t")
    assert r.get(123) is not None
    # Flip a byte in the middle of the data region.
    dev.corrupt("t", stats.data_bytes // 2)
    r2 = SSTableReader(dev, "t")
    hit_corruption = False
    for k in range(0, 500, 13):
        try:
            r2.get(k)
        except CorruptBlockError:
            hit_corruption = True
    assert hit_corruption


def test_filter_block_corruption_detected():
    dev = StorageDevice()
    stats = _build_table(dev)
    assert stats.filter_bytes > 0
    # The filter block sits right after the data region; its checksum is
    # verified when the reader opens the table.
    dev.corrupt("t", stats.data_bytes + stats.filter_bytes // 2, xor=0x40)
    with pytest.raises(CorruptBlockError, match="filter block"):
        SSTableReader(dev, "t")


def test_index_block_corruption_detected():
    dev = StorageDevice()
    stats = _build_table(dev)
    # The index block sits between the filter block and the footer.
    dev.corrupt("t", stats.data_bytes + stats.filter_bytes + stats.index_bytes // 2)
    with pytest.raises(CorruptBlockError, match="index block"):
        SSTableReader(dev, "t")


def test_footer_corruption_detected():
    dev = StorageDevice()
    _build_table(dev)
    size = dev.file_size("t")
    dev.corrupt("t", size - 30)  # inside the footer body
    with pytest.raises(ValueError):
        SSTableReader(dev, "t")


def test_footer_checksum_corruption_detected():
    dev = StorageDevice()
    _build_table(dev)
    size = dev.file_size("t")
    # The trailing slot's zero high half: all 8 bytes of a CRC-32 are checked.
    dev.corrupt("t", size - 4, xor=0x01)
    with pytest.raises(CorruptBlockError, match="footer checksum"):
        SSTableReader(dev, "t")


def test_truncated_table_detected():
    dev = StorageDevice()
    _build_table(dev)
    dev.truncate("t", 40)  # shorter than the 64-byte footer
    with pytest.raises(ValueError):
        SSTableReader(dev, "t")


def test_table_truncated_mid_footer_detected():
    dev = StorageDevice()
    _build_table(dev)
    # Drop the tail of the footer: what remains parses as a misaligned
    # footer window whose magic/checksum cannot both survive.
    dev.truncate("t", dev.file_size("t") - 16)
    with pytest.raises(ValueError):
        SSTableReader(dev, "t")


def test_scan_detects_corruption():
    dev = StorageDevice()
    stats = _build_table(dev)
    dev.corrupt("t", stats.data_bytes // 3)
    r = SSTableReader(dev, "t")
    with pytest.raises(CorruptBlockError):
        scan_rows(dev, r)


@pytest.mark.parametrize("fmt", [FMT_BASE, FMT_FILTERKV], ids=lambda f: f.name)
def test_cluster_partition_corruption_surfaces_in_queries(fmt):
    """End to end: flip bytes in a persisted partition; queries that touch
    the damaged block raise rather than returning wrong values."""
    cluster = SimCluster(nranks=4, fmt=fmt, value_bytes=24, seed=8)
    batches = [random_kv_batch(1000, 24, np.random.default_rng(700 + r)) for r in range(4)]
    for rank, b in enumerate(batches):
        cluster.put(rank, b)
    cluster.finish_epoch()
    # Damage every partition's data region.
    for rank in range(4):
        name = main_table_name(0, rank)
        cluster.device.corrupt(name, cluster.device.file_size(name) // 3)
    engine = cluster.query_engine()
    outcomes = {"ok": 0, "detected": 0}
    for rank, batch in enumerate(batches):
        for i in range(0, 1000, 101):
            try:
                value, qs = engine.get(int(batch.keys[i]))
                if qs.found:
                    assert value == batch.value_of(i)  # never wrong data
                outcomes["ok"] += 1
            except CorruptBlockError:
                outcomes["detected"] += 1
    assert outcomes["detected"] > 0


# -- key groups: the unit that is verified is the unit that fails ----------------


def _grouped_table(width=40):
    """One block of several key groups of ``width``-byte values, no Bloom
    gate in front of them: ``(device, stats, items, meta)``."""
    dev = StorageDevice()
    w = SSTableWriter(dev, "t", block_size=1 << 20, bloom_bits_per_key=0)
    items = [(3 * k + 1, bytes([k % 251]) * width) for k in range(600)]
    w.add_many(*rows(items))
    stats = w.finish()
    meta = SSTableReader(dev, "t").meta
    assert meta.first.size == 1 and meta.gfirst.size >= 4
    assert meta.record_bytes == 8 + width
    return dev, stats, items, meta


def _group_of(meta, key):
    """The one group ``key`` resolves in (keys here are unique and none is
    a group's first key unless it starts that group)."""
    return int(np.searchsorted(meta.gfirst, np.uint64(key), side="right")) - 1


# "odd": 33-byte records, not a whole number of 8-byte words
@pytest.mark.parametrize("width", [40, 21], ids=["fixed", "odd"])
def test_damage_inside_one_key_group_fails_exactly_that_group(width):
    dev, _, items, meta = _grouped_table(width)
    g = 2
    lo, hi = int(meta.goff[g]), int(meta.goff[g + 1])
    dev.corrupt("t", (lo + hi) // 2, xor=0x04)
    first_keys = set(meta.gfirst.tolist())
    inside = [(k, v) for k, v in items if _group_of(meta, k) == g]
    # A group's first key also looks into the tail of the group before it.
    outside = [(k, v) for k, v in items if _group_of(meta, k) != g
               and not (_group_of(meta, k) == g + 1 and k in first_keys)]
    assert len(inside) > 10 and len(outside) > 400
    r = SSTableReader(dev, "t")
    for k, _ in inside:
        with pytest.raises(CorruptBlockError, match=f"key group {g}"):
            r.get(k)
    r = SSTableReader(dev, "t")  # a fresh block: nothing verified yet
    for k, v in outside:
        assert r.get(k) == v
    vals, _ = r.get_many(np.asarray([k for k, _ in outside], dtype=np.uint64))
    assert vals == [v for _, v in outside]
    # absent keys that fall in healthy groups are a verified "absent"
    assert r.get(outside[0][0] + 1) is None
    for k, _ in inside[:3]:
        with pytest.raises(CorruptBlockError):
            r.get_many(np.asarray([outside[0][0], k], dtype=np.uint64))
    with pytest.raises(CorruptBlockError):
        r.get(inside[0][0] + 1)  # absent, but its group cannot vouch for that
    for read in (partial(scan_rows, dev), SSTableReader.scan_arrays):
        with pytest.raises(CorruptBlockError):
            read(SSTableReader(dev, "t"))


@pytest.mark.parametrize("where", ["group checksum", "group first key", "group offset"])
def test_damage_in_the_group_table_is_typed_at_open(where):
    """The group table lives in the checksummed index block: any edit is an
    index checksum mismatch before a single group is trusted."""
    dev, stats, _, meta = _grouped_table()
    ngroups = meta.gfirst.size
    table_at = stats.data_bytes + stats.filter_bytes + stats.index_bytes - 8 - 20 * ngroups
    column = {"group first key": 0, "group checksum": 8 * ngroups, "group offset": 16 * ngroups}
    dev.corrupt("t", table_at + column[where] + 9, xor=0x20)
    with pytest.raises(CorruptBlockError, match="index block checksum"):
        SSTableReader(dev, "t")


def test_group_checksum_that_survives_the_index_check_fails_at_first_touch():
    """A reader holding the table's meta from before the damage (or an index
    re-sealed around a wrong group checksum) still refuses the group."""
    import dataclasses

    dev, _, items, meta = _grouped_table()
    gsum = meta.gsum.copy()
    gsum[1] ^= np.uint64(1)
    stale = dataclasses.replace(meta, gsum=gsum)
    r = SSTableReader(dev, "t", meta=stale)
    hit = [k for k, _ in items if _group_of(meta, k) == 1][3]
    with pytest.raises(CorruptBlockError, match="key group 1"):
        r.get(hit)
    ok = [kv for kv in items if _group_of(meta, kv[0]) == 3][3]
    assert r.get(ok[0]) == ok[1]


def test_compaction_never_copies_an_unverified_group_forward():
    """A merge reads whole tables: one flipped byte in one group of one
    source fails the run and publishes nothing."""
    from repro.core.multiepoch import MultiEpochStore

    store = MultiEpochStore(nranks=2, fmt=FMT_BASE, value_bytes=40, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(3):
        store.write_epoch([random_kv_batch(400, 40, rng) for _ in range(2)])
    name = main_table_name(1, 0)
    r = SSTableReader(store.device, name)
    assert r.meta.gfirst.size >= 3  # the damage is in one group of several
    at = int(r.meta.off[0]) + int(r.meta.goff[1]) + 30
    store.device.corrupt(name, at, xor=0x01)
    live, files = list(store.epochs), set(store.device.list_files())
    with pytest.raises(CorruptBlockError, match="key group 1"):
        store.compact([0, 1, 2])
    assert store.epochs == live and store.compactions == 0
    assert {f for f in store.device.list_files() if f.startswith("part.")} == {
        f for f in files if f.startswith("part.")
    }
    store.close()
