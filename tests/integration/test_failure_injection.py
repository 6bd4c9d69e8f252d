"""Failure injection: corrupted storage must be detected, never served.

All damage is introduced through the public fault surface on
`StorageDevice` (``corrupt`` / ``truncate``) — the same hooks the
``repro.faults`` plans use — so these tests double as a contract check
on that API.  Coverage walks the whole table layout: data blocks, the
filter block, the index block, the footer body, and the footer checksum.
"""

import numpy as np
import pytest

from repro.cluster import SimCluster
from repro.core import FMT_BASE, FMT_FILTERKV
from repro.core.kv import random_kv_batch
from repro.core.pipeline import main_table_name
from repro.storage.blockio import StorageDevice
from repro.storage.sstable import CorruptBlockError, SSTableReader, SSTableWriter


def _build_table(dev, n=500):
    w = SSTableWriter(dev, "t", block_size=512)
    for k in range(n):
        w.add(k, b"payload-%03d" % (k % 1000))
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
    dev.corrupt("t", size - 4, xor=0x01)  # inside the trailing fastsum64
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
        r.scan()


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
