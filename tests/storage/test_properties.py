"""Property-based tests for the storage substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.blockio import StorageDevice
from repro.storage.compression import SnappyError, compress, decompress
from repro.storage.log import DataPointer, ValueLog
from repro.storage import sstable as sstable_mod
from repro.storage.sstable import BlockCache, SSTableReader, SSTableWriter

from ..reference.read import scan_rows
from .test_sstable import rows


@st.composite
def rows_of_one_width(draw, key, max_size):
    """``(key, value)`` pairs whose values share one drawn width."""
    width = draw(st.integers(0, 40))
    value = st.binary(min_size=width, max_size=width)
    return draw(st.lists(st.tuples(key, value), max_size=max_size))


@given(data=st.binary(min_size=0, max_size=5000))
@settings(max_examples=120, deadline=None)
def test_snappy_roundtrip_arbitrary_bytes(data):
    assert decompress(compress(data)) == data


@given(
    pattern=st.binary(min_size=1, max_size=32),
    reps=st.integers(min_value=1, max_value=400),
    tail=st.binary(min_size=0, max_size=16),
)
@settings(max_examples=80, deadline=None)
def test_snappy_roundtrip_repetitive(pattern, reps, tail):
    data = pattern * reps + tail
    out = compress(data)
    assert decompress(out) == data
    if reps > 50 and len(pattern) >= 4:
        assert len(out) < len(data)  # long repeats must actually compress


@given(junk=st.binary(min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_snappy_decoder_never_crashes_on_junk(junk):
    """Arbitrary input either decodes to *something* length-consistent or
    raises SnappyError — never an unhandled exception."""
    try:
        decompress(junk)
    except SnappyError:
        pass


@given(
    items=rows_of_one_width(st.integers(min_value=0, max_value=2**63 - 1), max_size=120),
    block_size=st.sampled_from([64, 256, 4096]),
)
@settings(max_examples=60, deadline=None)
def test_sstable_roundtrip_property(items, block_size):
    dev = StorageDevice()
    w = SSTableWriter(dev, "t", block_size=block_size)
    w.add_many(*rows(items))
    stats = w.finish()
    assert stats.nentries == len(items)
    r = SSTableReader(dev, "t")
    # First value per key wins; absent keys return None.
    first = {}
    for k, v in items:
        first.setdefault(k, v)
    for k, v in list(first.items())[:50]:
        assert r.get(k) == v
    scanned = scan_rows(r)
    assert [k for k, _ in scanned] == sorted(k for k, _ in items)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=60), min_size=0, max_size=150),
    width=st.sampled_from([0, 5, 12, 21]),
    group_bytes=st.sampled_from([64, 100, 256]),
    block_size=st.sampled_from([64, 300, 1 << 20]),
    cache=st.sampled_from([None, 0, 2]),  # the three fetch rules
)
@settings(max_examples=120, deadline=None)
def test_sstable_reads_agree_across_group_and_block_seams(
    keys, width, group_bytes, block_size, cache
):
    """A small key universe makes duplicates straddle every kind of seam;
    `get`, `get_many`, `scan` and `scan_arrays` tell one story, first
    inserted wins, and every absent key in 0..61 is absent."""
    items = [(k, bytes([i % 251]) * width) for i, k in enumerate(keys)]
    dev = StorageDevice()
    original = sstable_mod.GROUP_BYTES
    sstable_mod.GROUP_BYTES = group_bytes  # readers take group bounds from the table
    try:
        w = SSTableWriter(dev, "t", block_size=block_size, bloom_bits_per_key=0)
        w.add_many(*rows(items))
        w.finish()
    finally:
        sstable_mod.GROUP_BYTES = original
    first = {}
    for k, v in items:
        first.setdefault(k, v)
    probe = np.arange(62, dtype=np.uint64)
    want = [first.get(k) for k in probe.tolist()]
    r = SSTableReader(dev, "t", cache=None if cache is None else BlockCache(cache, dev.metrics))
    assert r.meta.record_bytes == (8 + width if keys else 0)
    assert [r.get(k) for k in probe.tolist()] == want
    assert r.get_many(probe)[0] == want
    assert r.get_many(probe[::-1])[0] == want[::-1]
    scanned = scan_rows(r)
    assert [k for k, _ in scanned] == sorted(keys)
    scan_first = {}
    for k, v in scanned:
        scan_first.setdefault(k, v)
    assert scan_first == first
    akeys, avals = r.scan_arrays()
    assert [(k, bytes(v)) for k, v in zip(akeys.tolist(), avals)] == scanned


@given(items=rows_of_one_width(st.just(0), max_size=50).filter(len))
@settings(max_examples=60, deadline=None)
def test_valuelog_roundtrip_property(items):
    values = [v for _, v in items]
    dev = StorageDevice()
    log = ValueLog(dev, rank=0)
    ptrs = [DataPointer(0, int(off)) for off in log.append_many(rows(items)[1])]
    # Read back in a shuffled order: pointers are position-independent.
    order = np.random.default_rng(0).permutation(len(values))
    for i in order:
        assert log.read(ptrs[i]) == values[i]
