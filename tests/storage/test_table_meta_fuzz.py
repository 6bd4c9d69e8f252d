"""Checksum-valid but inconsistent tables against `load_table_meta` and the
key-group reader.

A section checksum proves the bytes are the ones somebody wrote, not that
they describe a table.  These tests take valid tables, edit the footer, the
block index, the group table or the records themselves *and re-seal every
checksum the edit breaks*, so each gate after the checksums is what stops
the damage.  Whatever the bytes, opening and reading — through a
whole-block reader and through a ranged one, which fetches only the span
of key groups a call touches — has two outcomes: a value, or
`CorruptBlockError` / the documented `ValueError` — never `struct.error`,
`IndexError`, `OSError`, a hang, or memory sized by a count nobody
checked against the bytes present.  The deterministic sweeps always run; the hypothesis property
has a fast entry for tier-1 and a ``_full`` twin under ``-m slow`` for the
CI ``aux-tournament`` job.
"""

import struct
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.blockio import ExtentLostError, StorageDevice
from repro.storage.sstable import (
    BLOCK_CACHE_BLOCKS,
    BlockCache,
    FOOTER_BYTES,
    GROUP_BYTES,
    CorruptBlockError,
    SSTableReader,
    SSTableWriter,
    load_table_meta,
)

from ..reference.read import scan_rows
from ..serve.test_proto_fuzz import both_profiles
from .test_sstable import rows, touched_span

U64 = 2**64 - 1
FOOTER = struct.Struct("<QQQQQQII")
FOOTER_FIELDS = (
    "magic", "index_off", "index_len", "filter_off", "filter_len", "nentries",
    "block_size", "bloom_nhashes",
)
INDEX_HDR = struct.Struct("<III")
BLOCK_ENTRY_BYTES = 3 * 8 + 3 * 4
# The fixed-width decoder holds a table's bytes, one block's key column and
# the checksum pass's temporaries.  Measured over the full profile (CPython
# 3.11, NumPy 2.4): peak 116 KB for the 21.6 KB "fixed" table, at most 8.2x
# any table over 5 KB, and a ~2 KB fixed cost the slack covers.
ALLOC_FACTOR, ALLOC_SLACK = 16, 1 << 16


def seal(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(8, "little")


def _table_bytes(items, **kw) -> bytes:
    dev = StorageDevice()
    w = SSTableWriter(dev, "t", **kw)
    w.add_many(*rows(items))
    w.finish()
    return dev.read("t", 0, dev.file_size("t"))


def _bases() -> dict[str, bytes]:
    rng = np.random.default_rng(24)
    keys = np.unique(rng.integers(1, 1 << 40, size=400, dtype=np.uint64)).tolist()
    fixed = [(k, bytes([k % 251]) * 40) for k in keys]
    narrow = [(k, bytes([k % 241]) * 13) for k in keys]  # 21-byte records: not whole words
    return {
        # 2+ blocks of 2+ groups each, at two widths
        "fixed": _table_bytes(fixed, block_size=2 * GROUP_BYTES),
        "narrow": _table_bytes(narrow, block_size=5 * GROUP_BYTES // 4),
        "no-bloom": _table_bytes(fixed[:50], bloom_bits_per_key=0),
        "one-group": _table_bytes(narrow[:9]),
        "empty": _table_bytes([]),
    }


BASES = _bases()


class Parts:
    """A table's bytes taken apart, editable, and put back together with
    every checksum recomputed."""

    def __init__(self, blob: bytes):
        self.footer = dict(zip(FOOTER_FIELDS, FOOTER.unpack_from(blob, len(blob) - FOOTER_BYTES)))
        f = self._written = dict(self.footer)
        self.data = bytearray(blob[: f["filter_off"]])
        self.filter = blob[f["filter_off"] : f["filter_off"] + f["filter_len"]][:-8]
        index = blob[f["index_off"] : f["index_off"] + f["index_len"] - 8]
        self.header = list(INDEX_HDR.unpack_from(index))
        nblocks, ngroups, _ = self.header
        # Both tables are stored one column after another: u64 columns, then u32.
        def columns(at, n, wide, narrow):
            u64 = np.frombuffer(index, "<u8", wide * n, at).reshape(wide, n)
            u32 = np.frombuffer(index, "<u4", narrow * n, at + 8 * wide * n).reshape(narrow, n)
            return [c.astype(object).tolist() for c in (*u64, *u32)]

        # per block: first, last, off, len, n, groups -- one editable row each
        self.entries = [list(e) for e in zip(*columns(INDEX_HDR.size, nblocks, 3, 3))]
        at = INDEX_HDR.size + nblocks * BLOCK_ENTRY_BYTES
        self.gfirst, self.gsum, self.goff = columns(at, ngroups, 2, 1)
        self.index_tail = b""  # bytes after the group table, before the checksum

    def reseal_groups(self) -> None:
        """Recompute the checksum of every key group from the data bytes as
        they are now (groups the index no longer places are left alone)."""
        g = 0
        for _first, _last, off, length, _n, ngroups in self.entries:
            bounds = self.goff[g : g + ngroups] + [length]
            for j in range(min(ngroups, len(self.goff) - g)):
                lo, hi = off + bounds[j], off + bounds[j + 1]
                if 0 <= lo <= hi <= len(self.data):
                    self.gsum[g + j] = zlib.crc32(self.data[lo:hi])
            g += ngroups

    def build(self) -> bytes:
        def col(values, fmt, mask):
            return b"".join(struct.pack(fmt, int(v) & mask) for v in values)

        block_cols = list(zip(*self.entries)) or [()] * 6
        index = (
            INDEX_HDR.pack(*(v & 0xFFFFFFFF for v in self.header))
            + b"".join(col(c, "<Q", U64) for c in block_cols[:3])
            + b"".join(col(c, "<I", 0xFFFFFFFF) for c in block_cols[3:])
            + col(self.gfirst, "<Q", U64)
            + col(self.gsum, "<Q", U64)
            + col(self.goff, "<I", 0xFFFFFFFF)
            + self.index_tail
        )
        f = dict(self.footer)
        filter_blob = seal(self.filter) if f["filter_len"] else b""
        index_blob = seal(index)
        # Sections move only when an edit changed their size; offsets the
        # test edited on purpose are kept as edited.
        placed = {
            "filter_off": len(self.data),
            "filter_len": len(filter_blob),
            "index_off": len(self.data) + len(filter_blob),
            "index_len": len(index_blob),
        }
        f.update({k: v for k, v in placed.items() if f[k] == self._written[k]})
        body = FOOTER.pack(*(f[k] & (U64 if i < 6 else 0xFFFFFFFF) for i, k in enumerate(FOOTER_FIELDS)))
        return bytes(self.data) + filter_blob + index_blob + seal(body)



def check(blob: bytes, keys=(0, 1, 12345, U64)) -> bool:
    """The whole contract for one table image, read through a whole-block
    reader and a ranged one (over ``BlockCache(0)``: it fetches only the
    span of key groups a call touches); True when it opened."""
    dev = StorageDevice()
    dev.create("t")
    dev.append("t", blob)
    tracemalloc.start()
    try:
        for blocks in (BLOCK_CACHE_BLOCKS, 0):
            try:
                reader = SSTableReader(dev, "t", cache=BlockCache(blocks, dev.metrics))
            except ValueError:  # CorruptBlockError is one
                return False
            probe = np.asarray(keys, dtype=np.uint64)
            first = reader.meta.gfirst[:4].tolist()
            probe = np.concatenate([probe, np.asarray(first, dtype=np.uint64)])
            reads = [lambda k=k: reader.get(int(k)) for k in probe]
            reads += [lambda: reader.get_many(probe), lambda: scan_rows(reader)]
            reads.append(reader.scan_arrays)
            for read in reads:
                try:
                    read()
                except ValueError:
                    pass
        return True
    except MemoryError:  # pragma: no cover - the bug this file exists for
        pytest.fail("reader tried an allocation sized by an unchecked count")
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= ALLOC_FACTOR * len(blob) + ALLOC_SLACK, (peak, len(blob))


# -- the untyped escapes this file was written for ------------------------------


@pytest.mark.parametrize("name", sorted(BASES))
def test_base_tables_round_trip_through_the_harness(name):
    blob = BASES[name]
    assert Parts(blob).build() == blob
    assert check(blob)


def test_block_count_that_disagrees_with_the_index_length():
    """`np.frombuffer(count=nblocks * 32)` raised a bare ValueError about
    buffer sizes at the parent commit; the group layout names the table."""
    for nblocks in (0, 1, 3, 2**20, 2**32 - 1):
        p = Parts(BASES["fixed"])
        p.header[0] = nblocks
        if nblocks == len(p.entries):
            continue
        with pytest.raises(CorruptBlockError, match="index block"):
            _open(p.build())


def test_group_count_is_checked_before_anything_is_sized_from_it():
    for ngroups in (0, 1, 2**28, 2**32 - 1):
        p = Parts(BASES["narrow"])
        p.header[1] = ngroups
        with pytest.raises(CorruptBlockError):
            _open(p.build())
        assert not check(p.build())  # and under the allocation meter


def test_records_cut_short_raise_typed_not_struct_error():
    """A block whose last record is cut short, its length and group checksum
    re-sealed to match: the block is no longer rows of whole records, and
    the open says so."""
    for cut in (1, 5, 11, 13):
        q = Parts(BASES["one-group"])
        q.data = q.data[:-cut]
        q.entries[-1][3] -= cut
        q.reseal_groups()
        with pytest.raises(CorruptBlockError, match="not rows of 21-byte records"):
            _open(q.build())


def test_a_record_width_below_the_key_is_typed():
    """A row is its u64 key, then its value: an index that claims rows of
    fewer than 8 bytes describes no table this writer emits."""
    for width in range(1, 8):
        p = Parts(BASES["fixed"])
        p.header[2] = width
        with pytest.raises(CorruptBlockError, match=f"not rows of {width}-byte records"):
            _open(p.build())
        assert not check(p.build())


@pytest.mark.parametrize(
    "field,value",
    [
        ("index_off", 2**40), ("index_off", 0), ("index_len", 2**40), ("index_len", 0),
        ("filter_off", 2**63), ("filter_len", 2**33), ("filter_len", 9),
        ("bloom_nhashes", 0), ("bloom_nhashes", 2**32 - 1), ("nentries", 7),
    ],
)
def test_footer_fields_that_leave_the_file(field, value):
    p = Parts(BASES["fixed"])
    p.footer[field] = value
    with pytest.raises(CorruptBlockError):
        _open(p.build())
    assert not check(p.build())


@pytest.mark.parametrize("base", ["no-bloom", "empty"])
@pytest.mark.parametrize("nhashes", [1, 7, 2**32 - 1])
def test_a_filterless_footer_that_names_bloom_hashes(base, nhashes):
    """A table without a filter block (a store's filterkv tables, any empty
    table) writes ``bloom_nhashes`` 0; a footer that names hashes for a
    filter it does not have describes no table this writer emits."""
    p = Parts(BASES[base])
    assert p.footer["filter_len"] == 0 and p.footer["bloom_nhashes"] == 0
    p.footer["bloom_nhashes"] = nhashes
    with pytest.raises(CorruptBlockError, match="filterless footer"):
        _open(p.build())
    assert not check(p.build())


def test_group_offsets_are_range_checked_against_their_block():
    base = Parts(BASES["narrow"])
    ngroups0 = base.entries[0][5]
    assert ngroups0 >= 2
    for at, value in ((0, 1), (1, 0), (1, base.entries[0][3]), (1, 2**32 - 1), (ngroups0, 5)):
        p = Parts(BASES["narrow"])
        p.goff[at] = value
        with pytest.raises(CorruptBlockError, match="not rows of 21-byte records"):
            _open(p.build())


def test_blocks_are_range_checked_against_the_data_region():
    for field, value in ((2, 2**62), (2, U64), (3, 2**32 - 1), (5, 0), (5, 2**31)):
        p = Parts(BASES["narrow"])
        p.entries[1][field] = value
        with pytest.raises(CorruptBlockError, match="block index"):
            _open(p.build())


def test_fixed_width_geometry_is_checked_at_open():
    for edit in ("record_bytes", "short_block", "moved_group"):
        p = Parts(BASES["fixed"])
        if edit == "record_bytes":
            p.header[2] = 47
        elif edit == "short_block":
            p.entries[0][3] -= 1
        else:
            p.goff[1] += 48
        with pytest.raises(CorruptBlockError):
            _open(p.build())


def test_a_resealed_variable_width_header_is_refused_by_name():
    """record_bytes 0 is legal only in an empty table: a table with blocks
    that claims it is in the retired variable-width layout."""
    p = Parts(BASES["fixed"])
    p.header[2] = 0
    with pytest.raises(ValueError, match="variable-width layout"):
        _open(p.build())
    assert not check(p.build())
    assert Parts(BASES["empty"]).header[2] == 0 and check(BASES["empty"])


# -- the table-wide placement against a resealed group table ---------------------
#
# A read places every key once against the group first keys of the whole
# table and clips the result to the key's block.  These group tables keep
# their checksums but break what that placement relies on; each must be
# refused at open or read with nothing but values and `ValueError`s.


def _group_table_edits(name: str):
    """``(label, Parts)`` for every directed edit of ``name``'s group table."""
    base = Parts(BASES[name])
    starts = [0]
    for entry in base.entries:
        starts.append(starts[-1] + entry[5])
    ngroups = len(base.gfirst)

    def edit(label, fn):
        p = Parts(BASES[name])
        fn(p)
        return label, p

    def reverse(p):
        p.gfirst = p.gfirst[::-1]

    def swap(p):
        p.gfirst[1], p.gfirst[2] = p.gfirst[2], p.gfirst[1]

    yield edit("descend: reversed", reverse)
    yield edit("descend: two neighbours swapped", swap)
    yield edit("descend: a middle key to 0", lambda p: p.gfirst.__setitem__(ngroups // 2, 0))
    yield edit("descend: the first key to U64", lambda p: p.gfirst.__setitem__(0, U64))
    for b, entry in enumerate(base.entries):
        first, last = entry[0], entry[1]
        g = starts[b]
        yield edit(f"block {b} first group below its first key",
                   lambda p, g=g, k=first: p.gfirst.__setitem__(g, k - 1))
        yield edit(f"block {b} first group above its first key",
                   lambda p, g=g, k=first: p.gfirst.__setitem__(g, k + 1))
        yield edit(f"block {b} first key below its first group",
                   lambda p, b=b, k=first: p.entries[b].__setitem__(0, k - 1))
        yield edit(f"block {b} first key past its last",
                   lambda p, b=b, k=last: p.entries[b].__setitem__(0, k + 1))
        last_group = starts[b + 1] - 1
        yield edit(f"block {b} last group past its last key",
                   lambda p, g=last_group, k=last: p.gfirst.__setitem__(g, k + 1))
        yield edit(f"block {b} a group at U64",
                   lambda p, g=last_group: p.gfirst.__setitem__(g, U64))
        yield edit(f"block {b} last key below its last group",
                   lambda p, b=b, g=last_group: p.entries[b].__setitem__(1, p.gfirst[g] - 1))


@pytest.mark.parametrize("name", ["fixed", "narrow"])
def test_a_resealed_group_table_that_breaks_the_placement_stays_typed(name):
    """Group first keys that descend, a block whose first key disagrees
    with its first group's, and a group first key past its block's last
    key: refused at open with `CorruptBlockError`, or read — through both
    fetch rules `check` drives — with only values and `ValueError`s, for
    probes at and beside every key the index names."""
    seen = Counter()
    for label, p in _group_table_edits(name):
        named = {int(k) for e in p.entries for k in e[:2]} | {int(k) for k in p.gfirst}
        probes = sorted({max(0, min(U64, k + d)) for k in named for d in (-1, 0, 1)})
        blob = p.build()
        try:
            _open(blob)
        except ValueError as e:
            assert isinstance(e, CorruptBlockError), (label, e)
            seen["refused"] += 1
            continue
        assert check(blob, probes), label
        seen["read"] += 1
    assert sum(seen.values()) >= 10, seen


def _open(blob: bytes) -> SSTableReader:
    dev = StorageDevice()
    dev.create("t")
    dev.append("t", blob)
    return SSTableReader(dev, "t")


# -- deterministic sweeps ---------------------------------------------------------


@pytest.mark.parametrize("name", ["fixed", "narrow", "one-group"])
def test_every_byte_of_the_tail_flipped_without_resealing(name):
    """Filter, index (group table included) and footer: their checksums
    catch every single-byte edit at open."""
    blob = BASES[name]
    start = Parts(blob).footer["filter_off"]
    for i in range(start, len(blob)):
        damaged = blob[:i] + bytes([blob[i] ^ 0x5A]) + blob[i + 1 :]
        assert not check(damaged), i


@pytest.mark.parametrize("name", ["fixed", "narrow", "empty"])
def test_every_truncation_of_the_tail(name):
    blob = BASES[name]
    start = Parts(blob).footer["filter_off"]
    for n in range(start, len(blob)):
        assert not check(blob[:n]), n


@pytest.mark.parametrize("name", ["fixed", "narrow"])
def test_every_index_byte_edited_and_resealed(name):
    """Past the checksum: every byte of the index body inverted, one at a
    time, with the section checksum recomputed."""
    blob = BASES[name]
    f = Parts(blob).footer
    lo, hi = f["index_off"], f["index_off"] + f["index_len"] - 8
    opened = 0
    for i in range(lo, hi):
        body = blob[lo:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 : hi]
        opened += check(blob[:lo] + seal(body) + blob[hi + 8 :])
    assert opened  # first keys and checksums are free to say anything


# -- the ranged reader's span -----------------------------------------------------


def _ranged(blob: bytes, meta=None):
    """A ranged reader over ``blob`` (resident ``meta`` if given), and the
    ``(offset, size)`` of every device read it makes."""
    dev = StorageDevice()
    dev.create("t")
    dev.append("t", blob)
    fetched = []
    read = dev._read

    def logged(name, offset, size):
        fetched.append((offset, size))
        return read(name, offset, size)

    dev._read = logged
    return SSTableReader(dev, "t", meta, BlockCache(0, dev.metrics)), fetched


FIXED = BASES["fixed"]  # 2+ blocks of 2+ key groups, 48-byte records


def _meta(blob: bytes):
    return _ranged(blob)[0].meta


def _inner_key(meta, g: int) -> int:
    """The second key of group ``g`` of `FIXED`: no group starts with it,
    so a read of it touches that one group."""
    b = int(np.searchsorted(meta.gstart, g, "right")) - 1
    (key,) = struct.unpack_from("<Q", FIXED, int(meta.off[b] + meta.goff[g]) + meta.record_bytes)
    return key


def test_a_flipped_byte_inside_the_span_is_caught():
    meta = _meta(FIXED)
    key = _inner_key(meta, 1)
    _, start, stop = touched_span(meta, key)
    assert start == meta.goff[1] and stop - start <= meta.group_bytes  # that group alone
    p = Parts(FIXED)
    p.data[start + 5 * 48 + 20] ^= 0x01  # a value byte of that group, not re-sealed
    reader, fetched = _ranged(p.build(), meta)
    with pytest.raises(CorruptBlockError, match="block 0, key group 1 of 't'"):
        reader.get(key)
    assert fetched == [(start, stop - start)]


def test_a_flipped_byte_outside_the_span_is_never_fetched():
    meta = _meta(FIXED)
    key = _inner_key(meta, 1)
    want = _ranged(FIXED, meta)[0].get(key)
    assert want is not None
    p = Parts(FIXED)
    at = int(meta.goff[0]) + 100  # group 0 of the same block
    p.data[at] ^= 0x01
    reader, fetched = _ranged(p.build(), meta)
    assert reader.get(key) == want
    assert fetched and all(not off <= at < off + size for off, size in fetched)


def test_a_truncation_that_cuts_the_span_is_typed():
    """Cuts all over the data region under a reader whose metadata is
    resident: a key whose span survives answers, one whose span is cut
    raises `CorruptBlockError` (short read) or `ExtentLostError` (the read
    starts past the end) — never `IndexError` or `struct.error`."""
    meta = _meta(FIXED)
    keys = [int(k) for k in meta.gfirst]  # a group's first key: two groups each
    keys += [_inner_key(meta, g) for g in range(meta.gfirst.size)]
    intact = _ranged(FIXED, meta)[0]
    truth = {k: intact.get(k) for k in keys}
    assert all(v is not None for v in truth.values())
    spans = {k: touched_span(meta, k) for k in keys}
    cuts = set(range(0, Parts(FIXED).footer["filter_off"], 97))
    cuts |= {edge + d for _, *edges in spans.values() for edge in edges for d in (-1, 0, 1)}
    for n in sorted(cuts - {-1}):
        reader, _ = _ranged(FIXED[:n], meta)
        for k in keys:
            if spans[k][2] <= n:
                assert reader.get(k) == truth[k], (n, k)
            else:
                with pytest.raises((CorruptBlockError, ExtentLostError)):
                    reader.get(k)


# -- the property -----------------------------------------------------------------

hostile_ints = st.sampled_from(
    [0, 1, 2, 7, 8, 11, 12, 13, 48, 2**16, 2**31, 2**32 - 1, 2**32, 2**40, 2**63 - 1, 2**63, U64]
)


def near(value):
    return st.one_of(
        st.sampled_from([value - 1, value + 1, value * 2, value // 2]).map(lambda v: max(v, 0)),
        hostile_ints,
    )


@st.composite
def edited_tables(draw):
    p = Parts(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(["footer", "header", "entry", "group", "tail", "records"]))
        if what == "footer":
            name = draw(st.sampled_from(FOOTER_FIELDS))
            p.footer[name] = draw(near(p.footer[name]))
        elif what == "header":
            i = draw(st.integers(0, 2))
            p.header[i] = draw(near(p.header[i]))
        elif what == "entry" and p.entries:
            e = draw(st.sampled_from(p.entries))
            i = draw(st.integers(0, 5))
            e[i] = draw(near(e[i]))
        elif what == "group" and p.goff:
            col = draw(st.sampled_from([p.gfirst, p.gsum, p.goff]))
            i = draw(st.integers(0, len(col) - 1))
            col[i] = draw(near(int(col[i])))
        elif what == "tail":
            if draw(st.booleans()):
                p.index_tail = draw(st.binary(min_size=1, max_size=40))
            elif p.goff:
                p.goff = p.goff[: draw(st.integers(0, len(p.goff) - 1))]
        elif what == "records" and p.data:
            # Damage the records and re-seal their groups: only the decoders'
            # own checks stand between these bytes and a caller.
            for _ in range(draw(st.integers(1, 4))):
                at = draw(st.integers(0, len(p.data) - 1))
                p.data[at] = draw(st.integers(0, 255))
            if draw(st.booleans()):
                cut = draw(st.integers(1, min(30, len(p.data))))
                p.data = p.data[:-cut]
                p.entries[-1][3] = max(0, p.entries[-1][3] - cut)
            p.reseal_groups()
    blob = bytearray(p.build())
    for at in draw(st.lists(st.integers(0, len(blob) - 1), max_size=1)):  # and unsealed damage
        blob[at] = draw(st.integers(0, 255))
    return bytes(blob)


probe_keys = st.lists(
    st.one_of(st.just(0), st.just(U64), st.integers(0, U64)), min_size=2, max_size=8
)


def check_edited_table(blob, keys):
    check(blob, keys)


test_edited_table, test_edited_table_full = both_profiles(
    check_edited_table, edited_tables(), probe_keys, quick=250, full=5000
)


def test_the_property_reaches_both_outcomes():
    """The edits are not all refused at the first gate."""
    p = Parts(BASES["fixed"])
    p.gfirst[1] += 1  # a first key may say anything: the table opens
    assert check(p.build())
    p = Parts(BASES["fixed"])
    p.data[20] ^= 0xFF  # value bytes re-sealed: opens and reads
    p.reseal_groups()
    assert check(p.build())
    p = Parts(BASES["fixed"])
    p.entries[0][4] += 1  # a record count the footer does not back
    assert not check(p.build())


def property_outcomes(examples: int) -> Counter:
    """How far each of ``examples`` drawn tables gets through an open and a
    full scan: stopped at a checksum, stopped by a structure check behind
    one, refused by magic or by name, or read in full."""
    seen = Counter()

    @settings(max_examples=examples, deadline=None, database=None)
    @given(edited_tables())
    def run(blob):
        try:
            _open(blob).scan_arrays()
        except CorruptBlockError as e:
            seen["checksum" if "checksum mismatch" in str(e) else "structure"] += 1
        except ValueError:
            seen["refused"] += 1
        else:
            seen["read"] += 1

    run()
    return seen


def check_reach(examples: int) -> None:
    """The re-sealed edits get past the checksums: a fifth of them reach a
    structure check (and a twentieth read in full), so those checks are
    fuzzed, not shadowed by a seal that no longer matches the reader's."""
    seen = property_outcomes(examples)
    assert seen["structure"] >= examples // 5 and seen["read"] >= examples // 20, seen


def test_the_property_reaches_the_structure_checks():
    check_reach(250)


@pytest.mark.slow
def test_the_property_reaches_the_structure_checks_full():
    check_reach(5000)


def test_load_table_meta_is_the_function_under_test():
    dev = StorageDevice()
    dev.create("t")
    dev.append("t", BASES["fixed"])
    meta = load_table_meta(dev, "t")
    assert meta.record_bytes == 48 and meta.group_bytes % 48 == 0
    assert meta.gstart[-1] == meta.gfirst.size == meta.gsum.size == meta.goff.size
