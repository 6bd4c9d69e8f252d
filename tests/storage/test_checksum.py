"""Unit + property tests for the stored checksum: a `zlib.crc32` per
section, `crc32_rows` per key group."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.checksum import CHECKSUM_BYTES, crc32_rows


def crc(data) -> int:
    """The checksum of non-empty ``data`` taken as one row, as a key group's
    is."""
    (value,) = crc32_rows(data, len(data)).tolist()
    return value


def test_deterministic():
    assert crc(b"hello") == crc(b"hello") == zlib.crc32(b"hello")
    assert CHECKSUM_BYTES == 8


def test_empty_input():
    assert crc32_rows(b"", 8).tolist() == []  # no bytes, no rows
    assert zlib.crc32(b"") != crc(b"\x00")


def test_length_sensitivity():
    # Zero padding must not collide with the unpadded input.
    assert crc(b"abc") != crc(b"abc\x00")
    assert crc(b"abc\x00\x00") != crc(b"abc\x00")


def test_position_sensitivity():
    # Swapping two words must change the sum.
    a = b"A" * 8 + b"B" * 8
    b = b"B" * 8 + b"A" * 8
    assert crc(a) != crc(b)


@given(data=st.binary(min_size=1, max_size=2000), bit=st.integers(min_value=0, max_value=15999))
@settings(max_examples=150, deadline=None)
def test_single_bit_flip_detected(data, bit):
    bit %= len(data) * 8
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert crc(bytes(flipped)) != crc(data)


def test_sum_distribution_is_wide():
    rng = np.random.default_rng(1)
    sums = [crc(rng.integers(0, 256, 100, dtype=np.uint8).tobytes()) for _ in range(200)]
    assert len(set(sums)) == 200
    assert all(s < 1 << 32 for s in sums)  # zero-extended into the 8-byte slot


def test_large_input_fast_path():
    data = bytes(np.random.default_rng(2).integers(0, 256, 1 << 20, dtype=np.uint8))
    assert crc(data) == zlib.crc32(data)
    sums = crc32_rows(data, 4096)
    assert sums.size == 256 and int(sums[-1]) == zlib.crc32(data[-4096:])


# CRC-32 (IEEE, zlib's) of ``(bytes(range(256)) * 2)[:n]``: every stored
# section carries this function's value, so another CRC would strand them.
PINNED = {0: 0x0, 1: 0xD202EF8D, 7: 0xAD5809F9, 8: 0x88AA689F, 9: 0xBCE14302,
          64: 0x100ECE8C, 511: 0x023E6488}
PIN_DATA = bytes(range(256)) * 2


@pytest.mark.parametrize("n", sorted(PINNED))
def test_sums_are_pinned_across_the_word_boundary(n):
    assert zlib.crc32(PIN_DATA[:n]) == PINNED[n]
    assert crc32_rows(PIN_DATA[:n], max(n, 1)).tolist() == ([PINNED[n]] if n else [])


def test_any_contiguous_buffer_is_read_in_place():
    want = 0x4E729AC5  # of PIN_DATA[3:40]
    view = memoryview(PIN_DATA)[3:40]  # an unaligned slice, no copy
    for buf in (view, bytearray(PIN_DATA[3:40]), np.frombuffer(PIN_DATA, np.uint8)[3:40]):
        assert crc32_rows(buf, 37).tolist() == [want]


@given(
    data=st.binary(min_size=0, max_size=1500),
    row_bytes=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_rows_variant_equals_scalar_sum_of_each_row(data, row_bytes):
    """One `zlib.crc32` per slice: rows of any length (word multiples or
    not) and a short last row."""
    want = [zlib.crc32(data[i : i + row_bytes]) for i in range(0, len(data), row_bytes)]
    got = crc32_rows(data, row_bytes)
    assert got.dtype == np.uint64 and got.tolist() == want
    assert crc32_rows(memoryview(data), row_bytes).tolist() == want


def test_rows_variant_rejects_a_row_size_of_zero():
    with pytest.raises(ValueError):
        crc32_rows(b"abc", 0)
