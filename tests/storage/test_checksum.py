"""Unit + property tests for the block checksum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.checksum import CHECKSUM_BYTES, fastsum64, fastsum64_rows


def test_deterministic():
    assert fastsum64(b"hello") == fastsum64(b"hello")
    assert CHECKSUM_BYTES == 8


def test_empty_input():
    assert isinstance(fastsum64(b""), int)
    assert fastsum64(b"") != fastsum64(b"\x00")


def test_length_sensitivity():
    # Zero padding must not collide with the unpadded input.
    assert fastsum64(b"abc") != fastsum64(b"abc\x00")
    assert fastsum64(b"abc\x00\x00") != fastsum64(b"abc\x00")


def test_seed_changes_sum():
    assert fastsum64(b"data", seed=1) != fastsum64(b"data", seed=2)


def test_position_sensitivity():
    # Swapping two words must change the sum (weighted by position).
    a = b"A" * 8 + b"B" * 8
    b = b"B" * 8 + b"A" * 8
    assert fastsum64(a) != fastsum64(b)


@given(data=st.binary(min_size=1, max_size=2000), bit=st.integers(min_value=0, max_value=15999))
@settings(max_examples=150, deadline=None)
def test_single_bit_flip_detected(data, bit):
    bit %= len(data) * 8
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert fastsum64(bytes(flipped)) != fastsum64(data)


def test_sum_distribution_is_wide():
    rng = np.random.default_rng(1)
    sums = [fastsum64(rng.integers(0, 256, 100, dtype=np.uint8).tobytes()) for _ in range(200)]
    assert len(set(sums)) == 200
    # High bits are populated too.
    assert any(s >> 60 for s in sums)


def test_large_input_fast_path():
    data = bytes(np.random.default_rng(2).integers(0, 256, 1 << 20, dtype=np.uint8))
    s = fastsum64(data)
    assert fastsum64(data) == s


# Sums of ``(bytes(range(256)) * 2)[:n]`` computed by the implementation that
# padded a copy of its input (commit 7e5e55b): stored tables carry these.
PINNED = {
    0: (0xE220A8397B1DCDAF, 0xE220A8397B1DCDAF),
    1: (0xFE4F26F77A43B7A9, 0x5B0A586F47BD5391),
    7: (0x2588E3A8A36C5899, 0x31660104EA9E738B),
    8: (0xA94103F59F274413, 0x7C21C3DFE84794DD),
    9: (0xF9DCB0CDF3D024C1, 0x1A2FD78B0E18986F),
    64: (0xBEE7657D8D9CF5DA, 0x3F990661D41DD972),
    511: (0x860426BFDCE49038, 0xB427C209251CB0F9),
}
PIN_DATA = bytes(range(256)) * 2


@pytest.mark.parametrize("n", sorted(PINNED))
def test_sums_are_pinned_across_the_word_boundary(n):
    assert (fastsum64(PIN_DATA[:n]), fastsum64(PIN_DATA[:n], seed=5)) == PINNED[n]


def test_any_contiguous_buffer_is_read_in_place():
    want = 0xB38C168681FC854F  # of PIN_DATA[3:40], same provenance
    view = memoryview(PIN_DATA)[3:40]  # an unaligned slice, no copy
    assert fastsum64(view) == want
    assert fastsum64(bytearray(PIN_DATA[3:40])) == want
    assert fastsum64(np.frombuffer(PIN_DATA, dtype=np.uint8)[3:40]) == want
    assert fastsum64(PIN_DATA[3:40]) == want


@given(
    data=st.binary(min_size=0, max_size=1500),
    row_bytes=st.integers(min_value=1, max_value=300),
    seed=st.sampled_from([0, 5]),
    picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_rows_variant_equals_scalar_sum_of_each_row(data, row_bytes, seed, picks):
    """Ragged last row included, whole-word rows or not, all rows or a
    selection of them in any order."""
    want = [fastsum64(data[i : i + row_bytes], seed) for i in range(0, len(data), row_bytes)]
    assert fastsum64_rows(data, row_bytes, seed=seed).tolist() == want
    assert fastsum64_rows(memoryview(data), row_bytes, seed=seed).tolist() == want
    if want:
        rows = [p % len(want) for p in picks]
        got = fastsum64_rows(data, row_bytes, rows, seed=seed)
        assert got.dtype == np.uint64 and got.tolist() == [want[r] for r in rows]


def test_rows_variant_rejects_a_row_size_of_zero():
    with pytest.raises(ValueError):
        fastsum64_rows(b"abc", 0)
